#include "ccsr/ccsr_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <span>

#include "ccsr/ccsr_mmap.h"
#include "ccsr/ccsr_v2_format.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace csce {

Status LoadCcsrFromFile(const std::string& path, Ccsr* out) {
  // Open the mapping for its O(#clusters) structural checks, run the
  // deep validation ("a corrupted artifact must never load"), then copy
  // every array into exact-size heap vectors and drop the mapping.
  // Callers that want the out-of-core behavior use MmapCcsr directly.
  std::unique_ptr<MmapCcsr> mapped;
  CSCE_RETURN_IF_ERROR(MmapCcsr::Open(path, &mapped));
  CSCE_RETURN_IF_ERROR(mapped->ccsr().Validate());
  Ccsr result = mapped->Release();
  mapped.reset();
  result.CopyToHeap();
  *out = std::move(result);
  return Status::OK();
}

// --- CCSR v2 (mmap-able) writer --------------------------------------

namespace {

// Zero-pads `out` from `*pos` up to `target`.
void PadTo(std::ostream& out, uint64_t target, uint64_t* pos) {
  static constexpr char kZeros[4096] = {};
  while (*pos < target) {
    uint64_t n = std::min<uint64_t>(target - *pos, sizeof(kZeros));
    out.write(kZeros, static_cast<std::streamsize>(n));
    *pos += n;
  }
}

void WriteBytes(std::ostream& out, const void* p, uint64_t n, uint64_t* pos) {
  if (n == 0) return;
  out.write(reinterpret_cast<const char*>(p),
            static_cast<std::streamsize>(n));
  *pos += n;
}

// Places one cluster direction's arrays at `*cursor` (V2CsrLayoutOf)
// and returns their directory record.
V2CsrEntry PlaceCsr(const CsrIndex& d, uint64_t* cursor) {
  V2CsrEntry e;
  e.offset = V2AlignUp(*cursor, kV2ArrayAlign);
  e.cols_count = d.cols.size();
  e.max_row_length = d.max_row_length;
  e.ids_count = static_cast<uint32_t>(d.ids.size());
  e.words_count = static_cast<uint32_t>(d.words.size());
  *cursor = V2CsrLayoutOf(e).end;
  return e;
}

// Zero-pads up to `offset` and writes `a` there.
template <typename T>
void WriteArray(std::ostream& out, uint64_t offset, std::span<const T> a,
                uint64_t* pos) {
  PadTo(out, offset, pos);
  WriteBytes(out, a.data(), a.size() * sizeof(T), pos);
}

// Writes the arrays of one direction where PlaceCsr put them.
void WriteCsr(std::ostream& out, const CsrIndex& d, const V2CsrEntry& e,
              uint64_t* pos) {
  const V2CsrLayout l = V2CsrLayoutOf(e);
  WriteArray(out, l.ids, d.ids, pos);
  WriteArray(out, l.offsets, d.offsets, pos);
  WriteArray(out, l.words, d.words, pos);
  WriteArray(out, l.rank, d.rank, pos);
  WriteArray(out, l.cols, d.cols, pos);
}

}  // namespace

Status SaveCcsrToFileV2(const Ccsr& ccsr, const std::string& path) {
  const uint64_t nv = ccsr.NumVertices();
  const bool directed = ccsr.directed();
  Label max_label = 0;
  for (Label l : ccsr.vertex_labels()) max_label = std::max(max_label, l);
  const uint64_t freq_entries = nv == 0 ? 0 : uint64_t{max_label} + 1;

  // Pass 1: lay out the sections and the per-cluster payload blocks.
  V2Header h;
  h.directed = directed ? 1 : 0;
  h.num_vertices = static_cast<uint32_t>(nv);
  h.num_edges = ccsr.NumEdges();
  h.num_clusters = ccsr.NumClusters();
  uint64_t cursor = kV2PageBytes;
  auto place_section = [&cursor](uint64_t length) {
    V2Section s{cursor, length};
    cursor = V2AlignUp(cursor + length, kV2PageBytes);
    return s;
  };
  h.vlabels = place_section(nv * sizeof(Label));
  h.out_degree = place_section(nv * sizeof(uint32_t));
  h.in_degree = place_section(directed ? nv * sizeof(uint32_t) : 0);
  h.vlabel_freq = place_section(freq_entries * sizeof(uint32_t));
  h.lpi_out = place_section(nv * sizeof(uint64_t));
  h.lpi_in = place_section(directed ? nv * sizeof(uint64_t) : 0);
  h.directory = place_section(h.num_clusters * sizeof(V2DirEntry));

  const uint64_t payload_begin = cursor;
  std::vector<V2DirEntry> dir;
  dir.reserve(ccsr.NumClusters());
  for (const CompressedCluster& c : ccsr.clusters()) {
    // Each cluster's block starts on a page boundary (madvise unit);
    // arrays inside are kV2ArrayAlign-aligned.
    V2DirEntry e;
    e.src_label = c.id.src_label;
    e.dst_label = c.id.dst_label;
    e.elabel = c.id.elabel;
    e.directed = c.id.directed ? 1 : 0;
    e.num_edges = c.num_edges;
    e.out = PlaceCsr(c.out, &cursor);
    if (c.id.directed) e.in = PlaceCsr(c.in, &cursor);
    dir.push_back(e);
    cursor = V2AlignUp(cursor, kV2PageBytes);  // next cluster's block
  }
  h.payload = V2Section{payload_begin, cursor - payload_begin};
  h.file_bytes = cursor;

  std::string dir_bytes(dir.size() * sizeof(V2DirEntry), '\0');
  if (!dir.empty()) {
    // V2DirEntry has no padding holes (static_assert'd size), so the
    // struct bytes are fully determined.
    std::memcpy(dir_bytes.data(), dir.data(), dir_bytes.size());
  }
  h.directory_crc32 = util::Crc32(dir_bytes);

  // Pass 2: write.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  uint64_t pos = 0;
  WriteBytes(out, &h, sizeof(h), &pos);
  PadTo(out, kV2PageBytes, &pos);
  WriteBytes(out, ccsr.vertex_labels().data(), h.vlabels.length, &pos);
  PadTo(out, h.out_degree.offset, &pos);
  for (VertexId v = 0; v < nv; ++v) {
    uint32_t d = ccsr.OutDegree(v);
    WriteBytes(out, &d, sizeof(d), &pos);
  }
  if (directed) {
    PadTo(out, h.in_degree.offset, &pos);
    for (VertexId v = 0; v < nv; ++v) {
      uint32_t d = ccsr.InDegree(v);
      WriteBytes(out, &d, sizeof(d), &pos);
    }
  }
  PadTo(out, h.vlabel_freq.offset, &pos);
  for (uint64_t l = 0; l < freq_entries; ++l) {
    uint32_t f = ccsr.LabelFrequency(static_cast<Label>(l));
    WriteBytes(out, &f, sizeof(f), &pos);
  }
  PadTo(out, h.lpi_out.offset, &pos);
  for (VertexId v = 0; v < nv; ++v) {
    uint64_t m = ccsr.OutLabelMask(v);
    WriteBytes(out, &m, sizeof(m), &pos);
  }
  if (directed) {
    PadTo(out, h.lpi_in.offset, &pos);
    for (VertexId v = 0; v < nv; ++v) {
      uint64_t m = ccsr.InLabelMask(v);
      WriteBytes(out, &m, sizeof(m), &pos);
    }
  }
  PadTo(out, h.directory.offset, &pos);
  WriteBytes(out, dir_bytes.data(), dir_bytes.size(), &pos);
  for (size_t i = 0; i < dir.size(); ++i) {
    const CompressedCluster& c = ccsr.clusters()[i];
    WriteCsr(out, c.out, dir[i].out, &pos);
    if (c.id.directed) WriteCsr(out, c.in, dir[i].in, &pos);
  }
  PadTo(out, h.file_bytes, &pos);
  if (!out) return Status::IOError("write failed: " + path);
  out.close();
  if (!out) return Status::IOError("close failed: " + path);
  CSCE_DCHECK(pos == h.file_bytes);
  return Status::OK();
}

}  // namespace csce
