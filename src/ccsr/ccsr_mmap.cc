#include "ccsr/ccsr_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ccsr/ccsr_v2_format.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csce {
namespace {

std::string Errno() { return std::strerror(errno); }

// The `in` record of an undirected cluster: all zero.
constexpr V2CsrEntry kNoCsr{};

// ---------------------------------------------------------------------
// The bounds-checked primitives (mmap-bounded-reads): the ONLY functions
// in the mmap loader allowed to form pointers into the mapped bytes.
// Each one re-validates its range against the file size before casting,
// so every raw access sits next to its bounds check.

// Binds a typed span over `count` records at absolute file offset
// `offset`. Fails (returns false) when the range escapes the file, the
// byte count overflows, or the offset misses `align`.
template <typename T>
CSCE_MAP_PRIMITIVE bool BindSpan(const char* map, uint64_t file_bytes,
                                 uint64_t offset, uint64_t count,
                                 uint64_t align, std::span<const T>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count > file_bytes / sizeof(T)) return false;  // overflow-safe
  uint64_t bytes = count * sizeof(T);
  if (offset > file_bytes || bytes > file_bytes - offset) return false;
  if (align != 0 && offset % align != 0) return false;
  *out = std::span<const T>(reinterpret_cast<const T*>(map + offset),
                            static_cast<size_t>(count));
  return true;
}

// Raw byte view (for the directory CRC). Same bounds contract.
CSCE_MAP_PRIMITIVE bool BindBytes(const char* map, uint64_t file_bytes,
                                  uint64_t offset, uint64_t length,
                                  std::string_view* out) {
  if (offset > file_bytes || length > file_bytes - offset) return false;
  *out = std::string_view(map + offset, static_cast<size_t>(length));
  return true;
}

// Copies the fixed-size header out of the mapping (offset 0; the caller
// verified file_bytes >= kV2PageBytes >= sizeof(V2Header)).
CSCE_MAP_PRIMITIVE void ReadHeader(const char* map, V2Header* out) {
  std::memcpy(out, map, sizeof(*out));
}

// The mapping's first four bytes, or 0 when it is shorter.
CSCE_MAP_PRIMITIVE uint32_t ReadMagic(std::span<const char> image) {
  uint32_t magic = 0;
  if (image.size() >= sizeof(magic)) {
    std::memcpy(&magic, image.data(), sizeof(magic));
  }
  return magic;
}

}  // namespace

/// The mapping of one v2 file and its paging hooks. Mapped indexes
/// (and every cluster of them) co-own it; the last owner unmaps.
class CcsrMapping : public CcsrPager {
 public:
  CcsrMapping(char* map, uint64_t size, const MmapCcsr::Options& options)
      : map_(map), size_(size), options_(options) {}
  ~CcsrMapping() override {
    if (map_ != nullptr) ::munmap(map_, static_cast<size_t>(size_));
  }
  CcsrMapping(const CcsrMapping&) = delete;
  CcsrMapping& operator=(const CcsrMapping&) = delete;

  std::span<const char> bytes() const {
    return {map_, static_cast<size_t>(size_)};
  }

  // One cluster's payload block, rounded out to whole pages: from its
  // first array to its last — the unit of paging advice. Zero length for
  // a cluster without arrays.
  struct Block {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// Installs the clusters' payload blocks (once, before publication).
  void SetBlocks(const Ccsr& ccsr, std::vector<Block> blocks) {
    blocks_ = std::move(blocks);
    for (size_t i = 0; i < blocks_.size(); ++i) {
      block_index_.emplace(ccsr.clusters()[i].id, i);
    }
    MutexLock lock(mu_);
    advised_count_.assign(blocks_.size(), 0);
  }

  uint64_t AdvisedWindowBytes() const {
    MutexLock lock(mu_);
    return advised_bytes_;
  }

  // CcsrPager:
  void AdviseClusters(std::span<const ClusterId> ids) const override;
  void AdviseDone() const override;

 private:
  void Advise(const Block& b, int advice) const;

  // Everything below up to mu_ is written before the mapping is
  // published and read-only afterwards, so it needs no lock.
  // Mutable pointer because madvise takes void*; the mapping itself is
  // PROT_READ and never written.
  char* map_ CSCE_NOT_GUARDED;
  uint64_t size_ CSCE_NOT_GUARDED;
  MmapCcsr::Options options_ CSCE_NOT_GUARDED;
  // Own ClusterId -> block lookup: the index may be mutated (its
  // cluster slots shift), the file's blocks do not.
  std::vector<Block> blocks_ CSCE_NOT_GUARDED;
  std::unordered_map<ClusterId, size_t, ClusterIdHash> block_index_
      CSCE_NOT_GUARDED;

  mutable Mutex mu_;
  // FIFO of advised block indexes, only maintained under a memory cap.
  mutable std::deque<size_t> advised_ CSCE_GUARDED_BY(mu_);
  mutable std::vector<uint32_t> advised_count_ CSCE_GUARDED_BY(mu_);
  mutable uint64_t advised_bytes_ CSCE_GUARDED_BY(mu_) = 0;
};

Status MmapCcsr::Bind(const std::string& path,
                      const std::shared_ptr<CcsrMapping>& mapping,
                      Ccsr* out) {
  const std::span<const char> image = mapping->bytes();
  const char* map = image.data();
  const uint64_t size = image.size();
  // A legacy v1 stream file is named by its magic before the v2 size
  // checks, so even a small one gets the rebuild hint.
  if (ReadMagic(image) == kV1Magic) {
    return Status::Corruption(
        path + ": CCSR v1 stream artifact (magic \"CCSR\"); v1 is no "
        "longer supported — rebuild the index with csce_build, which "
        "writes v2 (magic \"CSR2\")");
  }
  if (size < kV2PageBytes) {
    return Status::Corruption(path + ": " + std::to_string(size) +
                              " bytes, smaller than the v2 header page");
  }
  V2Header header;
  ReadHeader(map, &header);
  if (header.magic != kV2Magic) {
    return Status::Corruption(path + ": bad magic (not a CCSR artifact)");
  }
  if (header.version != kV2Version) {
    return Status::Corruption(
        path + ": unsupported CCSR v2 version " +
        std::to_string(header.version) + ", expected " +
        std::to_string(kV2Version) +
        " — rebuild the index with csce_build");
  }
  if (header.file_bytes != size) {
    return Status::Corruption(
        path + ": file is " + std::to_string(size) +
        " bytes but the header claims " + std::to_string(header.file_bytes) +
        " (truncated or padded artifact)");
  }
  if (header.directed > 1) {
    return Status::Corruption(path + ": directed flag is neither 0 nor 1");
  }
  const uint64_t nv = header.num_vertices;
  const bool directed = header.directed != 0;

  // Section table: every present section page-aligned and inside the
  // file, with the length its record count dictates.
  auto check_section = [&](const V2Section& s, const char* name,
                           uint64_t expect_len) -> Status {
    if (s.length != expect_len) {
      return Status::Corruption(
          path + ": section " + name + " is " + std::to_string(s.length) +
          " bytes, expected " + std::to_string(expect_len));
    }
    if (s.length == 0) return Status::OK();
    if (s.offset % kV2PageBytes != 0) {
      return Status::Corruption(path + ": section " + name +
                                " offset not page-aligned");
    }
    if (s.offset > size || s.length > size - s.offset) {
      return Status::Corruption(path + ": section " + name +
                                " escapes the file");
    }
    return Status::OK();
  };
  CSCE_RETURN_IF_ERROR(
      check_section(header.vlabels, "vlabels", nv * sizeof(Label)));
  CSCE_RETURN_IF_ERROR(
      check_section(header.out_degree, "out_degree", nv * sizeof(uint32_t)));
  CSCE_RETURN_IF_ERROR(check_section(
      header.in_degree, "in_degree", directed ? nv * sizeof(uint32_t) : 0));
  if (header.vlabel_freq.length % sizeof(uint32_t) != 0) {
    return Status::Corruption(path +
                              ": vlabel_freq section not a whole number of "
                              "records");
  }
  CSCE_RETURN_IF_ERROR(check_section(header.vlabel_freq, "vlabel_freq",
                                     header.vlabel_freq.length));
  CSCE_RETURN_IF_ERROR(
      check_section(header.directory, "directory",
                    header.num_clusters * sizeof(V2DirEntry)));
  CSCE_RETURN_IF_ERROR(
      check_section(header.lpi_out, "lpi_out", nv * sizeof(uint64_t)));
  CSCE_RETURN_IF_ERROR(check_section(header.lpi_in, "lpi_in",
                                     directed ? nv * sizeof(uint64_t) : 0));

  // Directory checksum: the directory is the trust root for every raw
  // payload offset, so it gets an integrity check of its own before any
  // entry is interpreted.
  std::string_view dir_bytes;
  if (!BindBytes(map, size, header.directory.offset, header.directory.length,
                 &dir_bytes)) {
    return Status::Corruption(path + ": directory escapes the file");
  }
  if (util::Crc32(dir_bytes) != header.directory_crc32) {
    return Status::Corruption(path + ": cluster directory checksum mismatch");
  }

  // Bind the vertex-level tables.
  Ccsr ccsr;
  std::span<const V2DirEntry> dir;
  if (!BindSpan(map, size, header.vlabels.offset, nv, kV2PageBytes,
                &ccsr.vlabels_) ||
      !BindSpan(map, size, header.out_degree.offset, nv, kV2PageBytes,
                &ccsr.out_degree_) ||
      !BindSpan(map, size, header.in_degree.offset, directed ? nv : 0,
                kV2PageBytes, &ccsr.in_degree_) ||
      !BindSpan(map, size, header.vlabel_freq.offset,
                header.vlabel_freq.length / sizeof(uint32_t), kV2PageBytes,
                &ccsr.vlabel_freq_) ||
      !BindSpan(map, size, header.lpi_out.offset, nv, kV2PageBytes,
                &ccsr.lpi_out_) ||
      !BindSpan(map, size, header.lpi_in.offset, directed ? nv : 0,
                kV2PageBytes, &ccsr.lpi_in_) ||
      !BindSpan(map, size, header.directory.offset, header.num_clusters,
                kV2PageBytes, &dir)) {
    return Status::Corruption(path + ": section table binds out of range");
  }
  ccsr.directed_ = directed;
  ccsr.num_edges_ = header.num_edges;

  // Directory entries: strictly sorted by ClusterId; every array range
  // bounds-checked into the payload section before a span is bound.
  const V2Section& payload = header.payload;
  if (payload.length > 0) {
    CSCE_RETURN_IF_ERROR(check_section(payload, "payload", payload.length));
  }
  auto in_payload = [&](uint64_t offset, uint64_t count,
                        uint64_t elem) -> bool {
    if (count == 0) return true;
    uint64_t bytes = count * elem;  // BindSpan re-checks overflow
    return offset >= payload.offset &&
           offset <= payload.offset + payload.length &&
           bytes <= payload.offset + payload.length - offset;
  };
  // One array of a direction: bounds-checked into the payload, then
  // bound with its directory count as its length.
  auto bind = [&]<typename T>(uint64_t offset, uint64_t count,
                              std::span<const T>* span) -> bool {
    return in_payload(offset, count, sizeof(T)) &&
           BindSpan(map, size, offset, count, kV2ArrayAlign, span);
  };
  // The lengths of one direction's arrays, from the directory alone (no
  // payload page is touched): at most |V| rows, a bitmap exactly at
  // 1/16 fill, columns iff rows and within the file, and a longest row
  // within the columns (the executor sizes buffers from it).
  auto shape_ok = [size, nv](const V2CsrEntry& e) {
    const uint64_t want_words =
        CsrHasBitmap(e.ids_count, nv) ? CsrBitmapWords(nv) : 0;
    return e.ids_count <= nv && e.words_count == want_words &&
           e.cols_count <= size / sizeof(VertexId) &&
           e.max_row_length <= e.cols_count &&
           (e.ids_count == 0) == (e.cols_count == 0);
  };
  // Binds each array with its directory count as its length; shape_ok
  // first, so the layout arithmetic cannot overflow.
  auto bind_csr = [&](const V2CsrEntry& e, CsrIndex* d) -> bool {
    const V2CsrLayout l = V2CsrLayoutOf(e);
    d->max_row_length = e.max_row_length;
    return bind(l.ids, e.ids_count, &d->ids) &&
           bind(l.offsets, l.offsets_count, &d->offsets) &&
           bind(l.words, e.words_count, &d->words) &&
           bind(l.rank, e.words_count, &d->rank) &&
           bind(l.cols, e.cols_count, &d->cols);
  };
  ccsr.clusters_.reserve(dir.size());
  std::vector<CcsrMapping::Block> blocks;
  blocks.reserve(dir.size());
  for (size_t i = 0; i < dir.size(); ++i) {
    const V2DirEntry& e = dir[i];
    ClusterId id{e.src_label, e.dst_label, e.elabel, e.directed != 0};
    if (i > 0 && !(ccsr.clusters_.back().id < id)) {
      return Status::Corruption(path + ": directory not sorted strictly by "
                                "cluster id at entry " + std::to_string(i));
    }
    if (id.directed != directed) {
      return Status::Corruption(path + ": cluster " + id.ToString() +
                                " directedness differs from the header");
    }
    if (!shape_ok(e.out) ||
        !(id.directed ? shape_ok(e.in) : std::memcmp(&e.in, &kNoCsr,
                                                     sizeof(kNoCsr)) == 0)) {
      return Status::Corruption(path + ": cluster " + id.ToString() +
                                " array lengths inconsistent with the "
                                "vertex count");
    }
    CompressedCluster& c = ccsr.clusters_.emplace_back();
    c.id = id;
    c.num_edges = e.num_edges;
    c.storage = mapping;
    if (!bind_csr(e.out, &c.out) || (id.directed && !bind_csr(e.in, &c.in))) {
      return Status::Corruption(path + ": cluster " + id.ToString() +
                                " arrays escape the payload or are "
                                "misaligned");
    }
    // The cluster's page-aligned payload block: from its first array to
    // its last.
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (const V2CsrEntry* d : {&e.out, &e.in}) {
      if (d->ids_count == 0) continue;  // no arrays
      const V2CsrLayout l = V2CsrLayoutOf(*d);
      lo = std::min(lo, l.ids);
      hi = std::max(hi, l.end);
    }
    CcsrMapping::Block& b = blocks.emplace_back();
    if (lo < hi) {
      b.offset = lo - lo % kV2PageBytes;
      b.length = std::min(V2AlignUp(hi, kV2PageBytes), size) - b.offset;
    }
  }
  ccsr.RebuildIndexes();
  mapping->SetBlocks(ccsr, std::move(blocks));
  ccsr.tables_ = mapping;
  *out = std::move(ccsr);
  return Status::OK();
}

Status MmapCcsr::Open(const std::string& path, const Options& options,
                      std::unique_ptr<MmapCcsr>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " + Errno());
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = Errno();
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + err);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  // An empty file cannot be mapped; Bind rejects it as too small.
  void* map = size == 0 ? nullptr
                        : ::mmap(nullptr, static_cast<size_t>(size),
                                 PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    const std::string err = Errno();
    ::close(fd);
    return Status::IOError("mmap " + path + ": " + err);
  }
  ::close(fd);  // the mapping stays valid without the descriptor
  auto mapping = std::make_shared<CcsrMapping>(static_cast<char*>(map),
                                               size, options);
  auto m = std::make_unique<MmapCcsr>(OpenKey{});
  CSCE_RETURN_IF_ERROR(Bind(path, mapping, &m->ccsr_));
  m->ccsr_.pager_ = mapping;
  m->mapping_ = std::move(mapping);
  *out = std::move(m);
  return Status::OK();
}

uint64_t MmapCcsr::AdvisedWindowBytes() const {
  return mapping_->AdvisedWindowBytes();
}

// The one function that turns a block descriptor into a raw mapped
// range (mmap-bounded-reads): offsets/lengths were bounds-checked
// against the file when the blocks were bound.
CSCE_MAP_PRIMITIVE void CcsrMapping::Advise(const Block& b,
                                            int advice) const {
  if (b.length == 0 || map_ == nullptr) return;
  // Paging advice is best-effort by contract; failure (e.g. under
  // memory pressure) only costs performance.
  (void)::madvise(map_ + b.offset, static_cast<size_t>(b.length), advice);
}

void CcsrMapping::AdviseClusters(std::span<const ClusterId> ids) const {
  for (const ClusterId& id : ids) {
    auto it = block_index_.find(id);
    if (it == block_index_.end()) continue;
    const size_t slot = it->second;
    const Block& b = blocks_[slot];
    if (options_.prefetch) Advise(b, MADV_WILLNEED);
    if (options_.memory_cap_bytes == 0) continue;
    MutexLock lock(mu_);
    if (advised_count_[slot]++ == 0) advised_bytes_ += b.length;
    advised_.push_back(slot);
    // FIFO eviction behind the frontier: drop the oldest advised blocks
    // until the window fits the cap. A block stays resident while any
    // in-flight query still has it in its window (the refcount).
    while (advised_bytes_ > options_.memory_cap_bytes && !advised_.empty()) {
      size_t oldest = advised_.front();
      advised_.pop_front();
      if (--advised_count_[oldest] == 0) {
        advised_bytes_ -= blocks_[oldest].length;
        Advise(blocks_[oldest], MADV_DONTNEED);
      }
    }
  }
}

void CcsrMapping::AdviseDone() const {
  if (options_.memory_cap_bytes == 0) return;
  MutexLock lock(mu_);
  while (!advised_.empty()) {
    size_t slot = advised_.front();
    advised_.pop_front();
    if (--advised_count_[slot] == 0) {
      advised_bytes_ -= blocks_[slot].length;
      Advise(blocks_[slot], MADV_DONTNEED);
    }
  }
}

}  // namespace csce
