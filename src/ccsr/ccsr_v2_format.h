#ifndef CSCE_CCSR_CCSR_V2_FORMAT_H_
#define CSCE_CCSR_CCSR_V2_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "graph/graph.h"

namespace csce {

/// CCSR binary format v2: the one on-disk CCSR artifact, directly
/// mmap-able.
///
/// Every array sits at a fixed, aligned offset recorded in a header-page
/// section table, in exactly the representation queries read (raw
/// Label/uint32_t/uint64_t/VertexId records, little-endian; each
/// cluster direction is a CsrIndex, see csr.h), so a loader can mmap
/// the file, bind spans into the mapping, and be query-ready in
/// O(#clusters) without touching the payload bytes — the OS demand-pages
/// clusters in as enumeration first touches them. Files carrying the
/// retired v1 stream magic (kV1Magic) are rejected by name, and v2
/// files of an older version (version 1 stored RLE row runs) by
/// version; both with the csce_build rebuild hint.
///
/// Layout:
///   [0, 4096)            V2Header (see below), zero-padded to the page
///   vlabels section      num_vertices x Label
///   out_degree section   num_vertices x uint32_t
///   in_degree section    num_vertices x uint32_t (directed only; else empty)
///   vlabel_freq section  (max_label + 1) x uint32_t
///   lpi_out section      num_vertices x uint64_t (label-pair index,
///                        outgoing neighbor-label bitmasks)
///   lpi_in section       num_vertices x uint64_t (directed only; else empty)
///   directory section    num_clusters x V2DirEntry, sorted by ClusterId,
///                        CRC-32 recorded in the header
///   payload              per-cluster blocks, each page-aligned:
///                        out: ids | offsets | words | rank | cols,
///                        then the same for in (directed only);
///                        every array 64-byte aligned (V2CsrLayoutOf)
///
/// Alignment rules:
/// * every section offset is page-aligned (kV2PageBytes) so sections can
///   be madvise'd independently;
/// * each cluster's payload block starts on a page boundary — the unit
///   of WILLNEED/DONTNEED paging advice is a whole cluster;
/// * each array within a block is kV2ArrayAlign-aligned, satisfying the
///   alignment requirement of span<const uint64_t>/span<const VertexId>
///   over the mapped bytes with headroom for vectorized readers.
///
/// All offsets are absolute file offsets in bytes. `file_bytes` pins the
/// total size, so any truncation — even inside the last cluster — is
/// detected before the mapping is handed out.

inline constexpr uint32_t kV1Magic = 0x43435352;  // "CCSR": retired v1, rejected
inline constexpr uint32_t kV2Magic = 0x32525343;  // "CSR2" little-endian
inline constexpr uint32_t kV2Version = 2;
inline constexpr uint64_t kV2PageBytes = 4096;
inline constexpr uint64_t kV2ArrayAlign = 64;

/// Rounds `n` up to the next multiple of `align` (a power of two).
inline constexpr uint64_t V2AlignUp(uint64_t n, uint64_t align) {
  return (n + align - 1) & ~(align - 1);
}

/// One section of the file: an absolute byte offset plus length. A
/// length of zero means the section is absent (offset then equals the
/// position it would have had, keeping offsets monotone).
struct V2Section {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// The fixed-offset file header, stored at offset 0 and padded with
/// zeros to kV2PageBytes. Everything a loader needs for O(1) open —
/// including the label-frequency table location, so no payload scan is
/// ever needed to start planning queries.
struct V2Header {
  uint32_t magic = kV2Magic;
  uint32_t version = kV2Version;
  uint32_t directed = 0;  // 0 or 1
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_clusters = 0;
  uint64_t file_bytes = 0;      // total file size; pins every section
  uint32_t directory_crc32 = 0;  // CRC-32 of the directory section bytes
  uint32_t reserved = 0;
  V2Section vlabels;
  V2Section out_degree;
  V2Section in_degree;
  V2Section vlabel_freq;
  V2Section directory;
  V2Section payload;
  // Label-pair index sections, appended after payload in the header but
  // placed between vlabel_freq and directory in the file.
  V2Section lpi_out;
  V2Section lpi_in;
};

static_assert(std::is_trivially_copyable_v<V2Header>);
static_assert(sizeof(V2Header) == 176, "v2 header layout is on-disk ABI");
static_assert(sizeof(V2Header) <= kV2PageBytes);

/// One cluster direction's arrays (a CsrIndex, see csr.h) in the
/// payload: their counts, in records, and where the first one starts.
/// words_count is CsrBitmapWords(|V|) at or above 1/16 fill
/// (CsrHasBitmap) and 0 below it; the arrays' positions follow from
/// `offset` and the counts (V2CsrLayoutOf), which keeps the directory —
/// CRC'd on every open — small.
struct V2CsrEntry {
  uint64_t offset = 0;  // absolute, kV2ArrayAlign-aligned
  uint64_t cols_count = 0;
  uint64_t max_row_length = 0;
  uint32_t ids_count = 0;
  uint32_t words_count = 0;
};

static_assert(std::is_trivially_copyable_v<V2CsrEntry>);
static_assert(sizeof(V2CsrEntry) == 32, "v2 CSR entry is on-disk ABI");

/// Where the arrays of one direction sit: one after another from
/// `offset`, in the order ids | offsets | words | rank | cols, each
/// kV2ArrayAlign-aligned. The writer and the loader both place arrays
/// with V2CsrLayoutOf.
struct V2CsrLayout {
  uint64_t ids = 0;  // absolute byte offsets
  uint64_t offsets = 0;
  uint64_t words = 0;
  uint64_t rank = 0;
  uint64_t cols = 0;
  uint64_t end = 0;            // one past the last column
  uint64_t offsets_count = 0;  // ids_count + 1, or 0 without rows
};

/// The layout of `e`. Overflow-free for any entry whose ids_count is
/// at most |V| and whose cols_count fits the file.
inline V2CsrLayout V2CsrLayoutOf(const V2CsrEntry& e) {
  V2CsrLayout l;
  l.offsets_count = e.ids_count == 0 ? 0 : uint64_t{e.ids_count} + 1;
  uint64_t at = e.offset;
  auto place = [&at](uint64_t count, uint64_t elem) {
    const uint64_t offset = V2AlignUp(at, kV2ArrayAlign);
    at = offset + count * elem;
    return offset;
  };
  l.ids = place(e.ids_count, sizeof(VertexId));
  l.offsets = place(l.offsets_count, sizeof(uint64_t));
  l.words = place(e.words_count, sizeof(uint64_t));
  l.rank = place(e.words_count, sizeof(uint32_t));
  l.cols = place(e.cols_count, sizeof(VertexId));
  l.end = at;
  return l;
}

/// Fixed-size directory record for one cluster, sorted by ClusterId
/// (src_label, dst_label, elabel, directed ascending) so lookups can
/// binary-search the mapped directory without building a hash index.
/// Undirected clusters leave `in` all zero.
struct V2DirEntry {
  uint32_t src_label = 0;
  uint32_t dst_label = 0;
  uint32_t elabel = 0;
  uint32_t directed = 0;
  uint64_t num_edges = 0;
  V2CsrEntry out;
  V2CsrEntry in;
};

static_assert(std::is_trivially_copyable_v<V2DirEntry>);
static_assert(sizeof(V2DirEntry) == 88, "v2 directory entry is on-disk ABI");

// The payload stores the arrays as the in-memory record types; a format
// change cannot silently diverge from the types spans are bound over.
static_assert(sizeof(VertexId) == 4);
static_assert(sizeof(Label) == 4);

}  // namespace csce

#endif  // CSCE_CCSR_CCSR_V2_FORMAT_H_
