#ifndef CSCE_CCSR_CSR_H_
#define CSCE_CCSR_CSR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/logging.h"
#include "util/status.h"

namespace csce {

/// True when a row index with `non_empty` of `num_vertices` rows
/// non-empty carries a rank bitmap: at or above 1/16 fill. The bitmap
/// has one word per 64 vertices, so at this fill it holds at most k/4
/// words for k non-empty rows; below it, binary search over the row ids
/// is cheaper than a bitmap proportional to |V|.
inline bool CsrHasBitmap(uint64_t non_empty, uint64_t num_vertices) {
  return num_vertices > 0 && non_empty * 16 >= num_vertices;
}

/// Words of the rank bitmap over `num_vertices` vertices.
inline uint64_t CsrBitmapWords(uint64_t num_vertices) {
  return (num_vertices + 63) / 64;
}

/// One direction of a cluster CSR, stored exactly as queries use it, in
/// memory and in a CCSR v2 artifact alike (paper Section IV's row index
/// without the run-length encoding: every run boundary of the paper's
/// RLE runs is one non-empty vertex, so the sorted non-empty ids and
/// their offsets hold the same information in fewer bytes):
/// * ids     — the k non-empty vertices, strictly increasing;
/// * offsets — k+1 column offsets, 0 first, strictly increasing, the
///   last equal to the column count (no offsets when k == 0);
/// * words/rank — at or above 1/16 fill (CsrHasBitmap) a rank bitmap:
///   bit v of words set iff v is non-empty, rank[w] the number of
///   non-empty vertices before word w; absent below it;
/// * cols    — the neighbor rows, concatenated;
/// * max_row_length — the longest row.
///
/// The arrays are read-only spans: over a CsrBuilder's vectors, or over
/// the mapping of a mapped index. Whoever holds the index keeps that
/// storage alive (a Ccsr co-owns it, see ccsr.h). Validate checks every
/// invariant above; MmapCcsr::Open checks the array lengths.
///
/// Row lookup has two layouts behind one interface:
/// * with a rank bitmap, Neighbors(v) is a bit test plus a popcount;
///   O(1);
/// * without one, a binary search over the row ids; O(log k).
struct CsrIndex {
  std::span<const VertexId> ids;
  std::span<const uint64_t> offsets;
  std::span<const uint64_t> words;
  std::span<const uint32_t> rank;
  std::span<const VertexId> cols;
  uint64_t max_row_length = 0;

  /// Neighbors of v in this cluster direction (sorted, unique).
  std::span<const VertexId> Neighbors(VertexId v) const {
    size_t idx;
    if (!words.empty()) {
      const size_t w = v >> 6;
      if (w >= words.size()) return {};
      const uint64_t word = words[w];
      const uint64_t bit = uint64_t{1} << (v & 63);
      if ((word & bit) == 0) return {};
      idx = rank[w] + PopCount(word & (bit - 1));
    } else {
      auto it = std::lower_bound(ids.begin(), ids.end(), v);
      if (it == ids.end() || *it != v) return {};
      idx = static_cast<size_t>(it - ids.begin());
    }
    return {cols.data() + offsets[idx], cols.data() + offsets[idx + 1]};
  }

  /// True if arc v -> w is present (binary search within v's range).
  bool HasArc(VertexId v, VertexId w) const {
    auto nbrs = Neighbors(v);
    return std::binary_search(nbrs.begin(), nbrs.end(), w);
  }

  /// True when the index has a rank bitmap.
  bool dense() const { return !words.empty(); }

  /// The O(1) check a read makes before it hands out a cluster: the last
  /// offset ends the columns (none when there are no rows), so no row
  /// of an intact offsets array reaches past them.
  bool OffsetsEndAtColumns() const {
    return offsets.empty() ? cols.empty() : offsets.back() == cols.size();
  }

  /// Bytes of the row index: ids, offsets and the rank bitmap.
  size_t RowIndexBytes() const {
    return ids.size() * sizeof(VertexId) + offsets.size() * sizeof(uint64_t) +
           words.size() * sizeof(uint64_t) + rank.size() * sizeof(uint32_t);
  }
  size_t SizeBytes() const {
    return RowIndexBytes() + cols.size() * sizeof(VertexId);
  }

  /// Deep check of every row-index invariant above over a vertex
  /// universe of `num_vertices`, in O(k + bitmap words); the column
  /// contents are the caller's to check. Returns Corruption naming the
  /// first violated invariant.
  Status Validate(uint32_t num_vertices) const;

  /// Equal contents, wherever the arrays live.
  friend bool operator==(const CsrIndex& a, const CsrIndex& b) {
    return std::ranges::equal(a.ids, b.ids) &&
           std::ranges::equal(a.offsets, b.offsets) &&
           std::ranges::equal(a.words, b.words) &&
           std::ranges::equal(a.rank, b.rank) &&
           std::ranges::equal(a.cols, b.cols) &&
           a.max_row_length == b.max_row_length;
  }

 private:
  // Set bits of `w`, spelled out so that it inlines: without -mpopcnt
  // (the build targets baseline x86-64) std::popcount is a libgcc call.
  static uint32_t PopCount(uint64_t w) {
    w -= (w >> 1) & 0x5555555555555555ULL;
    w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
    w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<uint32_t>((w * 0x0101010101010101ULL) >> 56);
  }
};

/// Builds one direction's arrays from arcs arriving sorted by
/// (src, dst), in O(#arcs) plus the bitmap words: a new source opens a
/// row, and Finish() closes the last one and adds the rank bitmap when
/// the fill calls for it. The builder then owns the arrays; Index()
/// spans them.
class CsrBuilder {
 public:
  CsrBuilder() = default;
  /// A finished builder holding exact-size copies of `index`'s arrays.
  explicit CsrBuilder(const CsrIndex& index)
      : ids_(index.ids.begin(), index.ids.end()),
        offsets_(index.offsets.begin(), index.offsets.end()),
        words_(index.words.begin(), index.words.end()),
        rank_(index.rank.begin(), index.rank.end()),
        cols_(index.cols.begin(), index.cols.end()),
        max_row_length_(index.max_row_length) {}

  /// Records arc src -> dst. Arcs must arrive sorted by (src, dst).
  void Add(VertexId src, VertexId dst) {
    if (ids_.empty() || src != ids_.back()) {
      CSCE_DCHECK(ids_.empty() || src > ids_.back());
      CloseRow();
      ids_.push_back(src);
      offsets_.push_back(cols_.size());
    }
    cols_.push_back(dst);
  }

  /// Completes the arrays over `num_vertices` rows; every source added
  /// must be below `num_vertices`. Call once, after the last Add.
  void Finish(uint32_t num_vertices);

  /// Spans over the finished arrays, valid while this builder lives
  /// (moving it keeps them valid: the vectors' buffers move along).
  CsrIndex Index() const {
    return CsrIndex{ids_, offsets_, words_, rank_, cols_, max_row_length_};
  }

 private:
  void CloseRow() {
    if (!offsets_.empty()) {
      max_row_length_ =
          std::max<uint64_t>(max_row_length_, cols_.size() - offsets_.back());
    }
  }

  std::vector<VertexId> ids_;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> words_;
  std::vector<uint32_t> rank_;
  std::vector<VertexId> cols_;
  uint64_t max_row_length_ = 0;
};

}  // namespace csce

#endif  // CSCE_CCSR_CSR_H_
