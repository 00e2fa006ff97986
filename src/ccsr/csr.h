#ifndef CSCE_CCSR_CSR_H_
#define CSCE_CCSR_CSR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ccsr/array_view.h"
#include "ccsr/compressed_row.h"
#include "graph/graph.h"

namespace csce {

/// A query-ready, one-direction CSR over the data-graph vertex universe,
/// reconstructed from a CompressedRowIndex at read time (paper: "when
/// reading clusters, we decompress and construct standard CSRs").
///
/// Every index holds the k sorted non-empty vertices and their k+1
/// column offsets, filled by one walk over the RLE runs, so building it
/// costs O(#runs), never O(|V|). Row lookup has two layouts behind one
/// interface:
/// * dense  — clusters touching at least 1/16 of the vertices also get
///   a rank bitmap: one word per 64 vertices (bit v set when v is
///   non-empty) and the count of non-empty vertices before each word.
///   Neighbors(v) is a bit test plus a popcount; O(1). The bitmap has
///   at most k/4 words, since it exists only at >= 1/16 fill.
/// * sparse — binary search over the vertex list; O(log k).
///
/// Columns built from a CompressedRowIndex are borrowed, not copied.
class CsrIndex {
 public:
  CsrIndex() = default;

  /// Decompresses `rows` over `cols` (a cluster's column array, in
  /// memory or mmap'd), which the index aliases instead of copying: the
  /// storage must outlive the index and stay unmodified.
  static CsrIndex FromCompressed(const CompressedRowIndex& rows,
                                 std::span<const VertexId> cols);

  /// Builds directly from arcs sorted by (src, dst); the row runs come
  /// from CompressedRowBuilder and the index owns its columns (used by
  /// tests and benches).
  static CsrIndex FromArcs(uint32_t num_vertices,
                           std::span<const Edge> sorted_arcs);

  /// Neighbors of v in this cluster direction (sorted, unique).
  std::span<const VertexId> Neighbors(VertexId v) const {
    size_t idx;
    if (!words_.empty()) {
      const size_t w = v >> 6;
      if (w >= words_.size()) return {};
      const uint64_t word = words_[w];
      const uint64_t bit = uint64_t{1} << (v & 63);
      if ((word & bit) == 0) return {};
      idx = rank_[w] + PopCount(word & (bit - 1));
    } else {
      auto it = std::lower_bound(vertices_.begin(), vertices_.end(), v);
      if (it == vertices_.end() || *it != v) return {};
      idx = static_cast<size_t>(it - vertices_.begin());
    }
    return {cols_.data() + offsets_[idx], cols_.data() + offsets_[idx + 1]};
  }

  /// True if arc v -> w is present (binary search within v's range).
  bool HasArc(VertexId v, VertexId w) const {
    auto nbrs = Neighbors(v);
    return std::binary_search(nbrs.begin(), nbrs.end(), w);
  }

  uint64_t NumArcs() const { return cols_.size(); }
  /// True when the index has a rank bitmap (the dense layout).
  bool dense() const { return !words_.empty(); }

  /// The distinct vertices with at least one arc, sorted. Copying
  /// convenience used by tests and diagnostics; hot paths use
  /// NonEmptySpan.
  std::vector<VertexId> NonEmptyVertices() const;

  /// Same set without the copy: a view into the index's vertex list.
  /// Valid while the index lives; safe to read from any number of
  /// threads.
  std::span<const VertexId> NonEmptySpan() const { return vertices_; }

  /// Length of the longest neighbor row, computed in the decompression
  /// walk. An upper bound on any intersection result that includes one
  /// of this index's rows — the executor sizes its zero-allocation
  /// scratch buffers from it.
  size_t MaxRowLength() const { return max_row_length_; }

  /// Bytes this index allocated: the row-lookup arrays, plus the
  /// columns only when it owns them (FromArcs). Borrowed columns belong
  /// to the Ccsr and are not counted.
  size_t SizeBytes() const {
    return vertices_.size() * sizeof(VertexId) +
           offsets_.size() * sizeof(uint64_t) +
           words_.size() * sizeof(uint64_t) +
           rank_.size() * sizeof(uint32_t) +
           (cols_.borrowed() ? 0 : cols_.size() * sizeof(VertexId));
  }

 private:
  // Shared tail of FromCompressed and FromArcs: `out` arrives with
  // cols_ already bound (borrowed or owned).
  static CsrIndex FromCompressedRows(const CompressedRowIndex& rows,
                                     CsrIndex out);

  // Set bits of `w`, spelled out so that it inlines: without -mpopcnt
  // (the build targets baseline x86-64) std::popcount is a libgcc call.
  static uint32_t PopCount(uint64_t w) {
    w -= (w >> 1) & 0x5555555555555555ULL;
    w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
    w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<uint32_t>((w * 0x0101010101010101ULL) >> 56);
  }

  std::vector<VertexId> vertices_;  // k sorted non-empty vertices
  std::vector<uint64_t> offsets_;   // k+1 offsets into cols_
  std::vector<uint64_t> words_;     // dense: bit v set iff v non-empty
  std::vector<uint32_t> rank_;      // dense: non-empty vertices before word
  ArrayOrView<VertexId> cols_;      // owned, or a view of cluster columns
  size_t max_row_length_ = 0;
};

}  // namespace csce

#endif  // CSCE_CCSR_CSR_H_
