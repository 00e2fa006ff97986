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
/// Two physical layouts behind one interface:
/// * dense  — the standard row-index array of length |V|+1; O(1) lookup.
///   Used when the cluster touches a large fraction of vertices.
/// * sparse — sorted list of non-empty vertices plus their ranges;
///   O(log k) lookup. Used for small clusters so that reading a query's
///   clusters never costs O(|V|) memory per cluster (this is the
///   practical fix for the row-array blowup the paper's RLE targets).
class CsrIndex {
 public:
  CsrIndex() = default;

  /// Decompresses `rows` + takes the column array. `num_vertices` is the
  /// data graph vertex count (rows.uncompressed_length() - 1).
  static CsrIndex FromCompressed(const CompressedRowIndex& rows,
                                 std::vector<VertexId> cols);

  /// Same, over a column array the index does not own. With
  /// borrow=false the columns are copied; with borrow=true the index
  /// aliases `cols` (an mmap'd v2 cluster payload), which must outlive
  /// it — the zero-copy path for demand-paged clusters.
  static CsrIndex FromCompressed(const CompressedRowIndex& rows,
                                 std::span<const VertexId> cols, bool borrow);

  /// Builds directly from arcs sorted by (src, dst); the row runs come
  /// from CompressedRowBuilder, with no |V|+1 array unless the result
  /// is dense (used by tests and benches).
  static CsrIndex FromArcs(uint32_t num_vertices,
                           std::span<const Edge> sorted_arcs);

  /// Neighbors of v in this cluster direction (sorted, unique).
  std::span<const VertexId> Neighbors(VertexId v) const {
    if (dense_) {
      if (v + 1 >= dense_rows_.size()) return {};
      return {cols_.data() + dense_rows_[v], cols_.data() + dense_rows_[v + 1]};
    }
    // Binary search in the sparse vertex list.
    auto it = std::lower_bound(sparse_vertices_.begin(),
                               sparse_vertices_.end(), v);
    if (it == sparse_vertices_.end() || *it != v) return {};
    size_t idx = static_cast<size_t>(it - sparse_vertices_.begin());
    return {cols_.data() + sparse_rows_[idx],
            cols_.data() + sparse_rows_[idx + 1]};
  }

  /// True if arc v -> w is present (binary search within v's range).
  bool HasArc(VertexId v, VertexId w) const {
    auto nbrs = Neighbors(v);
    return std::binary_search(nbrs.begin(), nbrs.end(), w);
  }

  uint64_t NumArcs() const { return cols_.size(); }
  bool dense() const { return dense_; }

  /// The distinct vertices with at least one arc, sorted. Copying
  /// convenience used by tests and diagnostics; hot paths use
  /// NonEmptySpan.
  std::vector<VertexId> NonEmptyVertices() const;

  /// Same set without the copy: a view into index-owned storage,
  /// precomputed at decompress time (the sparse layout's vertex list,
  /// or a dedicated array for dense clusters). Valid while the index
  /// lives; safe to read from any number of threads.
  std::span<const VertexId> NonEmptySpan() const {
    return dense_ ? std::span<const VertexId>(dense_non_empty_)
                  : std::span<const VertexId>(sparse_vertices_);
  }

  /// Length of the longest neighbor row, precomputed at decompress
  /// time. An upper bound on any intersection result that includes one
  /// of this index's rows — the executor sizes its zero-allocation
  /// scratch buffers from it.
  size_t MaxRowLength() const { return max_row_length_; }

  /// Approximate working-set footprint in bytes (borrowed columns count
  /// too: the pages are resident while a query walks them).
  size_t SizeBytes() const {
    return dense_rows_.size() * sizeof(uint64_t) +
           sparse_vertices_.size() * sizeof(VertexId) +
           sparse_rows_.size() * sizeof(uint64_t) +
           dense_non_empty_.size() * sizeof(VertexId) +
           cols_.size() * sizeof(VertexId);
  }

 private:
  // Shared tail of the FromCompressed overloads: `out` arrives with
  // cols_ already bound (owned or borrowed).
  static CsrIndex FromCompressedRows(const CompressedRowIndex& rows,
                                     CsrIndex out);

  void ComputeRowStats();

  bool dense_ = true;
  std::vector<uint64_t> dense_rows_;       // dense layout: |V|+1 offsets
  std::vector<VertexId> sparse_vertices_;  // sparse layout: sorted vertices
  std::vector<uint64_t> sparse_rows_;      // sparse layout: k+1 offsets
  std::vector<VertexId> dense_non_empty_;  // dense layout: sorted vertices
  ArrayOrView<VertexId> cols_;  // owned, or a view into an mmap'd cluster
  size_t max_row_length_ = 0;
};

}  // namespace csce

#endif  // CSCE_CCSR_CSR_H_
