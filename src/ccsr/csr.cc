#include "ccsr/csr.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace csce {
namespace {

// Below this fill ratio (non-empty vertices / |V|), use the sparse
// layout. Chosen so that a sparse cluster's row storage stays
// proportional to its arc count while big clusters keep O(1) lookup.
constexpr double kDenseThreshold = 1.0 / 16.0;

}  // namespace

CsrIndex CsrIndex::FromCompressed(const CompressedRowIndex& rows,
                                  std::vector<VertexId> cols) {
  CsrIndex out;
  out.cols_ = std::move(cols);
  return FromCompressedRows(rows, std::move(out));
}

CsrIndex CsrIndex::FromCompressed(const CompressedRowIndex& rows,
                                  std::span<const VertexId> cols,
                                  bool borrow) {
  CsrIndex out;
  if (borrow) {
    out.cols_.Borrow(cols);
  } else {
    out.cols_ = std::vector<VertexId>(cols.begin(), cols.end());
  }
  return FromCompressedRows(rows, std::move(out));
}

CsrIndex CsrIndex::FromCompressedRows(const CompressedRowIndex& rows,
                                      CsrIndex out) {
  uint64_t num_vertices = rows.uncompressed_length() - 1;
  // Non-empty vertex count == number of run boundaries.
  size_t non_empty = rows.num_runs() == 0 ? 0 : rows.num_runs() - 1;
  if (num_vertices > 0 &&
      static_cast<double>(non_empty) / static_cast<double>(num_vertices) >=
          kDenseThreshold) {
    out.dense_ = true;
    out.dense_rows_ = rows.Decompress();
  } else {
    out.dense_ = false;
    out.sparse_vertices_.reserve(non_empty);
    out.sparse_rows_.reserve(non_empty + 1);
    out.sparse_rows_.push_back(0);
    rows.ForEachNonEmptyRow([&out](uint64_t v, uint64_t begin, uint64_t end) {
      CSCE_DCHECK(out.sparse_rows_.back() == begin);
      (void)begin;
      out.sparse_vertices_.push_back(static_cast<VertexId>(v));
      out.sparse_rows_.push_back(end);
    });
  }
  out.ComputeRowStats();
  return out;
}

void CsrIndex::ComputeRowStats() {
  max_row_length_ = 0;
  if (dense_) {
    dense_non_empty_.clear();
    for (size_t v = 0; v + 1 < dense_rows_.size(); ++v) {
      uint64_t len = dense_rows_[v + 1] - dense_rows_[v];
      if (len == 0) continue;
      dense_non_empty_.push_back(static_cast<VertexId>(v));
      if (len > max_row_length_) max_row_length_ = static_cast<size_t>(len);
    }
  } else {
    for (size_t i = 0; i + 1 < sparse_rows_.size(); ++i) {
      uint64_t len = sparse_rows_[i + 1] - sparse_rows_[i];
      if (len > max_row_length_) max_row_length_ = static_cast<size_t>(len);
    }
  }
}

CsrIndex CsrIndex::FromArcs(uint32_t num_vertices,
                            std::span<const Edge> sorted_arcs) {
  CompressedRowBuilder rows;
  std::vector<VertexId> cols(sorted_arcs.size());
  for (size_t i = 0; i < sorted_arcs.size(); ++i) {
    CSCE_DCHECK(i == 0 || !(sorted_arcs[i] < sorted_arcs[i - 1]));
    rows.Add(sorted_arcs[i].src);
    cols[i] = sorted_arcs[i].dst;
  }
  return FromCompressed(std::move(rows).Finish(num_vertices), std::move(cols));
}

std::vector<VertexId> CsrIndex::NonEmptyVertices() const {
  std::span<const VertexId> view = NonEmptySpan();
  return std::vector<VertexId>(view.begin(), view.end());
}

}  // namespace csce
