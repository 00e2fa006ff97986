#include "ccsr/csr.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace csce {
namespace {

// At or above this fill ratio (non-empty vertices / |V|), an index also
// gets the rank bitmap for O(1) lookup. The bitmap has one word per 64
// vertices, so at this fill it holds at most k/4 words for k non-empty
// vertices; below it, binary search over the vertex list is cheaper
// than a bitmap proportional to |V|.
constexpr double kDenseThreshold = 1.0 / 16.0;

}  // namespace

CsrIndex CsrIndex::FromCompressed(const CompressedRowIndex& rows,
                                  std::span<const VertexId> cols) {
  CsrIndex out;
  out.cols_.Borrow(cols);
  return FromCompressedRows(rows, std::move(out));
}

CsrIndex CsrIndex::FromCompressedRows(const CompressedRowIndex& rows,
                                      CsrIndex out) {
  const uint64_t num_vertices =
      rows.uncompressed_length() == 0 ? 0 : rows.uncompressed_length() - 1;
  // Non-empty vertex count == number of run boundaries.
  const size_t non_empty = rows.num_runs() == 0 ? 0 : rows.num_runs() - 1;
  const bool dense =
      num_vertices > 0 &&
      static_cast<double>(non_empty) / static_cast<double>(num_vertices) >=
          kDenseThreshold;
  out.vertices_.reserve(non_empty);
  out.offsets_.reserve(non_empty + 1);
  out.offsets_.push_back(0);
  if (dense) out.words_.assign((num_vertices + 63) / 64, 0);
  std::vector<uint64_t>& words = out.words_;
  size_t max_len = 0;
  rows.ForEachNonEmptyRow([&](uint64_t v, uint64_t begin, uint64_t end) {
    CSCE_DCHECK(out.offsets_.back() == begin);
    out.vertices_.push_back(static_cast<VertexId>(v));
    out.offsets_.push_back(end);
    max_len = std::max(max_len, static_cast<size_t>(end - begin));
    // The bound check keeps a damaged run count (mapped clusters are
    // not deep-validated on open) from writing past the bitmap.
    if (dense && (v >> 6) < words.size()) {
      words[v >> 6] |= uint64_t{1} << (v & 63);
    }
  });
  out.max_row_length_ = max_len;
  if (dense) {
    out.rank_.resize(words.size());
    uint32_t before = 0;
    for (size_t w = 0; w < words.size(); ++w) {
      out.rank_[w] = before;
      before += PopCount(words[w]);
    }
  }
  return out;
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
  CsrIndex out;
  out.cols_ = std::move(cols);
  return FromCompressedRows(std::move(rows).Finish(num_vertices),
                            std::move(out));
}

std::vector<VertexId> CsrIndex::NonEmptyVertices() const {
  return std::vector<VertexId>(vertices_.begin(), vertices_.end());
}

}  // namespace csce
