#ifndef CSCE_PLAN_PATTERN_CONTEXT_H_
#define CSCE_PLAN_PATTERN_CONTEXT_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ccsr/ccsr.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "util/bitset.h"

namespace csce {

/// Everything planning asks about one pattern and the data index,
/// computed once per plan into small pattern-local arrays. GCF, both
/// dependency-DAG builds, LDSF and the constraint compiler read only
/// from it, so the index is asked each data question once: one
/// `Ccsr::Find` per pattern edge and one `Ccsr::HasStarEdges` per
/// distinct pattern label pair (vertex-induced only).
///
/// `data` may be nullptr: every star then counts as non-empty (the
/// conservative answer) and every cluster size is kNoCluster.
class PatternContext {
 public:
  static constexpr uint64_t kNoCluster = std::numeric_limits<uint64_t>::max();

  PatternContext(const Graph& pattern, const Ccsr* data,
                 MatchVariant variant);

  const Graph& pattern() const { return pattern_; }
  const Ccsr* data() const { return data_; }
  MatchVariant variant() const { return variant_; }
  uint32_t NumVertices() const { return pattern_.NumVertices(); }

  /// Pattern neighbors in either direction.
  bool Adjacent(VertexId a, VertexId b) const { return adj_.Test(a, b); }
  /// Pattern arc a -> b (undirected patterns: Adjacent).
  bool HasArc(VertexId a, VertexId b) const {
    return pattern_.directed() ? out_.Test(a, b) : adj_.Test(a, b);
  }

  /// Direction-blind neighbors of v, ascending and unique, with the
  /// smallest data cluster over the pattern arcs between v and each of
  /// them (the paper's |I_C(u_a, u_b)|; aligned with Neighbors(v)).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {nbrs_.data() + nbr_offsets_[v], nbrs_.data() + nbr_offsets_[v + 1]};
  }
  std::span<const uint64_t> NeighborClusterSizes(VertexId v) const {
    return {nbr_cluster_.data() + nbr_offsets_[v],
            nbr_cluster_.data() + nbr_offsets_[v + 1]};
  }

  /// Is there any data edge between the labels of a and b? Always true
  /// without data; only valid for vertex-induced contexts.
  bool StarNonEmpty(VertexId a, VertexId b) const {
    if (data_ == nullptr) return true;
    return star_[label_index_[a] * num_labels_ + label_index_[b]] != 0;
  }

  /// Frequency of v's label: in the data graph when `use_data` and
  /// there is data, else in the pattern (LDSF's last tie-break).
  uint64_t LabelFrequency(VertexId v, bool use_data) const {
    const Label l = pattern_.VertexLabel(v);
    return use_data && data_ != nullptr ? data_->LabelFrequency(l)
                                        : pattern_.LabelFrequency(l);
  }

 private:
  const Graph& pattern_;
  const Ccsr* data_;
  MatchVariant variant_;
  BitMatrix adj_;
  BitMatrix out_;  // directed patterns only
  std::vector<uint32_t> nbr_offsets_;
  std::vector<VertexId> nbrs_;
  std::vector<uint64_t> nbr_cluster_;
  // Dense index over the pattern's distinct labels.
  uint32_t num_labels_ = 0;
  std::vector<uint32_t> label_index_;  // per pattern vertex
  std::vector<uint8_t> star_;          // num_labels_^2, vertex-induced
};

}  // namespace csce

#endif  // CSCE_PLAN_PATTERN_CONTEXT_H_
