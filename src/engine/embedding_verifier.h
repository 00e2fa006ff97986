#ifndef CSCE_ENGINE_EMBEDDING_VERIFIER_H_
#define CSCE_ENGINE_EMBEDDING_VERIFIER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/csr.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "util/status.h"

namespace csce {

/// Ground-truth re-verification of emitted embeddings — the backend of
/// MatchOptions::self_check. Every emitted mapping is re-checked
/// against the data graph from first principles: vertex labels, the
/// presence of every pattern edge's data arc, injectivity (edge- and
/// vertex-induced), and the absence of extra arcs between non-adjacent
/// pattern vertices (vertex-induced).
///
/// The verifier looks every cluster it needs up in the CCSR itself and
/// reads its rows there, independently of the query's QueryClusters
/// and of any shared ClusterCache, so a wrong cluster handed to the
/// query is caught rather than echoed.
///
/// Verify() is thread-safe (immutable state plus one atomic counter):
/// the morsel-parallel runtime invokes the embedding callback
/// concurrently from its workers.
class EmbeddingVerifier {
 public:
  /// Looks up the clusters of all pattern edges and, for
  /// vertex-induced matching, the "(x,y)*-clusters" of all non-adjacent
  /// pattern vertex pairs. `data` and `pattern` must outlive the
  /// verifier. Requires pattern.directed() == data.directed().
  EmbeddingVerifier(const Ccsr& data, const Graph& pattern,
                    MatchVariant variant);

  EmbeddingVerifier(const EmbeddingVerifier&) = delete;
  EmbeddingVerifier& operator=(const EmbeddingVerifier&) = delete;

  /// Checks one embedding (indexed by pattern vertex). Returns OK and
  /// bumps verified() on success; Corruption describing the first
  /// violated constraint otherwise.
  Status Verify(std::span<const VertexId> mapping) const;

  /// Number of embeddings that passed verification so far.
  uint64_t verified() const {
    return verified_.load(std::memory_order_relaxed);
  }

 private:
  // One ordered (directed) or unordered (undirected) pattern vertex
  // pair that must have no data arc u -> w, plus the slots of the star
  // clusters the forbidden arc could live in.
  struct AntiPair {
    VertexId u;
    VertexId w;
    std::span<const size_t> stars;
  };
  // One pattern edge with the outgoing rows of its cluster (empty: the
  // cluster is absent from the data, so no embedding can contain this
  // edge).
  struct PatternEdge {
    Edge edge;
    CsrIndex out;
  };

  const Ccsr& data_;
  const Graph& pattern_;
  const MatchVariant variant_;
  std::vector<PatternEdge> edges_;
  std::vector<AntiPair> anti_pairs_;
  mutable std::atomic<uint64_t> verified_{0};
};

}  // namespace csce

#endif  // CSCE_ENGINE_EMBEDDING_VERIFIER_H_
