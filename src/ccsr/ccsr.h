#ifndef CSCE_CCSR_CCSR_H_
#define CSCE_CCSR_CCSR_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ccsr/array_view.h"
#include "ccsr/cluster_id.h"
#include "ccsr/csr.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "util/status.h"

namespace csce {

/// One edge-isomorphism cluster in CSR form. Directed clusters carry
/// two CSRs — outgoing (src -> dst) and incoming (dst -> src) — so both
/// neighbor directions are O(1)/O(log k) at query time; undirected
/// clusters store each edge in both orientations in a single CSR (paper
/// Section IV).
///
/// The arrays are heap vectors for an in-memory (mutable) index and
/// read-only spans into the mapping for a CCSR v2 artifact opened
/// through MmapCcsr; a ClusterView is a set of spans over them in both
/// cases.
struct CompressedCluster {
  ClusterId id;
  uint64_t num_edges = 0;  // cluster size == |I_C| of one CSR
  CsrArrays out;
  CsrArrays in;  // directed clusters only

  size_t SizeBytes() const { return out.SizeBytes() + in.SizeBytes(); }
};

/// Paging hooks behind a mapped Ccsr (implemented by MmapCcsr). The
/// matcher calls these with the plan's cluster access order so the
/// kernel can prefetch (madvise WILLNEED) the clusters enumeration is
/// about to touch and, under a memory cap, drop (madvise DONTNEED)
/// clusters behind the frontier. All methods must be thread-safe; for
/// an in-memory Ccsr there is no pager and the hooks are no-ops.
class CcsrPager {
 public:
  virtual ~CcsrPager() = default;
  virtual void AdviseClusters(std::span<const ClusterId> ids) const = 0;
  virtual void AdviseDone() const = 0;
};

/// A query-ready cluster: spans over the cluster's arrays, built in
/// O(1) with no allocation. Valid only while the Ccsr it was read from
/// lives unmodified: InsertEdges/RemoveEdges (and destroying or
/// reassigning the Ccsr) invalidate every view of it.
class ClusterView {
 public:
  explicit ClusterView(const CompressedCluster& c)
      : id_(c.id), num_edges_(c.num_edges), out_(c.out), in_(c.in) {}

  const ClusterId& id() const { return id_; }
  uint64_t NumEdges() const { return num_edges_; }

  /// Outgoing cluster-neighbors of v (undirected: all cluster-neighbors).
  std::span<const VertexId> Out(VertexId v) const { return out_.Neighbors(v); }
  /// Incoming cluster-neighbors of v (undirected: all cluster-neighbors).
  std::span<const VertexId> In(VertexId v) const {
    return id_.directed ? in_.Neighbors(v) : out_.Neighbors(v);
  }

  /// Arc a -> b present? (undirected: edge {a,b} present?)
  bool HasArc(VertexId a, VertexId b) const { return out_.HasArc(a, b); }

  /// Distinct arc sources (undirected: all cluster vertices), sorted.
  /// A view into the cluster's row ids — no copy; valid while the view
  /// lives and safe to read concurrently.
  std::span<const VertexId> Sources() const { return out_.NonEmptySpan(); }
  /// Distinct arc targets, sorted (same lifetime contract).
  std::span<const VertexId> Targets() const {
    return id_.directed ? in_.NonEmptySpan() : out_.NonEmptySpan();
  }

  /// Longest Out(v) / In(v) row — upper bounds for intersection results
  /// that include a row of this cluster (executor scratch sizing).
  size_t MaxOutRowLength() const { return out_.MaxRowLength(); }
  size_t MaxInRowLength() const {
    return id_.directed ? in_.MaxRowLength() : out_.MaxRowLength();
  }

  /// Both directions' last offsets end their columns (CsrIndex::
  /// OffsetsEndAtColumns): the O(1) check a read makes per view.
  bool OffsetsEndAtColumns() const {
    return out_.OffsetsEndAtColumns() && in_.OffsetsEndAtColumns();
  }

 private:
  ClusterId id_;
  uint64_t num_edges_;
  CsrIndex out_;
  CsrIndex in_;  // empty for undirected clusters
};

/// G_C: the complete clustered-CSR representation of a data graph,
/// built offline. Replaces the raw graph (the paper drops G after
/// clustering), so it also carries the vertex labels.
class Ccsr {
 public:
  Ccsr() = default;

  /// Clusters all edges of `g` (offline stage, O(|E| log |E|)).
  static Ccsr Build(const Graph& g);

  bool directed() const { return directed_; }
  uint32_t NumVertices() const {
    return static_cast<uint32_t>(vlabels_.size());
  }
  uint64_t NumEdges() const { return num_edges_; }
  Label VertexLabel(VertexId v) const { return vlabels_.span()[v]; }
  std::span<const Label> vertex_labels() const { return vlabels_.span(); }
  uint32_t LabelFrequency(Label l) const {
    std::span<const uint32_t> freq = vlabel_freq_.span();
    return l < freq.size() ? freq[l] : 0;
  }

  /// Per-vertex degrees of the original graph, kept for candidate
  /// degree filtering (for undirected graphs in == out == degree).
  uint32_t OutDegree(VertexId v) const { return out_degree_.span()[v]; }
  uint32_t InDegree(VertexId v) const {
    return directed_ ? in_degree_.span()[v] : out_degree_.span()[v];
  }

  /// Label-pair index (prune pass "lpi"): per-vertex bitmask of the
  /// vertex labels reachable over one outgoing (resp. incoming) edge,
  /// folded modulo 64 (`1 << (label & 63)`), so the filter is
  /// conservative for label alphabets wider than 64. For undirected
  /// graphs in == out. Derived from the clusters, rebuilt on every
  /// mutation, persisted as CCSR v2 sections.
  uint64_t OutLabelMask(VertexId v) const { return lpi_out_.span()[v]; }
  uint64_t InLabelMask(VertexId v) const {
    return directed_ ? lpi_in_.span()[v] : lpi_out_.span()[v];
  }
  static uint64_t LabelBit(Label l) { return uint64_t{1} << (l & 63); }

  /// True when this index is a view over an mmap'd v2 artifact. Mapped
  /// indexes are immutable (InsertEdges/RemoveEdges refuse) and valid
  /// only while the owning MmapCcsr lives.
  bool mapped() const { return pager_ != nullptr; }

  /// Plan-driven paging hints; no-ops for in-memory indexes. The
  /// matcher passes the clusters the matching order will touch, in
  /// order, before reading them, and calls AdviseQueryDone once
  /// enumeration finishes (under a memory cap this drops the advised
  /// window). Correctness never depends on these: madvise only moves
  /// page-cache residency.
  void AdviseQueryClusters(std::span<const ClusterId> ids) const {
    if (pager_ != nullptr) pager_->AdviseClusters(ids);
  }
  void AdviseQueryDone() const {
    if (pager_ != nullptr) pager_->AdviseDone();
  }

  /// Deep-copies any borrowed (mmap-backed) storage into owned heap
  /// memory and detaches from the pager, making the index independent
  /// of the mapping's lifetime. No-op for in-memory indexes.
  void EnsureOwnedStorage();

  size_t NumClusters() const { return clusters_.size(); }
  const std::vector<CompressedCluster>& clusters() const { return clusters_; }

  /// The cluster with this identifier, or nullptr (== empty cluster).
  const CompressedCluster* Find(const ClusterId& id) const;

  /// Size (edge count) of a cluster; 0 if the cluster is empty/absent.
  /// Used by the planner's tie-breaking without reading any rows.
  uint64_t ClusterSize(const ClusterId& id) const {
    const CompressedCluster* c = Find(id);
    return c == nullptr ? 0 : c->num_edges;
  }

  /// The paper's "(x,y)*-clusters": the slots in clusters() of every
  /// cluster connecting vertex labels {a,b}, regardless of edge label or
  /// direction. A view into the index; valid until the next mutation.
  std::span<const size_t> StarClusters(Label a, Label b) const;

  /// Is there any data edge between vertex labels a and b, in either
  /// direction and under any edge label? (A negation between pattern
  /// vertices with these labels is vacuous otherwise.)
  bool HasStarEdges(Label a, Label b) const;

  /// Total compressed footprint in bytes.
  size_t CompressedSizeBytes() const;

  /// Online maintenance: inserts edges into the index, rebuilding only
  /// the affected clusters. Endpoints must be existing vertices; edge
  /// direction follows the graph's. Idempotent: already-present edges
  /// are ignored. Degrees and statistics are kept consistent.
  Status InsertEdges(const std::vector<Edge>& edges);

  /// Removes edges; every edge must be present (NotFound otherwise,
  /// with the index unchanged). Emptied clusters are dropped.
  Status RemoveEdges(const std::vector<Edge>& edges);

  /// Deep structural validation (O(|E| + |V|), no allocation per arc):
  /// per-cluster row-index invariants (CsrArrays::Validate) and
  /// row/column consistency, sorted-unique adjacency,
  /// endpoint-label homogeneity against the cluster identifier,
  /// incoming CSR == transpose of outgoing (directed) / symmetry
  /// (undirected), and globally that the clusters partition the data
  /// edges exhaustively and disjointly (edge totals and per-vertex
  /// degree sums match the stored degree tables), that the statistics
  /// tables are consistent, and that the lookup indexes cover every
  /// cluster. Used by the corruption tests, `--self-check`, and the
  /// CCSR artifact loader.
  Status Validate() const;

 private:
  friend class MmapCcsr;

  void RebuildIndexes();
  /// Recomputes lpi_out_/lpi_in_ from the clusters (O(total non-empty
  /// rows)). Called wherever cluster contents change; the mmap loader
  /// borrows the artifact's persisted sections instead.
  void BuildLabelMasks();

  bool directed_ = false;
  uint64_t num_edges_ = 0;
  ArrayOrView<Label> vlabels_;
  ArrayOrView<uint32_t> vlabel_freq_;
  ArrayOrView<uint32_t> out_degree_;
  ArrayOrView<uint32_t> in_degree_;  // empty for undirected graphs
  ArrayOrView<uint64_t> lpi_out_;    // label-pair index, see OutLabelMask
  ArrayOrView<uint64_t> lpi_in_;     // empty for undirected graphs
  // Null for in-memory indexes; a mapped index's paging hooks, owned by
  // the MmapCcsr the arrays alias (so it outlives every borrowed span).
  const CcsrPager* pager_ = nullptr;
  std::vector<CompressedCluster> clusters_;
  std::unordered_map<ClusterId, size_t, ClusterIdHash> index_;
  // (min label, max label) -> cluster indices, for negation lookups.
  std::unordered_map<uint64_t, std::vector<size_t>> star_index_;
};

class ClusterCache;

/// G_C^*: the cluster views one query needs (Algorithm 1). Valid while
/// the Ccsr it was read from lives unmodified (see ClusterView); each
/// query reads into a fresh one.
class QueryClusters {
 public:
  /// nullptr means the cluster is empty: no data edge can match.
  const ClusterView* Find(const ClusterId& id) const;

  /// The "(a,b)*-cluster" views for negation checks (may be empty).
  const std::vector<const ClusterView*>& Star(Label a, Label b) const;

  size_t NumViews() const { return views_.size(); }
  /// Bytes the reads decompressed: always 0, since a view is spans over
  /// the Ccsr's own arrays. Kept as the zero point of the benchmark's
  /// `ccsr.decompressed_bytes` record.
  size_t DecompressedBytes() const { return 0; }

 private:
  friend Status ReadClustersImpl(const Ccsr&, const Graph&, MatchVariant,
                                 ClusterCache*, QueryClusters*);

  // Node-based, so the Star pointers into it stay valid as it grows.
  std::unordered_map<ClusterId, ClusterView, ClusterIdHash> views_;
  std::unordered_map<uint64_t, std::vector<const ClusterView*>> star_;
};

/// Algorithm 1 (ReadCSR): selects the clusters needed to match
/// `pattern` under `variant` and views them. For vertex-induced
/// matching this additionally loads the negation clusters between
/// not-fully-connected pattern vertex pairs. Requires
/// pattern.directed() == gc.directed().
/// `out` must be empty (a fresh QueryClusters): views already in it
/// would be reused as they are, whatever index they came from. A view
/// whose offsets do not end at its columns (a damaged mapped artifact
/// that skipped Validate) fails the read with Corruption.
Status ReadClusters(const Ccsr& gc, const Graph& pattern, MatchVariant variant,
                    QueryClusters* out);

}  // namespace csce

#endif  // CSCE_CCSR_CCSR_H_
