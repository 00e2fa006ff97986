#ifndef CSCE_CCSR_CCSR_H_
#define CSCE_CCSR_CCSR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

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
/// The one cluster record: the Ccsr stores it, and a query's reads
/// (ReadClusters, ClusterCache) hand out const pointers to it. Its
/// arrays are spans over `storage`, which it co-owns: the CsrBuilders
/// of a built, rebuilt or loaded cluster, or the mapping of a mapped
/// index. A pointer to a record is valid
/// while its Ccsr lives unmodified: InsertEdges/RemoveEdges (and
/// destroying or reassigning the Ccsr) invalidate it.
struct CompressedCluster {
  ClusterId id;
  uint64_t num_edges = 0;  // cluster size == |I_C| of one CSR
  CsrIndex out;
  CsrIndex in;  // directed clusters only
  std::shared_ptr<const void> storage;  // what out/in point into

  /// Outgoing cluster-neighbors of v (undirected: all cluster-neighbors).
  std::span<const VertexId> Out(VertexId v) const { return out.Neighbors(v); }
  /// Incoming cluster-neighbors of v (undirected: all cluster-neighbors).
  std::span<const VertexId> In(VertexId v) const {
    return id.directed ? in.Neighbors(v) : out.Neighbors(v);
  }

  /// Arc a -> b present? (undirected: edge {a,b} present?)
  bool HasArc(VertexId a, VertexId b) const { return out.HasArc(a, b); }

  /// Distinct arc sources (undirected: all cluster vertices), sorted;
  /// the cluster's own row ids, safe to read concurrently.
  std::span<const VertexId> Sources() const { return out.ids; }
  /// Distinct arc targets, sorted (same lifetime contract).
  std::span<const VertexId> Targets() const {
    return id.directed ? in.ids : out.ids;
  }

  /// Longest Out(v) / In(v) row — upper bounds for intersection results
  /// that include a row of this cluster (executor scratch sizing).
  size_t MaxOutRowLength() const { return out.max_row_length; }
  size_t MaxInRowLength() const {
    return id.directed ? in.max_row_length : out.max_row_length;
  }

  /// Both directions' last offsets end their columns (CsrIndex::
  /// OffsetsEndAtColumns): the O(1) check a read makes per cluster.
  bool OffsetsEndAtColumns() const {
    return out.OffsetsEndAtColumns() && in.OffsetsEndAtColumns();
  }

  size_t SizeBytes() const { return out.SizeBytes() + in.SizeBytes(); }
};

/// Paging hooks behind a mapped Ccsr (implemented by the mapping an
/// MmapCcsr opens). The matcher calls these with the plan's cluster
/// access order so the kernel can prefetch (madvise WILLNEED) the
/// clusters enumeration is about to touch and, under a memory cap, drop
/// (madvise DONTNEED) clusters behind the frontier. All methods must be
/// thread-safe; for an in-memory Ccsr there is no pager and the hooks
/// are no-ops.
class CcsrPager {
 public:
  virtual ~CcsrPager() = default;
  virtual void AdviseClusters(std::span<const ClusterId> ids) const = 0;
  virtual void AdviseDone() const = 0;
};

/// G_C: the complete clustered-CSR representation of a data graph,
/// built offline. Replaces the raw graph (the paper drops G after
/// clustering), so it also carries the vertex labels.
///
/// Storage: every array is a read-only span, and the Ccsr co-owns what
/// the spans point into through shared_ptr handles. There are three
/// owners:
/// * Build, and clusters rebuilt by InsertEdges/RemoveEdges: the
///   CsrBuilder vectors, kept exactly as built;
/// * LoadCcsrFromFile: exact-size heap copies of a mapped artifact's
///   arrays, made after Validate; the mapping is then dropped;
/// * MmapCcsr::Open: the mapping itself.
/// So a Ccsr is valid on its own whatever made it, outlives the MmapCcsr
/// it came from, and copies in O(#clusters) by sharing its immutable
/// storage. Mutation is copy-on-write: it rebuilds the touched clusters
/// and the vertex tables into fresh heap arrays and drops its handles on
/// the replaced ones (freed once no copy shares them); a file the index
/// came from is never written.
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
  Label VertexLabel(VertexId v) const { return vlabels_[v]; }
  std::span<const Label> vertex_labels() const { return vlabels_; }
  uint32_t LabelFrequency(Label l) const {
    return l < vlabel_freq_.size() ? vlabel_freq_[l] : 0;
  }

  /// Per-vertex degrees of the original graph, kept for candidate
  /// degree filtering (for undirected graphs in == out == degree).
  uint32_t OutDegree(VertexId v) const { return out_degree_[v]; }
  uint32_t InDegree(VertexId v) const {
    return directed_ ? in_degree_[v] : out_degree_[v];
  }

  /// Label-pair index (prune pass "lpi"): per-vertex bitmask of the
  /// vertex labels reachable over one outgoing (resp. incoming) edge,
  /// folded modulo 64 (`1 << (label & 63)`), so the filter is
  /// conservative for label alphabets wider than 64. For undirected
  /// graphs in == out. Derived from the clusters, rebuilt on every
  /// mutation, persisted as CCSR v2 sections.
  uint64_t OutLabelMask(VertexId v) const { return lpi_out_[v]; }
  uint64_t InLabelMask(VertexId v) const {
    return directed_ ? lpi_in_[v] : lpi_out_[v];
  }
  static uint64_t LabelBit(Label l) { return uint64_t{1} << (l & 63); }

  /// True when this index was opened over an mmap'd v2 artifact
  /// (MmapCcsr); it co-owns the mapping and its pager.
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
  /// the affected clusters (copy-on-write, also for a loaded or mapped
  /// index). Endpoints must be existing vertices; edge
  /// direction follows the graph's. Idempotent: already-present edges
  /// are ignored. Degrees and statistics are kept consistent.
  Status InsertEdges(const std::vector<Edge>& edges);

  /// Removes edges; every edge must be present (NotFound otherwise,
  /// with the index unchanged). Emptied clusters are dropped.
  Status RemoveEdges(const std::vector<Edge>& edges);

  /// Deep structural validation (O(|E| + |V|), no allocation per arc):
  /// per-cluster row-index invariants (CsrIndex::Validate) and
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
  friend class MmapCcsr;  // binds an index over its mapping
  friend Status LoadCcsrFromFile(const std::string& path, Ccsr* out);

  // The vertex tables of a built or mutated index, in heap memory.
  struct Tables;

  void RebuildIndexes();
  /// Binds the vertex-table spans to `t` and co-owns it, with the
  /// label-pair index recomputed from the clusters. Called by Build, by
  /// every mutation (which copies the tables it changes) and by
  /// CopyToHeap; a mapped index binds its tables into the mapping.
  void AdoptTables(Tables t);
  /// Replaces every array with an exact-size heap copy and drops the
  /// handles on the old storage and the pager, so a mapping it was
  /// bound over is released (LoadCcsrFromFile).
  void CopyToHeap();

  bool directed_ = false;
  uint64_t num_edges_ = 0;
  std::span<const Label> vlabels_;
  std::span<const uint32_t> vlabel_freq_;
  std::span<const uint32_t> out_degree_;
  std::span<const uint32_t> in_degree_;  // empty for undirected graphs
  std::span<const uint64_t> lpi_out_;    // label-pair index, see OutLabelMask
  std::span<const uint64_t> lpi_in_;     // empty for undirected graphs
  // What the vertex-table spans point into: a Tables, or the mapping.
  std::shared_ptr<const void> tables_;
  // Null for an in-memory index; a mapped index's paging hooks, which
  // the index co-owns with the mapping they advise.
  std::shared_ptr<const CcsrPager> pager_;
  std::vector<CompressedCluster> clusters_;
  std::unordered_map<ClusterId, size_t, ClusterIdHash> index_;
  // (min label, max label) -> cluster indices, for negation lookups.
  std::unordered_map<uint64_t, std::vector<size_t>> star_index_;
};

class ClusterCache;

/// G_C^*: the clusters one query needs (Algorithm 1), as pointers to
/// the Ccsr's own records, in flat arrays searched by binary search.
/// Valid while that Ccsr lives unmodified (see CompressedCluster); each
/// query reads into a fresh one.
class QueryClusters {
 public:
  /// nullptr: the cluster is empty or unregistered; no edge can match.
  const CompressedCluster* Find(const ClusterId& id) const;

  /// The "(a,b)*-clusters" for negation checks (empty if unregistered).
  std::span<const CompressedCluster* const> Star(Label a, Label b) const;

  size_t NumViews() const { return views_.size(); }
  /// Bytes the reads decompressed: always 0, since a read hands out the
  /// Ccsr's own records. Kept as the zero point of the benchmark's
  /// `ccsr.decompressed_bytes` record.
  size_t DecompressedBytes() const { return 0; }

 private:
  friend Status ReadClustersImpl(const Ccsr&, const Graph&, MatchVariant,
                                 ClusterCache*, QueryClusters*);

  // Registered clusters in slot order, which is ClusterId order: every
  // storage model keeps Ccsr::clusters() strictly sorted by id.
  std::vector<const CompressedCluster*> views_;
  // Registered label pairs with star clusters by (min, max) label key;
  // pair i's are star_views_[star_ends_[i - 1], star_ends_[i]).
  std::vector<uint64_t> star_keys_;
  std::vector<size_t> star_ends_;
  std::vector<const CompressedCluster*> star_views_;
};

/// Algorithm 1 (ReadCSR): selects the clusters needed to match
/// `pattern` under `variant`. For vertex-induced
/// matching this additionally loads the negation clusters between
/// not-fully-connected pattern vertex pairs. Requires
/// pattern.directed() == gc.directed().
/// `out` must be empty (a fresh QueryClusters): clusters already in it
/// would be reused as they are, whatever index they came from. A
/// cluster whose offsets do not end at its columns (a damaged mapped
/// artifact that skipped Validate) fails the read with Corruption.
Status ReadClusters(const Ccsr& gc, const Graph& pattern, MatchVariant variant,
                    QueryClusters* out);

}  // namespace csce

#endif  // CSCE_CCSR_CCSR_H_
