#include "ccsr/ccsr.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>

#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "ccsr/cluster_cache.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace csce {
namespace {

struct CcsrMetrics {
  obs::Counter builds;
  obs::Gauge clusters;
  obs::Gauge compressed_bytes;
  obs::Gauge raw_csr_bytes;
  obs::Gauge row_index_bytes;

  static const CcsrMetrics& Get() {
    static const CcsrMetrics m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return CcsrMetrics{r.counter("ccsr.builds"),
                         r.gauge("ccsr.clusters"),
                         r.gauge("ccsr.compressed_bytes"),
                         r.gauge("ccsr.raw_csr_bytes"),
                         r.gauge("ccsr.row_index_bytes")};
    }();
    return m;
  }
};

uint64_t LabelPairKey(Label a, Label b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Recomputes the label-pair index (per-vertex neighboring-label
// bitmasks) from the clusters, O(total non-empty rows). Shared by
// Ccsr::AdoptTables and the Validate cross-check so a drifting
// persisted table cannot agree with a drifting rebuild.
void ComputeLabelMasks(const std::vector<CompressedCluster>& clusters,
                       std::span<const Label> vlabels, bool directed,
                       std::vector<uint64_t>* out_masks,
                       std::vector<uint64_t>* in_masks) {
  out_masks->assign(vlabels.size(), 0);
  in_masks->assign(directed ? vlabels.size() : 0, 0);
  for (const CompressedCluster& c : clusters) {
    if (c.id.directed) {
      const uint64_t dst_bit = Ccsr::LabelBit(c.id.dst_label);
      for (VertexId v : c.out.ids) (*out_masks)[v] |= dst_bit;
      const uint64_t src_bit = Ccsr::LabelBit(c.id.src_label);
      for (VertexId v : c.in.ids) (*in_masks)[v] |= src_bit;
    } else {
      // Undirected cluster {a,b}: a vertex with a non-empty row has
      // label a or b; its cluster-neighbors carry the other label.
      const uint64_t a_bit = Ccsr::LabelBit(c.id.src_label);
      const uint64_t b_bit = Ccsr::LabelBit(c.id.dst_label);
      for (VertexId v : c.out.ids) {
        (*out_masks)[v] |= vlabels[v] == c.id.src_label ? b_bit : a_bit;
      }
    }
  }
}

// The arrays of one built or rebuilt cluster: each direction's rows
// grow as its arcs stream in, in (src, dst) order. Once finished, the
// builders are the cluster's storage (CompressedCluster::storage).
struct ClusterBuild {
  CsrBuilder out;
  CsrBuilder in;
};

// Finishes `b` over `num_vertices` rows and makes it the storage of
// cluster `c`, whose id and num_edges the caller sets.
void AdoptClusterBuild(uint32_t num_vertices, std::shared_ptr<ClusterBuild> b,
                       CompressedCluster* c) {
  b->out.Finish(num_vertices);
  c->out = b->out.Index();
  c->in = CsrIndex();
  if (c->id.directed) {
    b->in.Finish(num_vertices);
    c->in = b->in.Index();
  }
  c->storage = std::move(b);
}

// Publishes the index-shape gauges for `ccsr`: cluster count, bytes of
// the stored representation vs a per-cluster CSR with a full |V|+1 row
// array (8 bytes an offset), and the bytes of the row indexes alone.
void PublishCcsrGauges(const Ccsr& ccsr) {
  const uint64_t full_rows = (uint64_t{ccsr.NumVertices()} + 1) *
                             sizeof(uint64_t);
  uint64_t raw_bytes = ccsr.vertex_labels().size() * sizeof(Label);
  uint64_t row_index_bytes = 0;
  for (const CompressedCluster& c : ccsr.clusters()) {
    for (const CsrIndex* d : {&c.out, &c.in}) {
      if (d == &c.in && !c.id.directed) continue;
      raw_bytes += full_rows + d->cols.size() * sizeof(VertexId);
      row_index_bytes += d->RowIndexBytes();
    }
  }
  const CcsrMetrics& m = CcsrMetrics::Get();
  m.clusters.Set(static_cast<double>(ccsr.NumClusters()));
  m.compressed_bytes.Set(static_cast<double>(ccsr.CompressedSizeBytes()));
  m.raw_csr_bytes.Set(static_cast<double>(raw_bytes));
  m.row_index_bytes.Set(static_cast<double>(row_index_bytes));
}

// Is the unordered pattern pair {a,b} fully connected, i.e. does no
// negation constraint exist between them? For undirected patterns that
// means the edge exists; for directed, both arc directions exist.
bool FullyConnected(const Graph& pattern, VertexId a, VertexId b) {
  if (!pattern.directed()) return pattern.HasEdge(a, b);
  return pattern.HasEdge(a, b) && pattern.HasEdge(b, a);
}

// Test-suite hook (CSCE_CCSR_MMAP=1, the CI mmap leg): round-trip the
// freshly built index through a v2 artifact and replace it with the
// mapped index, which co-owns the mapping; the file is unlinked once
// mapped. Every Build call site in the suite becomes a serialization +
// mapping cross-check, running over mapped pages (mutation included,
// copy-on-write) — a v2 layout or span-binding bug surfaces as ordinary
// test failures instead of only in the mmap tests.
void MaybeMmapRoundTrip(Ccsr* out) {
  static const bool enabled = [] {
    const char* env = std::getenv("CSCE_CCSR_MMAP");
    return env != nullptr && std::strcmp(env, "1") == 0;
  }();
  if (!enabled) return;
  static std::atomic<uint64_t> counter{0};
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp") +
      "/csce_mmap_roundtrip." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1)) + ".ccsr";
  Status st = SaveCcsrToFileV2(*out, path);
  CSCE_CHECK(st.ok());
  std::unique_ptr<MmapCcsr> mapped;
  st = MmapCcsr::Open(path, &mapped);
  CSCE_CHECK(st.ok());
  std::remove(path.c_str());
  *out = mapped->Release();
}

}  // namespace

struct Ccsr::Tables {
  std::vector<Label> vlabels;
  std::vector<uint32_t> vlabel_freq;
  std::vector<uint32_t> out_degree;
  std::vector<uint32_t> in_degree;
  std::vector<uint64_t> lpi_out;
  std::vector<uint64_t> lpi_in;

  Tables() = default;
  // A heap copy of `g`'s tables, for a mutation to change or for
  // CopyToHeap; AdoptTables recomputes the label-pair masks.
  explicit Tables(const Ccsr& g)
      : vlabels(g.vlabels_.begin(), g.vlabels_.end()),
        vlabel_freq(g.vlabel_freq_.begin(), g.vlabel_freq_.end()),
        out_degree(g.out_degree_.begin(), g.out_degree_.end()),
        in_degree(g.in_degree_.begin(), g.in_degree_.end()) {}
};

Ccsr Ccsr::Build(const Graph& g) {
  obs::Span span("ccsr.build");
  Ccsr out;
  out.directed_ = g.directed();
  out.num_edges_ = g.NumEdges();
  Tables tables;
  tables.vlabels = g.vertex_labels();

  Label max_label = 0;
  for (Label l : tables.vlabels) max_label = std::max(max_label, l);
  tables.vlabel_freq.assign(tables.vlabels.empty() ? 0 : max_label + 1, 0);
  for (Label l : tables.vlabels) ++tables.vlabel_freq[l];

  tables.out_degree.resize(g.NumVertices());
  if (g.directed()) tables.in_degree.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    tables.out_degree[v] = g.OutDegree(v);
    if (g.directed()) tables.in_degree[v] = g.InDegree(v);
  }

  // Bucket arcs by cluster identifier in one pass over the adjacency.
  // Each edge goes into exactly one cluster and is stored twice: as an
  // outgoing and an incoming arc (directed), or as both orientations in
  // the one CSR (undirected, whose adjacency lists every edge at both
  // endpoints). Adjacency is sorted by (neighbor, elabel) and rows are
  // walked in ascending vertex order, so every bucket receives its arcs
  // sorted by (src, dst) and needs no sort.
  std::unordered_map<ClusterId, ClusterBuild, ClusterIdHash> buckets;
  const uint32_t n = g.NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    const Label lv = g.VertexLabel(v);
    for (const Neighbor& w : g.OutNeighbors(v)) {
      const Label lw = g.VertexLabel(w.v);
      buckets[g.directed() ? ClusterId::Directed(lv, lw, w.elabel)
                           : ClusterId::Undirected(lv, lw, w.elabel)]
          .out.Add(v, w.v);
    }
    if (!g.directed()) continue;
    // Incoming CSR: row v lists the sources of the arcs into v.
    for (const Neighbor& u : g.InNeighbors(v)) {
      buckets[ClusterId::Directed(g.VertexLabel(u.v), lv, u.elabel)].in.Add(
          v, u.v);
    }
  }

  out.clusters_.reserve(buckets.size());
  for (auto& [id, b] : buckets) {
    CompressedCluster cluster;
    cluster.id = id;
    AdoptClusterBuild(n, std::make_shared<ClusterBuild>(std::move(b)),
                      &cluster);
    cluster.num_edges =
        id.directed ? cluster.out.cols.size() : cluster.out.cols.size() / 2;
    out.clusters_.push_back(std::move(cluster));
  }

  // Deterministic cluster order (unordered_map iteration is not).
  std::sort(out.clusters_.begin(), out.clusters_.end(),
            [](const CompressedCluster& a, const CompressedCluster& b) {
              return a.id < b.id;
            });
  out.RebuildIndexes();
  out.AdoptTables(std::move(tables));
  MaybeMmapRoundTrip(&out);
  CcsrMetrics::Get().builds.Increment();
  PublishCcsrGauges(out);
  return out;
}

void Ccsr::RebuildIndexes() {
  index_.clear();
  star_index_.clear();
  for (size_t i = 0; i < clusters_.size(); ++i) {
    const ClusterId& id = clusters_[i].id;
    index_.emplace(id, i);
    star_index_[LabelPairKey(id.src_label, id.dst_label)].push_back(i);
  }
}

void Ccsr::AdoptTables(Tables t) {
  ComputeLabelMasks(clusters_, t.vlabels, directed_, &t.lpi_out, &t.lpi_in);
  auto owned = std::make_shared<const Tables>(std::move(t));
  vlabels_ = owned->vlabels;
  vlabel_freq_ = owned->vlabel_freq;
  out_degree_ = owned->out_degree;
  in_degree_ = owned->in_degree;
  lpi_out_ = owned->lpi_out;
  lpi_in_ = owned->lpi_in;
  tables_ = std::move(owned);
}

void Ccsr::CopyToHeap() {
  for (CompressedCluster& c : clusters_) {
    auto b = std::make_shared<ClusterBuild>(CsrBuilder(c.out),
                                            CsrBuilder(c.in));
    c.out = b->out.Index();
    c.in = b->in.Index();
    c.storage = std::move(b);
  }
  AdoptTables(Tables(*this));
  pager_ = nullptr;
}

const CompressedCluster* Ccsr::Find(const ClusterId& id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &clusters_[it->second];
}

std::span<const size_t> Ccsr::StarClusters(Label a, Label b) const {
  auto it = star_index_.find(LabelPairKey(a, b));
  if (it == star_index_.end()) return {};
  return it->second;
}

bool Ccsr::HasStarEdges(Label a, Label b) const {
  for (size_t i : StarClusters(a, b)) {
    if (clusters_[i].num_edges > 0) return true;
  }
  return false;
}

namespace {

// A cluster's arc list, from its outgoing CSR, sorted by (src, dst).
std::vector<Edge> ArcsOf(const CompressedCluster& c) {
  std::vector<Edge> arcs;
  arcs.reserve(c.out.cols.size());
  for (size_t i = 0; i < c.out.ids.size(); ++i) {
    for (uint64_t k = c.out.offsets[i]; k < c.out.offsets[i + 1]; ++k) {
      arcs.push_back(Edge{c.out.ids[i], c.out.cols[k], c.id.elabel});
    }
  }
  return arcs;
}

// Rebuilds a cluster's CSR(s) from a sorted arc list into fresh
// arrays, dropping the cluster's handle on its old ones.
void RebuildCluster(uint32_t num_vertices, std::vector<Edge> arcs,
                    CompressedCluster* c) {
  c->num_edges = c->id.directed ? arcs.size() : arcs.size() / 2;
  auto b = std::make_shared<ClusterBuild>();
  for (const Edge& a : arcs) b->out.Add(a.src, a.dst);
  if (c->id.directed) {
    for (Edge& a : arcs) std::swap(a.src, a.dst);
    std::sort(arcs.begin(), arcs.end());
    for (const Edge& a : arcs) b->in.Add(a.src, a.dst);
  }
  AdoptClusterBuild(num_vertices, std::move(b), c);
}

}  // namespace

Status Ccsr::InsertEdges(const std::vector<Edge>& edges) {
  // Group new arcs by cluster.
  std::unordered_map<ClusterId, std::vector<Edge>, ClusterIdHash> delta;
  for (const Edge& e : edges) {
    if (e.src >= NumVertices() || e.dst >= NumVertices()) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (e.src == e.dst) return Status::InvalidArgument("self-loop");
    Label ls = vlabels_[e.src];
    Label ld = vlabels_[e.dst];
    if (directed_) {
      delta[ClusterId::Directed(ls, ld, e.elabel)].push_back(e);
    } else {
      auto& bucket = delta[ClusterId::Undirected(ls, ld, e.elabel)];
      bucket.push_back(e);
      bucket.push_back(Edge{e.dst, e.src, e.elabel});
    }
  }

  Tables tables(*this);
  bool structure_changed = false;
  for (auto& [id, new_arcs] : delta) {
    std::vector<Edge> arcs;
    CompressedCluster* cluster = nullptr;
    auto it = index_.find(id);
    if (it != index_.end()) {
      cluster = &clusters_[it->second];
      arcs = ArcsOf(*cluster);
    }
    std::sort(new_arcs.begin(), new_arcs.end());
    new_arcs.erase(std::unique(new_arcs.begin(), new_arcs.end()),
                   new_arcs.end());
    size_t before = arcs.size();
    std::vector<Edge> merged;
    merged.reserve(arcs.size() + new_arcs.size());
    std::set_union(arcs.begin(), arcs.end(), new_arcs.begin(),
                   new_arcs.end(), std::back_inserter(merged));
    if (merged.size() == before) continue;  // all duplicates

    // Degree + edge-count accounting for the genuinely new arcs.
    std::vector<Edge> added;
    std::set_difference(merged.begin(), merged.end(), arcs.begin(),
                        arcs.end(), std::back_inserter(added));
    for (const Edge& a : added) {
      ++tables.out_degree[a.src];
      if (directed_) ++tables.in_degree[a.dst];
    }
    num_edges_ += id.directed ? added.size() : added.size() / 2;

    if (cluster == nullptr) {
      clusters_.push_back(CompressedCluster{});
      cluster = &clusters_.back();
      cluster->id = id;
      structure_changed = true;
    }
    RebuildCluster(NumVertices(), std::move(merged), cluster);
  }
  if (structure_changed) {
    std::sort(clusters_.begin(), clusters_.end(),
              [](const CompressedCluster& a, const CompressedCluster& b) {
                return a.id < b.id;
              });
  }
  RebuildIndexes();
  AdoptTables(std::move(tables));
  PublishCcsrGauges(*this);
  return Status::OK();
}

Status Ccsr::RemoveEdges(const std::vector<Edge>& edges) {
  std::unordered_map<ClusterId, std::vector<Edge>, ClusterIdHash> delta;
  for (const Edge& e : edges) {
    if (e.src >= NumVertices() || e.dst >= NumVertices()) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    Label ls = vlabels_[e.src];
    Label ld = vlabels_[e.dst];
    if (directed_) {
      delta[ClusterId::Directed(ls, ld, e.elabel)].push_back(e);
    } else {
      auto& bucket = delta[ClusterId::Undirected(ls, ld, e.elabel)];
      bucket.push_back(e);
      bucket.push_back(Edge{e.dst, e.src, e.elabel});
    }
  }

  // Validate first so a failed call leaves the index untouched.
  for (auto& [id, gone_arcs] : delta) {
    std::sort(gone_arcs.begin(), gone_arcs.end());
    gone_arcs.erase(std::unique(gone_arcs.begin(), gone_arcs.end()),
                    gone_arcs.end());
    auto it = index_.find(id);
    if (it == index_.end()) {
      return Status::NotFound("no cluster " + id.ToString());
    }
    std::vector<Edge> arcs = ArcsOf(clusters_[it->second]);
    if (!std::includes(arcs.begin(), arcs.end(), gone_arcs.begin(),
                       gone_arcs.end())) {
      return Status::NotFound("edge not present in " + id.ToString());
    }
  }

  Tables tables(*this);
  bool structure_changed = false;
  for (const auto& [id, gone_arcs] : delta) {
    size_t slot = index_.at(id);
    std::vector<Edge> arcs = ArcsOf(clusters_[slot]);
    std::vector<Edge> remaining;
    remaining.reserve(arcs.size() - gone_arcs.size());
    std::set_difference(arcs.begin(), arcs.end(), gone_arcs.begin(),
                        gone_arcs.end(), std::back_inserter(remaining));
    for (const Edge& a : gone_arcs) {
      --tables.out_degree[a.src];
      if (directed_) --tables.in_degree[a.dst];
    }
    num_edges_ -= id.directed ? gone_arcs.size() : gone_arcs.size() / 2;
    if (remaining.empty()) {
      clusters_.erase(clusters_.begin() + static_cast<ptrdiff_t>(slot));
      structure_changed = true;
      RebuildIndexes();  // slots shifted; refresh before the next lookup
    } else {
      RebuildCluster(NumVertices(), std::move(remaining), &clusters_[slot]);
    }
  }
  if (structure_changed) {
    std::sort(clusters_.begin(), clusters_.end(),
              [](const CompressedCluster& a, const CompressedCluster& b) {
                return a.id < b.id;
              });
  }
  RebuildIndexes();
  AdoptTables(std::move(tables));
  PublishCcsrGauges(*this);
  return Status::OK();
}

namespace {

// Deep check of one direction of a cluster's CSR: the row-index
// invariants (CsrIndex::Validate), then every row's vertex range,
// sorted-unique neighbors and endpoint-label homogeneity.
Status ValidateClusterDirection(const CompressedCluster& c, bool incoming,
                                std::span<const Label> vlabels) {
  const CsrIndex& d = incoming ? c.in : c.out;
  const std::string where =
      c.id.ToString() + (incoming ? " incoming" : " outgoing");
  // Directed clusters orient (src_label, dst_label) along the arc; the
  // incoming CSR stores reversed arcs, so the roles swap. Undirected
  // clusters only require the unordered label pair to match.
  const Label expect_src = incoming ? c.id.dst_label : c.id.src_label;
  const Label expect_dst = incoming ? c.id.src_label : c.id.dst_label;

  const uint32_t n = static_cast<uint32_t>(vlabels.size());
  if (Status st = d.Validate(n); !st.ok()) {
    return Status::Corruption(where + ": " + st.message());
  }
  // d.Validate() makes the walk below safe: ids are below |V| and the
  // offsets rise strictly from 0 to the column count.
  for (size_t i = 0; i < d.ids.size(); ++i) {
    const VertexId v = d.ids[i];
    if (vlabels[v] != expect_src) {
      if (c.id.directed || (vlabels[v] != c.id.src_label &&
                            vlabels[v] != c.id.dst_label)) {
        return Status::Corruption(where + ": vertex " + std::to_string(v) +
                                  " has label " + std::to_string(vlabels[v]) +
                                  ", not an endpoint label of the cluster");
      }
    }
    VertexId prev = kInvalidVertex;
    for (uint64_t k = d.offsets[i]; k < d.offsets[i + 1]; ++k) {
      VertexId w = d.cols[k];
      if (w >= n) {
        return Status::Corruption(where + ": neighbor " + std::to_string(w) +
                                  " of vertex " + std::to_string(v) +
                                  " out of range");
      }
      if (prev != kInvalidVertex && w <= prev) {
        return Status::Corruption(where + ": neighbors of vertex " +
                                  std::to_string(v) +
                                  " not sorted strictly increasing");
      }
      prev = w;
      Label lw = vlabels[w];
      bool label_ok =
          c.id.directed
              ? lw == expect_dst
              // Undirected: the arc's unordered label pair must be the
              // cluster's pair (either orientation).
              : ((vlabels[v] == c.id.src_label && lw == c.id.dst_label) ||
                 (vlabels[v] == c.id.dst_label && lw == c.id.src_label));
      if (!label_ok) {
        return Status::Corruption(
            where + ": arc (" + std::to_string(v) + ", " + std::to_string(w) +
            ") labels (" + std::to_string(vlabels[v]) + ", " +
            std::to_string(lw) + ") do not match the cluster id");
      }
    }
  }
  return Status::OK();
}

// Is `to` exactly the transpose of `from` (both validated: sorted,
// unique rows)? Walking `from`'s arcs u -> w by ascending u meets the
// sources of each w in ascending order, the order of `to`'s row of w,
// so every arc must match the next unmatched entry of that row, and
// every row of `to` must be used up at the end: a bijection, found by
// one merge walk in O(arcs). `next`/`end` are per-vertex cursors into
// `to`'s rows, all 0 on entry and on return.
bool IsTranspose(const CsrIndex& to, const CsrIndex& from,
                 std::vector<uint64_t>* next, std::vector<uint64_t>* end) {
  for (size_t i = 0; i < to.ids.size(); ++i) {
    (*next)[to.ids[i]] = to.offsets[i];
    (*end)[to.ids[i]] = to.offsets[i + 1];
  }
  bool match = true;
  for (size_t i = 0; match && i < from.ids.size(); ++i) {
    for (uint64_t k = from.offsets[i]; k < from.offsets[i + 1]; ++k) {
      uint64_t& p = (*next)[from.cols[k]];
      if (p == (*end)[from.cols[k]] || to.cols[p] != from.ids[i]) {
        match = false;
        break;
      }
      ++p;
    }
  }
  for (VertexId w : to.ids) {
    match = match && (*next)[w] == (*end)[w];
    (*next)[w] = (*end)[w] = 0;
  }
  return match;
}

}  // namespace

Status Ccsr::Validate() const {
  const uint32_t n = NumVertices();

  // Statistics tables.
  if (out_degree_.size() != n) {
    return Status::Corruption("out-degree table has " +
                              std::to_string(out_degree_.size()) +
                              " entries for " + std::to_string(n) +
                              " vertices");
  }
  if (directed_ ? in_degree_.size() != n : !in_degree_.empty()) {
    return Status::Corruption("in-degree table size inconsistent with "
                              "graph directedness");
  }
  Label max_label = 0;
  for (Label l : vlabels_) max_label = std::max(max_label, l);
  if (vlabel_freq_.size() != (n == 0 ? 0 : size_t{max_label} + 1)) {
    return Status::Corruption("label frequency table has wrong size");
  }
  std::vector<uint32_t> freq(vlabel_freq_.size(), 0);
  for (Label l : vlabels_) ++freq[l];
  if (!std::ranges::equal(freq, vlabel_freq_)) {
    return Status::Corruption("label frequency table does not match the "
                              "vertex labels");
  }

  // Lookup indexes: clusters sorted strictly by id (hence unique), both
  // indexes exhaustive.
  if (index_.size() != clusters_.size()) {
    return Status::Corruption("cluster index has " +
                              std::to_string(index_.size()) +
                              " entries for " +
                              std::to_string(clusters_.size()) + " clusters");
  }
  for (size_t i = 0; i < clusters_.size(); ++i) {
    const ClusterId& id = clusters_[i].id;
    if (i > 0 && !(clusters_[i - 1].id < id)) {
      return Status::Corruption("clusters not sorted strictly by id at slot " +
                                std::to_string(i));
    }
    auto it = index_.find(id);
    if (it == index_.end() || it->second != i) {
      return Status::Corruption("cluster index entry missing or stale for " +
                                id.ToString());
    }
    std::span<const size_t> star = StarClusters(id.src_label, id.dst_label);
    if (std::ranges::find(star, i) == star.end()) {
      return Status::Corruption("star index misses " + id.ToString());
    }
  }

  // Per-cluster structure plus global partition accounting. Clusters
  // are disjoint over (src, dst, elabel) triples by construction once
  // each is internally consistent: homogeneity pins the endpoint labels
  // to the id, ids are unique, and neighbor lists are strictly sorted —
  // so exhaustiveness reduces to the edge totals and per-vertex arc
  // counts matching the stored degree tables.
  uint64_t total_edges = 0;
  std::vector<uint64_t> out_count(n, 0);
  std::vector<uint64_t> in_count(n, 0);
  std::vector<uint64_t> next(n, 0);  // IsTranspose's cursors
  std::vector<uint64_t> end(n, 0);
  for (const CompressedCluster& c : clusters_) {
    if (c.id.directed != directed_) {
      return Status::Corruption("cluster " + c.id.ToString() +
                                " directedness differs from the graph");
    }
    if (!directed_ && c.id.src_label > c.id.dst_label) {
      return Status::Corruption("undirected cluster " + c.id.ToString() +
                                " label pair not canonicalized");
    }
    CSCE_RETURN_IF_ERROR(
        ValidateClusterDirection(c, /*incoming=*/false, vlabels_));
    const uint64_t out_arcs = c.out.cols.size();
    uint64_t expected_arcs = directed_ ? c.num_edges : 2 * c.num_edges;
    if (out_arcs != expected_arcs) {
      return Status::Corruption(
          c.id.ToString() + ": size " + std::to_string(c.num_edges) +
          " inconsistent with " + std::to_string(out_arcs) +
          " stored arcs");
    }
    if (directed_) {
      CSCE_RETURN_IF_ERROR(
          ValidateClusterDirection(c, /*incoming=*/true, vlabels_));
      // The incoming CSR must be exactly the transpose of the outgoing.
      if (!IsTranspose(c.in, c.out, &next, &end)) {
        return Status::Corruption(c.id.ToString() +
                                  ": incoming CSR is not the transpose of "
                                  "the outgoing CSR");
      }
      for (VertexId w : c.out.cols) ++in_count[w];
    } else {
      if (c.in.SizeBytes() != 0 || c.in.max_row_length != 0) {
        return Status::Corruption(c.id.ToString() +
                                  ": undirected cluster carries an incoming "
                                  "CSR");
      }
      // Undirected clusters store each edge in both orientations in the
      // single CSR: the arc set must be symmetric.
      if (!IsTranspose(c.out, c.out, &next, &end)) {
        return Status::Corruption(c.id.ToString() +
                                  ": undirected cluster arcs are not "
                                  "symmetric");
      }
    }
    for (size_t i = 0; i < c.out.ids.size(); ++i) {
      out_count[c.out.ids[i]] += c.out.offsets[i + 1] - c.out.offsets[i];
    }
    total_edges += c.num_edges;
  }

  if (total_edges != num_edges_) {
    return Status::Corruption(
        "clusters hold " + std::to_string(total_edges) +
        " edges in total, index claims " + std::to_string(num_edges_) +
        " (partition not exhaustive/disjoint)");
  }
  for (VertexId v = 0; v < n; ++v) {
    if (out_count[v] != out_degree_[v]) {
      return Status::Corruption(
          "vertex " + std::to_string(v) + ": clusters hold " +
          std::to_string(out_count[v]) + " outgoing arcs, degree table says " +
          std::to_string(out_degree_[v]));
    }
    if (directed_ && in_count[v] != in_degree_[v]) {
      return Status::Corruption(
          "vertex " + std::to_string(v) + ": clusters hold " +
          std::to_string(in_count[v]) + " incoming arcs, degree table says " +
          std::to_string(in_degree_[v]));
    }
  }

  // Label-pair index, recomputed by walking every cluster's row ids —
  // so only after the per-cluster checks above have proven every id
  // below |V| (a damaged id would otherwise index past the mask tables).
  if (lpi_out_.size() != n ||
      (directed_ ? lpi_in_.size() != n : !lpi_in_.empty())) {
    return Status::Corruption("label-pair index size inconsistent with the "
                              "vertex count");
  }
  {
    std::vector<uint64_t> expect_out;
    std::vector<uint64_t> expect_in;
    ComputeLabelMasks(clusters_, vlabels_, directed_, &expect_out,
                      &expect_in);
    if (!std::ranges::equal(expect_out, lpi_out_) ||
        !std::ranges::equal(expect_in, lpi_in_)) {
      return Status::Corruption("label-pair index does not match the "
                                "clusters");
    }
  }
  return Status::OK();
}

size_t Ccsr::CompressedSizeBytes() const {
  size_t total = vlabels_.size() * sizeof(Label);
  for (const CompressedCluster& c : clusters_) total += c.SizeBytes();
  return total;
}

const CompressedCluster* QueryClusters::Find(const ClusterId& id) const {
  auto it = std::partition_point(
      views_.begin(), views_.end(),
      [&id](const CompressedCluster* c) { return c->id < id; });
  return it != views_.end() && (*it)->id == id ? *it : nullptr;
}

std::span<const CompressedCluster* const> QueryClusters::Star(
    Label a, Label b) const {
  const uint64_t key = LabelPairKey(a, b);
  auto it = std::lower_bound(star_keys_.begin(), star_keys_.end(), key);
  if (it == star_keys_.end() || *it != key) return {};
  const size_t i = static_cast<size_t>(it - star_keys_.begin());
  const size_t begin = i == 0 ? 0 : star_ends_[i - 1];
  return std::span(star_views_).subspan(begin, star_ends_[i] - begin);
}

Status ReadClustersImpl(const Ccsr& gc, const Graph& pattern,
                        MatchVariant variant, ClusterCache* cache,
                        QueryClusters* out) {
  if (pattern.directed() != gc.directed()) {
    return Status::InvalidArgument(
        "pattern and data graph directedness differ");
  }
  // A reused QueryClusters would hand back clusters of whatever index
  // it was filled from.
  CSCE_DCHECK(out->views_.empty() && out->star_keys_.empty());
  const CompressedCluster* clusters = gc.clusters().data();
  std::vector<const CompressedCluster*>& views = out->views_;

  // Lines 2-11: clusters of edges isomorphic to pattern edges.
  pattern.ForEachEdge([&](const Edge& e) {
    const CompressedCluster* c = gc.Find(ClusterId::ForPatternEdge(pattern, e));
    if (c != nullptr) views.push_back(c);
    // Empty cluster: Find() later returns nullptr -> zero embeddings
    // for the whole query; the engine short-circuits.
  });

  // Lines 12-18: negation clusters for vertex-induced matching. We load
  // them for every pattern pair that is not fully connected (for
  // directed patterns a single-direction edge still leaves the reverse
  // direction to negate). A dense matrix over the pattern's sorted
  // labels marks each negated label pair once, skipping the adjacency
  // test of an already-marked pair; it is then read in key order.
  if (variant == MatchVariant::kVertexInduced) {
    const uint32_t n = pattern.NumVertices();
    std::vector<Label> labels(pattern.vertex_labels());
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    const size_t k = labels.size();
    std::vector<size_t> index(n);
    for (VertexId v = 0; v < n; ++v) {
      index[v] = static_cast<size_t>(
          std::lower_bound(labels.begin(), labels.end(),
                           pattern.VertexLabel(v)) -
          labels.begin());
    }
    std::vector<uint8_t> negated(k * k, 0);
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = a + 1; b < n; ++b) {
        const size_t lo = std::min(index[a], index[b]);
        const size_t hi = std::max(index[a], index[b]);
        if (negated[lo * k + hi] == 0 && !FullyConnected(pattern, a, b)) {
          negated[lo * k + hi] = 1;
        }
      }
    }
    for (size_t i = 0; i < k * k; ++i) {  // row-major: ascending keys
      if (negated[i] == 0) continue;
      std::span<const size_t> star =
          gc.StarClusters(labels[i / k], labels[i % k]);
      if (star.empty()) continue;
      for (size_t slot : star) out->star_views_.push_back(&clusters[slot]);
      out->star_keys_.push_back(LabelPairKey(labels[i / k], labels[i % k]));
      out->star_ends_.push_back(out->star_views_.size());
    }
  }

  // Each cluster once, in slot order (the pointers all point into
  // Ccsr::clusters()): O(m log m) in the m clusters read, not O(#index
  // clusters) as a bitmap over slots would be. The shared cache counts
  // each; one whose offsets do not end at its columns fails the read.
  views.insert(views.end(), out->star_views_.begin(), out->star_views_.end());
  std::sort(views.begin(), views.end());
  views.erase(std::unique(views.begin(), views.end()), views.end());
  for (const CompressedCluster* c : views) {
    if (cache != nullptr) cache->Get(c->id);
    if (!c->OffsetsEndAtColumns()) {
      return Status::Corruption("cluster " + c->id.ToString() +
                                ": final row offset != column count");
    }
  }
  return Status::OK();
}

Status ReadClusters(const Ccsr& gc, const Graph& pattern,
                    MatchVariant variant, QueryClusters* out) {
  return ReadClustersImpl(gc, pattern, variant, /*cache=*/nullptr, out);
}

}  // namespace csce
