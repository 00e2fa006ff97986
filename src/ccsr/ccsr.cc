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
  obs::Gauge rle_runs_saved;

  static const CcsrMetrics& Get() {
    static const CcsrMetrics m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return CcsrMetrics{r.counter("ccsr.builds"),
                         r.gauge("ccsr.clusters"),
                         r.gauge("ccsr.compressed_bytes"),
                         r.gauge("ccsr.raw_csr_bytes"),
                         r.gauge("ccsr.rle_runs_saved")};
    }();
    return m;
  }
};

uint64_t LabelPairKey(Label a, Label b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

// Recomputes the label-pair index (per-vertex neighboring-label
// bitmasks) from the clusters, O(total RLE runs). Shared by
// Ccsr::BuildLabelMasks and the Validate cross-check so a drifting
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
      c.out_rows.ForEachNonEmptyRow(
          [&](uint64_t v, uint64_t, uint64_t) { (*out_masks)[v] |= dst_bit; });
      const uint64_t src_bit = Ccsr::LabelBit(c.id.src_label);
      c.in_rows.ForEachNonEmptyRow(
          [&](uint64_t v, uint64_t, uint64_t) { (*in_masks)[v] |= src_bit; });
    } else {
      // Undirected cluster {a,b}: a vertex with a non-empty row has
      // label a or b; its cluster-neighbors carry the other label.
      const uint64_t a_bit = Ccsr::LabelBit(c.id.src_label);
      const uint64_t b_bit = Ccsr::LabelBit(c.id.dst_label);
      c.out_rows.ForEachNonEmptyRow([&](uint64_t v, uint64_t, uint64_t) {
        (*out_masks)[v] |= vlabels[v] == c.id.src_label ? b_bit : a_bit;
      });
    }
  }
}

// Builds the compressed one-direction CSR of a cluster from arcs sorted
// by (src, dst).
void BuildCompressedDirection(uint32_t num_vertices,
                              std::span<const Edge> sorted_arcs,
                              CompressedRowIndex* rows,
                              ArrayOrView<VertexId>* cols) {
  CompressedRowBuilder builder;
  cols->resize(sorted_arcs.size());
  for (size_t i = 0; i < sorted_arcs.size(); ++i) {
    builder.Add(sorted_arcs[i].src);
    (*cols)[i] = sorted_arcs[i].dst;
  }
  *rows = std::move(builder).Finish(num_vertices);
}

// One cluster under construction by Ccsr::Build: each direction's row
// runs and columns grow as its arcs stream in, in (src, dst) order.
struct ClusterBuild {
  CompressedRowBuilder out_rows;
  std::vector<VertexId> out_cols;
  CompressedRowBuilder in_rows;
  std::vector<VertexId> in_cols;
};

// Publishes the index-shape gauges for `ccsr`: cluster count, bytes of
// the compressed representation vs an uncompressed per-cluster CSR
// (row offsets stored flat, 8 bytes each), and how many row-index
// entries RLE compression eliminated.
void PublishCcsrGauges(const Ccsr& ccsr) {
  uint64_t raw_bytes = ccsr.vertex_labels().size() * sizeof(Label);
  uint64_t runs_saved = 0;
  for (const CompressedCluster& c : ccsr.clusters()) {
    raw_bytes += c.out_rows.uncompressed_length() * sizeof(uint64_t) +
                 c.out_cols.size() * sizeof(VertexId);
    runs_saved += c.out_rows.uncompressed_length() - c.out_rows.num_runs();
    if (c.id.directed) {
      raw_bytes += c.in_rows.uncompressed_length() * sizeof(uint64_t) +
                   c.in_cols.size() * sizeof(VertexId);
      runs_saved += c.in_rows.uncompressed_length() - c.in_rows.num_runs();
    }
  }
  const CcsrMetrics& m = CcsrMetrics::Get();
  m.clusters.Set(static_cast<double>(ccsr.NumClusters()));
  m.compressed_bytes.Set(static_cast<double>(ccsr.CompressedSizeBytes()));
  m.raw_csr_bytes.Set(static_cast<double>(raw_bytes));
  m.rle_runs_saved.Set(static_cast<double>(runs_saved));
}

// Is the unordered pattern pair {a,b} fully connected, i.e. does no
// negation constraint exist between them? For undirected patterns that
// means the edge exists; for directed, both arc directions exist.
bool FullyConnected(const Graph& pattern, VertexId a, VertexId b) {
  if (!pattern.directed()) return pattern.HasEdge(a, b);
  return pattern.HasEdge(a, b) && pattern.HasEdge(b, a);
}

// Test-suite hook (CSCE_CCSR_MMAP=1, the CI mmap leg): round-trip the
// freshly built index through a v2 artifact and the mmap view, then
// deep-copy back to owned storage so the mapping can be dropped and
// mutation keeps working. Every Build call site in the suite becomes a
// serialization + mapping cross-check — a v2 layout or span-binding bug
// surfaces as ordinary test failures instead of only in the mmap tests.
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
  Ccsr view = mapped->Release();
  view.EnsureOwnedStorage();  // the mapping dies with this scope
  *out = std::move(view);
  std::remove(path.c_str());
}

}  // namespace

Ccsr Ccsr::Build(const Graph& g) {
  obs::Span span("ccsr.build");
  Ccsr out;
  out.directed_ = g.directed();
  out.num_edges_ = g.NumEdges();
  out.vlabels_ = g.vertex_labels();

  Label max_label = 0;
  for (Label l : out.vlabels_) max_label = std::max(max_label, l);
  out.vlabel_freq_.assign(out.vlabels_.empty() ? 0 : max_label + 1, 0);
  for (Label l : out.vlabels_) ++out.vlabel_freq_[l];

  out.out_degree_.resize(g.NumVertices());
  if (g.directed()) out.in_degree_.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out.out_degree_[v] = g.OutDegree(v);
    if (g.directed()) out.in_degree_[v] = g.InDegree(v);
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
      ClusterBuild& b =
          buckets[g.directed() ? ClusterId::Directed(lv, lw, w.elabel)
                               : ClusterId::Undirected(lv, lw, w.elabel)];
      b.out_rows.Add(v);
      b.out_cols.push_back(w.v);
    }
    if (!g.directed()) continue;
    // Incoming CSR: row v lists the sources of the arcs into v.
    for (const Neighbor& u : g.InNeighbors(v)) {
      ClusterBuild& b = buckets[ClusterId::Directed(g.VertexLabel(u.v), lv,
                                                    u.elabel)];
      b.in_rows.Add(v);
      b.in_cols.push_back(u.v);
    }
  }

  out.clusters_.reserve(buckets.size());
  for (auto& [id, b] : buckets) {
    CompressedCluster cluster;
    cluster.id = id;
    cluster.num_edges =
        id.directed ? b.out_cols.size() : b.out_cols.size() / 2;
    // The column vectors become the index's storage: drop their growth
    // slack.
    cluster.out_rows = std::move(b.out_rows).Finish(n);
    b.out_cols.shrink_to_fit();
    cluster.out_cols = std::move(b.out_cols);
    if (id.directed) {
      cluster.in_rows = std::move(b.in_rows).Finish(n);
      b.in_cols.shrink_to_fit();
      cluster.in_cols = std::move(b.in_cols);
    }
    out.clusters_.push_back(std::move(cluster));
  }

  // Deterministic cluster order (unordered_map iteration is not).
  std::sort(out.clusters_.begin(), out.clusters_.end(),
            [](const CompressedCluster& a, const CompressedCluster& b) {
              return a.id < b.id;
            });
  out.RebuildIndexes();
  out.BuildLabelMasks();
  MaybeMmapRoundTrip(&out);
  CcsrMetrics::Get().builds.Increment();
  PublishCcsrGauges(out);
  return out;
}

void Ccsr::EnsureOwnedStorage() {
  vlabels_.EnsureOwned();
  vlabel_freq_.EnsureOwned();
  out_degree_.EnsureOwned();
  in_degree_.EnsureOwned();
  lpi_out_.EnsureOwned();
  lpi_in_.EnsureOwned();
  for (CompressedCluster& c : clusters_) {
    c.out_rows.EnsureOwned();
    c.out_cols.EnsureOwned();
    c.in_rows.EnsureOwned();
    c.in_cols.EnsureOwned();
  }
  pager_ = nullptr;
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

void Ccsr::BuildLabelMasks() {
  std::vector<uint64_t> out_masks;
  std::vector<uint64_t> in_masks;
  ComputeLabelMasks(clusters_, vlabels_.span(), directed_, &out_masks,
                    &in_masks);
  lpi_out_ = std::move(out_masks);
  lpi_in_ = std::move(in_masks);
}

const CompressedCluster* Ccsr::Find(const ClusterId& id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &clusters_[it->second];
}

std::vector<const CompressedCluster*> Ccsr::StarClusters(Label a,
                                                         Label b) const {
  std::vector<const CompressedCluster*> out;
  auto it = star_index_.find(LabelPairKey(a, b));
  if (it == star_index_.end()) return out;
  out.reserve(it->second.size());
  for (size_t i : it->second) out.push_back(&clusters_[i]);
  return out;
}

namespace {

// Reconstructs a cluster's arc list from its compressed outgoing CSR.
std::vector<Edge> ArcsOf(const CompressedCluster& c) {
  std::vector<Edge> arcs;
  arcs.reserve(c.out_cols.size());
  c.out_rows.ForEachNonEmptyRow([&](uint64_t src, uint64_t begin,
                                    uint64_t end) {
    for (uint64_t k = begin; k < end; ++k) {
      arcs.push_back(Edge{static_cast<VertexId>(src), c.out_cols[k],
                          c.id.elabel});
    }
  });
  return arcs;
}

// Rebuilds a cluster's compressed CSR(s) from a sorted arc list.
void RebuildCluster(uint32_t num_vertices, std::vector<Edge> arcs,
                    CompressedCluster* c) {
  c->num_edges = c->id.directed ? arcs.size() : arcs.size() / 2;
  BuildCompressedDirection(num_vertices, arcs, &c->out_rows, &c->out_cols);
  if (c->id.directed) {
    std::vector<Edge> reversed(arcs.size());
    for (size_t i = 0; i < arcs.size(); ++i) {
      reversed[i] = Edge{arcs[i].dst, arcs[i].src, arcs[i].elabel};
    }
    std::sort(reversed.begin(), reversed.end());
    BuildCompressedDirection(num_vertices, reversed, &c->in_rows,
                             &c->in_cols);
  }
}

}  // namespace

Status Ccsr::InsertEdges(const std::vector<Edge>& edges) {
  if (mapped()) {
    return Status::NotSupported(
        "index is an mmap'd view; call EnsureOwnedStorage() before mutating");
  }
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
      ++out_degree_[a.src];
      if (directed_) ++in_degree_[a.dst];
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
  BuildLabelMasks();
  PublishCcsrGauges(*this);
  return Status::OK();
}

Status Ccsr::RemoveEdges(const std::vector<Edge>& edges) {
  if (mapped()) {
    return Status::NotSupported(
        "index is an mmap'd view; call EnsureOwnedStorage() before mutating");
  }
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

  bool structure_changed = false;
  for (const auto& [id, gone_arcs] : delta) {
    size_t slot = index_.at(id);
    std::vector<Edge> arcs = ArcsOf(clusters_[slot]);
    std::vector<Edge> remaining;
    remaining.reserve(arcs.size() - gone_arcs.size());
    std::set_difference(arcs.begin(), arcs.end(), gone_arcs.begin(),
                        gone_arcs.end(), std::back_inserter(remaining));
    for (const Edge& a : gone_arcs) {
      --out_degree_[a.src];
      if (directed_) --in_degree_[a.dst];
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
  BuildLabelMasks();
  PublishCcsrGauges(*this);
  return Status::OK();
}

namespace {

// Deep check of one direction of a cluster's compressed CSR. Verifies
// the RLE row index, row/column consistency, sorted-unique neighbor
// lists, vertex ranges, and endpoint-label homogeneity; appends the
// direction's arcs (src -> dst as stored) to `arcs_out` for the
// caller's transpose/symmetry check.
Status ValidateClusterDirection(const CompressedCluster& c, bool incoming,
                                std::span<const Label> vlabels,
                                std::vector<Edge>* arcs_out) {
  const CompressedRowIndex& rows = incoming ? c.in_rows : c.out_rows;
  const ArrayOrView<VertexId>& cols = incoming ? c.in_cols : c.out_cols;
  const std::string where =
      c.id.ToString() + (incoming ? " incoming" : " outgoing");
  // Directed clusters orient (src_label, dst_label) along the arc; the
  // incoming CSR stores reversed arcs, so the roles swap. Undirected
  // clusters only require the unordered label pair to match.
  const Label expect_src = incoming ? c.id.dst_label : c.id.src_label;
  const Label expect_dst = incoming ? c.id.src_label : c.id.dst_label;

  if (Status st = rows.Validate(); !st.ok()) {
    return Status::Corruption(where + ": " + st.message());
  }
  const uint32_t n = static_cast<uint32_t>(vlabels.size());
  if (rows.uncompressed_length() != static_cast<uint64_t>(n) + 1) {
    return Status::Corruption(
        where + ": row index covers " +
        std::to_string(rows.uncompressed_length()) +
        " entries, expected |V|+1 = " + std::to_string(n + 1));
  }
  // rows.Validate() and the coverage check above make the walk below
  // safe: the runs are non-empty and monotone, so the last one holds
  // the final offset, every offset lies in [0, final], and every row
  // reported is a vertex below |V|.
  const uint64_t final_offset = rows.runs().back().value;
  if (final_offset != cols.size()) {
    return Status::Corruption(where + ": final row offset " +
                              std::to_string(final_offset) +
                              " != column count " +
                              std::to_string(cols.size()));
  }
  auto check_row = [&](VertexId v, uint64_t begin, uint64_t end) -> Status {
    if (vlabels[v] != expect_src) {
      if (c.id.directed || (vlabels[v] != c.id.src_label &&
                            vlabels[v] != c.id.dst_label)) {
        return Status::Corruption(where + ": vertex " + std::to_string(v) +
                                  " has label " + std::to_string(vlabels[v]) +
                                  ", not an endpoint label of the cluster");
      }
    }
    VertexId prev = kInvalidVertex;
    for (uint64_t k = begin; k < end; ++k) {
      VertexId w = cols[k];
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
      arcs_out->push_back(Edge{v, w, c.id.elabel});
    }
    return Status::OK();
  };
  // The walk cannot stop early; the first failure is kept and the rest
  // of the rows are skipped. A run split at a saturated uint32 count
  // reports an empty range, which is skipped too.
  Status status = Status::OK();
  rows.ForEachNonEmptyRow([&](uint64_t v, uint64_t begin, uint64_t end) {
    if (status.ok() && begin != end) {
      status = check_row(static_cast<VertexId>(v), begin, end);
    }
  });
  return status;
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
  if (!std::ranges::equal(freq, vlabel_freq_.span())) {
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
    bool in_star = false;
    for (const CompressedCluster* c :
         StarClusters(id.src_label, id.dst_label)) {
      if (c == &clusters_[i]) in_star = true;
    }
    if (!in_star) {
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
  for (const CompressedCluster& c : clusters_) {
    if (c.id.directed != directed_) {
      return Status::Corruption("cluster " + c.id.ToString() +
                                " directedness differs from the graph");
    }
    if (!directed_ && c.id.src_label > c.id.dst_label) {
      return Status::Corruption("undirected cluster " + c.id.ToString() +
                                " label pair not canonicalized");
    }
    std::vector<Edge> out_arcs;
    CSCE_RETURN_IF_ERROR(
        ValidateClusterDirection(c, /*incoming=*/false, vlabels_, &out_arcs));
    uint64_t expected_arcs = directed_ ? c.num_edges : 2 * c.num_edges;
    if (out_arcs.size() != expected_arcs) {
      return Status::Corruption(
          c.id.ToString() + ": size " + std::to_string(c.num_edges) +
          " inconsistent with " + std::to_string(out_arcs.size()) +
          " stored arcs");
    }
    if (directed_) {
      std::vector<Edge> in_arcs;
      CSCE_RETURN_IF_ERROR(
          ValidateClusterDirection(c, /*incoming=*/true, vlabels_, &in_arcs));
      // The incoming CSR must be exactly the transpose of the outgoing.
      for (Edge& e : in_arcs) std::swap(e.src, e.dst);
      std::sort(in_arcs.begin(), in_arcs.end());
      if (in_arcs != out_arcs) {  // out_arcs are emitted sorted
        return Status::Corruption(c.id.ToString() +
                                  ": incoming CSR is not the transpose of "
                                  "the outgoing CSR");
      }
      for (const Edge& e : out_arcs) {
        ++out_count[e.src];
        ++in_count[e.dst];
      }
    } else {
      if (!c.in_cols.empty() || c.in_rows.num_runs() != 0) {
        return Status::Corruption(c.id.ToString() +
                                  ": undirected cluster carries an incoming "
                                  "CSR");
      }
      // Undirected clusters store each edge in both orientations in the
      // single CSR: the arc set must be symmetric.
      std::vector<Edge> reversed(out_arcs);
      for (Edge& e : reversed) std::swap(e.src, e.dst);
      std::sort(reversed.begin(), reversed.end());
      if (reversed != out_arcs) {
        return Status::Corruption(c.id.ToString() +
                                  ": undirected cluster arcs are not "
                                  "symmetric");
      }
      for (const Edge& e : out_arcs) ++out_count[e.src];
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

  // Label-pair index, recomputed by walking every cluster's rows — so
  // only after the per-cluster checks above have proven each row index
  // covers exactly |V|+1 entries (a damaged run count would otherwise
  // send the walk past the mask tables).
  if (lpi_out_.size() != n ||
      (directed_ ? lpi_in_.size() != n : !lpi_in_.empty())) {
    return Status::Corruption("label-pair index size inconsistent with the "
                              "vertex count");
  }
  {
    std::vector<uint64_t> expect_out;
    std::vector<uint64_t> expect_in;
    ComputeLabelMasks(clusters_, vlabels_.span(), directed_, &expect_out,
                      &expect_in);
    if (!std::ranges::equal(expect_out, lpi_out_.span()) ||
        !std::ranges::equal(expect_in, lpi_in_.span())) {
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

const ClusterView* QueryClusters::Find(const ClusterId& id) const {
  auto it = views_.find(id);
  return it == views_.end() ? nullptr : it->second.get();
}

const std::vector<const ClusterView*>& QueryClusters::Star(Label a,
                                                           Label b) const {
  static const std::vector<const ClusterView*> kEmpty;
  auto it = star_.find(LabelPairKey(a, b));
  return it == star_.end() ? kEmpty : it->second;
}

size_t QueryClusters::DecompressedBytes() const {
  size_t total = 0;
  for (const auto& [id, view] : views_) total += view->SizeBytes();
  return total;
}

std::shared_ptr<const ClusterView> DecompressCluster(
    const CompressedCluster& cluster) {
  // The view borrows the cluster's column arrays (heap or mmap'd)
  // instead of copying them; only the row lookup is built here.
  CsrIndex fwd =
      CsrIndex::FromCompressed(cluster.out_rows, cluster.out_cols.span());
  CsrIndex bwd;
  if (cluster.id.directed) {
    bwd = CsrIndex::FromCompressed(cluster.in_rows, cluster.in_cols.span());
  }
  return std::make_shared<const ClusterView>(cluster.id, cluster.num_edges,
                                             std::move(fwd), std::move(bwd));
}

Status ReadClustersImpl(const Ccsr& gc, const Graph& pattern,
                        MatchVariant variant, ClusterCache* cache,
                        QueryClusters* out) {
  if (pattern.directed() != gc.directed()) {
    return Status::InvalidArgument(
        "pattern and data graph directedness differ");
  }
  // A reused QueryClusters would hand back views of whatever index it
  // was filled from.
  CSCE_DCHECK(out->views_.empty() && out->star_.empty());
  // Obtains the view of `cluster` (from the shared cache when given,
  // decompressing locally otherwise) and registers it in the result.
  auto ensure_view = [out, cache](const CompressedCluster& cluster) {
    auto it = out->views_.find(cluster.id);
    if (it != out->views_.end()) return it->second.get();
    std::shared_ptr<const ClusterView> view =
        cache != nullptr ? cache->Get(cluster.id)
                         : DecompressCluster(cluster);
    const ClusterView* ptr = view.get();
    out->views_.emplace(cluster.id, std::move(view));
    return ptr;
  };

  // Lines 2-11: clusters of edges isomorphic to pattern edges.
  Status status = Status::OK();
  pattern.ForEachEdge([&](const Edge& e) {
    ClusterId id = ClusterId::ForPatternEdge(pattern, e);
    const CompressedCluster* c = gc.Find(id);
    if (c != nullptr) ensure_view(*c);
    // Empty cluster: Find() later returns nullptr -> zero embeddings
    // for the whole query; the engine short-circuits.
  });

  // Lines 12-18: negation clusters for vertex-induced matching. We load
  // them for every pattern pair that is not fully connected (for
  // directed patterns a single-direction edge still leaves the reverse
  // direction to negate).
  if (variant == MatchVariant::kVertexInduced) {
    for (VertexId a = 0; a < pattern.NumVertices(); ++a) {
      for (VertexId b = a + 1; b < pattern.NumVertices(); ++b) {
        if (FullyConnected(pattern, a, b)) continue;
        Label la = pattern.VertexLabel(a);
        Label lb = pattern.VertexLabel(b);
        uint64_t key = (static_cast<uint64_t>(std::min(la, lb)) << 32) |
                       std::max(la, lb);
        if (out->star_.count(key) > 0) continue;
        std::vector<const ClusterView*>& views = out->star_[key];
        for (const CompressedCluster* c : gc.StarClusters(la, lb)) {
          views.push_back(ensure_view(*c));
        }
      }
    }
  }
  return status;
}

Status ReadClusters(const Ccsr& gc, const Graph& pattern,
                    MatchVariant variant, QueryClusters* out) {
  return ReadClustersImpl(gc, pattern, variant, /*cache=*/nullptr, out);
}

}  // namespace csce
