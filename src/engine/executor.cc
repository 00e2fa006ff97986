#include "engine/executor.h"

#include <algorithm>
#include <limits>

#include "engine/setops/setops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace csce {
namespace {

constexpr uint64_t kDeadlineCheckInterval = 16384;

/// Process-wide engine counters. Registered once; flushed from each
/// run's ExecStats at the end of Run (never on the enumeration hot
/// path), so observability cannot perturb per-run results and the
/// aggregate over worker threads equals the serial totals exactly.
struct EngineMetrics {
  obs::Counter runs;
  obs::Counter embeddings;
  obs::Counter search_nodes;
  obs::Counter sce_recomputes;
  obs::Counter sce_reuses;
  obs::Counter morsels_claimed;
  obs::Counter intersect_elements;
  obs::Counter prune_candidates_removed;
  obs::Counter prune_extensions_skipped;
  obs::Histogram candidate_set_size;
  obs::Histogram prune_shrink_ratio;
  obs::Histogram run_seconds;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return EngineMetrics{r.counter("engine.runs"),
                           r.counter("engine.embeddings"),
                           r.counter("engine.search_nodes"),
                           r.counter("engine.sce_recomputes"),
                           r.counter("engine.sce_reuses"),
                           r.counter("engine.morsels_claimed"),
                           r.counter("engine.intersect_elements"),
                           r.counter("prune.candidates_removed"),
                           r.counter("prune.extensions_skipped"),
                           r.histogram("engine.candidate_set_size"),
                           r.histogram("prune.shrink_ratio_pct"),
                           r.histogram("engine.run_seconds")};
    }();
    return m;
  }
};

}  // namespace

Executor::Executor(const Ccsr& gc, const QueryClusters& qc, const Plan& plan)
    : gc_(gc), qc_(qc), plan_(plan) {}

size_t CandidateBound(const Ccsr& gc, const QueryClusters& qc,
                      const PlanPosition& pos) {
  if (pos.edges.empty()) {
    if (pos.seed_valid) {
      const ClusterView* view = qc.Find(pos.seed_cluster);
      if (view == nullptr) return 0;
      return pos.seed_use_sources ? view->Sources().size()
                                  : view->Targets().size();
    }
    return gc.LabelFrequency(pos.label);
  }
  size_t bound = std::numeric_limits<size_t>::max();
  for (const EdgeConstraint& e : pos.edges) {
    const ClusterView* view = qc.Find(e.cluster);
    size_t rows = view == nullptr ? 0
                                  : (e.incoming ? view->MaxInRowLength()
                                                : view->MaxOutRowLength());
    bound = std::min(bound, rows);
  }
  return bound;
}

Status Executor::Prepare(const ExecOptions& options) {
  const size_t n = plan_.positions.size();
  options_ = &options;
  stats_ = ExecStats{};
  aborted_ = false;
  injective_ = plan_.variant != MatchVariant::kHomomorphic;
  deadline_check_counter_ = 0;

  edges_.assign(n, {});
  negs_.assign(n, {});
  restrictions_.assign(n, {});
  cache_slot_.assign(n, 0);
  // CandidateCache holds a VertexScratch (move-only); keep the buffers
  // across reuse of the same executor and just invalidate the entries.
  if (caches_.size() != n) {
    caches_.clear();
    caches_.resize(n);
  }
  for (CandidateCache& c : caches_) {
    c.valid = false;
    c.candidates.clear();
    c.lpi_removed = 0;
    c.lpi_shrink_pct = -1;
  }
  if (temp_.size() != n) {
    temp_.clear();
    temp_.resize(n);
  }
  cand_bound_.assign(n, 0);
  routed_ = 0;
  prune_ = options.prune;
  last_lpi_removed_ = 0;
  last_lpi_shrink_pct_ = -1;
  mapping_by_pos_.assign(n, kInvalidVertex);
  mapping_by_vertex_.assign(n, kInvalidVertex);
  used_.Resize(gc_.NumVertices());
  used_.Reset();

  std::vector<uint32_t> pos_of(n, 0);
  for (uint32_t j = 0; j < n; ++j) pos_of[plan_.positions[j].u] = j;

  for (uint32_t j = 0; j < n; ++j) {
    const PlanPosition& pos = plan_.positions[j];
    for (const EdgeConstraint& e : pos.edges) {
      edges_[j].push_back(
          ResolvedEdge{e.pos, qc_.Find(e.cluster), e.incoming});
    }
    for (const NegConstraint& c : pos.negations) {
      ResolvedNegation rn;
      rn.pos = c.pos;
      for (const ClusterView* view : qc_.Star(pos.label, c.other_label)) {
        // Forbidden arc f(w) -> f(u): candidates in Out(f(w)).
        if (c.forbid_from) rn.removals.emplace_back(view, /*use_out=*/true);
        // Forbidden arc f(u) -> f(w): candidates in In(f(w)).
        if (c.forbid_to) {
          if (view->id().directed) {
            rn.removals.emplace_back(view, /*use_out=*/false);
          } else if (!c.forbid_from) {
            // Undirected views: In == Out; avoid subtracting twice.
            rn.removals.emplace_back(view, /*use_out=*/true);
          }
        }
      }
      if (!rn.removals.empty()) negs_[j].push_back(std::move(rn));
    }
    // NEC cache sharing is only safe together with SCE reuse: an
    // aliased position recomputing into a shared slot would clobber the
    // buffer an outer recursion level is iterating.
    cache_slot_[j] = (plan_.use_sce && pos.cache_alias >= 0)
                         ? static_cast<uint32_t>(pos.cache_alias)
                         : j;
  }
  for (const auto& [a, b] : options.restrictions) {
    if (a >= n || b >= n) {
      return Status::InvalidArgument("restriction vertex out of range");
    }
    uint32_t pa = pos_of[a];
    uint32_t pb = pos_of[b];
    // Enforce at the later position against the earlier mapping.
    if (pa < pb) {
      restrictions_[pb].push_back(Restriction{pa, /*require_greater=*/true});
    } else {
      restrictions_[pa].push_back(Restriction{pb, /*require_greater=*/false});
    }
  }

  // Zero-allocation setup: size every hot-path buffer to its worst
  // case now, so ComputeCandidates never grows anything.
  size_t max_bound = 0;
  size_t max_lists = 0;
  size_t max_removals = 0;
  for (uint32_t j = 0; j < n; ++j) {
    cand_bound_[j] = CandidateBound(gc_, qc_, plan_.positions[j]);
    max_bound = std::max(max_bound, cand_bound_[j]);
    max_lists = std::max(max_lists, edges_[j].size());
    // Chained intersections ping-pong between the output buffer and the
    // depth's partner; single-list and seeded paths need no partner.
    if (edges_[j].size() >= 2) {
      temp_[j].Reserve(cand_bound_[j] + setops::kOutPad);
    }
    size_t removals = 0;
    for (const ResolvedNegation& rn : negs_[j]) removals += rn.removals.size();
    max_removals = std::max(max_removals, removals);
  }
  for (uint32_t j = 0; j < n; ++j) {
    // Reserve only grows, so a shared (NEC-aliased) slot ends up sized
    // for the largest of its positions.
    CandidateCache& c = caches_[cache_slot_[j]];
    c.candidates.Reserve(cand_bound_[j] + setops::kOutPad);
  }
  for (uint32_t j = 0; j < n; ++j) {
    // Sized here, only overwritten by Store: the snapshot write on the
    // hot path is a plain element copy, never a (re)allocation.
    caches_[j].dep_snapshot.resize(plan_.positions[j].deps.size());
  }
  // --- Proactive pruning state (engine/prune/) ----------------------
  fs_words_ = static_cast<uint32_t>((n + 63) / 64);
  if (prune_.fs) {
    BuildAncestorSets();
    fs_.assign(n * fs_words_, 0);
  }
  lists_.clear();
  lists_.reserve(max_lists);
  neg_lists_.clear();
  neg_lists_.reserve(max_removals);
  if (max_removals > 0) {
    neg_marks_.Resize(gc_.NumVertices());
    neg_marks_.Reset();
  }
  if (options.verify_sce) {
    sce_oracle_scratch_.Reserve(max_bound + setops::kOutPad);
  }
  return Status::OK();
}

bool Executor::CheckDeadline() {
  const bool has_deadline = options_->time_limit_seconds > 0;
  if (!has_deadline && options_->stop == nullptr) return true;
  if (++deadline_check_counter_ % kDeadlineCheckInterval != 0) return true;
  if (options_->stop != nullptr && options_->stop->StopRequested()) {
    stats_.cancelled = true;
    aborted_ = true;
    return false;
  }
  if (has_deadline && timer_.Seconds() > options_->time_limit_seconds) {
    stats_.timed_out = true;
    aborted_ = true;
    return false;
  }
  return true;
}

void Executor::BuildAncestorSets() {
  const uint32_t n = static_cast<uint32_t>(plan_.positions.size());
  anc_.assign(static_cast<size_t>(n) * fs_words_, 0);
  for (uint32_t j = 0; j < n; ++j) {
    uint64_t* anc = &anc_[j * fs_words_];
    anc[j / 64] |= uint64_t{1} << (j % 64);
    // Every direct ancestor is an earlier position, whose set is final:
    // OR-ing it in closes anc(j) transitively.
    auto add = [&](uint32_t d) {
      for (uint32_t w = 0; w < fs_words_; ++w) anc[w] |= Anc(d)[w];
    };
    for (uint32_t d : plan_.positions[j].deps) add(d);
    // An NEC-aliased position reuses its slot owner's cached set while
    // the owner's dependencies are unchanged.
    for (uint32_t d : plan_.positions[cache_slot_[j]].deps) add(d);
    for (const Restriction& r : restrictions_[j]) add(r.other_pos);
  }
}

void Executor::FsUnion(uint32_t depth, const uint64_t* set) {
  uint64_t* fs = FailingSet(depth);
  for (uint32_t w = 0; w < fs_words_; ++w) fs[w] |= set[w];
}

const Executor::Restriction* Executor::FailedRestriction(uint32_t depth,
                                                         VertexId v) const {
  for (const Restriction& r : restrictions_[depth]) {
    VertexId other = mapping_by_pos_[r.other_pos];
    if (r.require_greater ? (v <= other) : (v >= other)) return &r;
  }
  return nullptr;
}

void Executor::ComputeCandidates(uint32_t depth,
                                 setops::VertexScratch* out) {
  ++stats_.candidate_sets_computed;
  out->clear();
  const PlanPosition& pos = plan_.positions[depth];
  // Normally a no-op compare: Prepare reserved this bound. Growing here
  // trips the VertexScratch hot-growth counter the allocation test
  // watches.
  out->EnsureCapacity(cand_bound_[depth] + setops::kOutPad);

  if (edges_[depth].empty()) {
    // Seeded position: distinct endpoints of the smallest incident
    // cluster, or a label scan for isolated pattern vertices.
    if (pos.seed_valid) {
      const ClusterView* view = qc_.Find(pos.seed_cluster);
      if (view == nullptr) return;
      std::span<const VertexId> endpoints =
          pos.seed_use_sources ? view->Sources() : view->Targets();
      for (VertexId v : endpoints) {
        if (gc_.VertexLabel(v) == pos.label) out->push_back(v);
      }
    } else {
      for (VertexId v = 0; v < gc_.NumVertices(); ++v) {
        if (gc_.VertexLabel(v) == pos.label) out->push_back(v);
      }
    }
  } else {
    // Gather the neighbor lists and intersect smallest-first.
    lists_.clear();
    for (const ResolvedEdge& e : edges_[depth]) {
      if (e.view == nullptr) return;  // empty cluster: no candidates
      VertexId w = mapping_by_pos_[e.pos];
      lists_.push_back(e.incoming ? e.view->In(w) : e.view->Out(w));
      if (lists_.back().empty()) return;
    }
    // Smallest-first chained intersection, ping-ponging with the
    // depth's partner buffer (reserved in Prepare when it has 2+ lists).
    stats_.intersect_elements +=
        setops::IntersectAll(lists_, out, &temp_[depth]);
  }

  // Label-pair prefilter (prune pass "lpi", on by default): a candidate
  // must have neighbors covering every label bit the pattern demands
  // around this vertex at later positions. The masks fold labels mod 64
  // (Ccsr::LabelBit), so the test is conservative — it only removes
  // vertices that provably cannot satisfy some later edge constraint.
  // The planner clears bits the candidate source already guarantees,
  // so many positions carry zero masks and skip this pass.
  last_lpi_removed_ = 0;
  last_lpi_shrink_pct_ = -1;
  const uint64_t lpi_out = prune_.lpi ? pos.lpi_req_out : 0;
  const uint64_t lpi_in = prune_.lpi ? pos.lpi_req_in : 0;
  if ((lpi_out | lpi_in) != 0) {
    const size_t base = out->size();
    VertexId* data = out->data();
    size_t kept = 0;
    for (size_t i = 0; i < base; ++i) {
      VertexId v = data[i];
      if ((gc_.OutLabelMask(v) & lpi_out) == lpi_out &&
          (gc_.InLabelMask(v) & lpi_in) == lpi_in) {
        data[kept++] = v;
      }
    }
    out->set_size(kept);
    last_lpi_removed_ = base - kept;
    last_lpi_shrink_pct_ =
        base == 0 ? 0 : static_cast<int32_t>(100 * (base - kept) / base);
    stats_.prune_candidates_removed += last_lpi_removed_;
    stats_.prune_shrink_ratio.RecordCount(
        static_cast<uint64_t>(last_lpi_shrink_pct_));
  }

  // LDF degree filter (injective variants): a candidate must be able
  // to host distinct images of all the pattern vertex's neighbors.
  if (pos.min_out_degree > 1 || pos.min_in_degree > 1) {
    VertexId* data = out->data();
    size_t kept = 0;
    for (size_t i = 0; i < out->size(); ++i) {
      VertexId v = data[i];
      if (gc_.OutDegree(v) >= pos.min_out_degree &&
          gc_.InDegree(v) >= pos.min_in_degree) {
        data[kept++] = v;
      }
    }
    out->set_size(kept);
  }

  // Vertex-induced negation: subtract the data-neighbors of every
  // earlier non-neighbor mapping.
  if (!negs_[depth].empty() && !out->empty()) {
    neg_lists_.clear();
    size_t total_removals = 0;
    for (const ResolvedNegation& rn : negs_[depth]) {
      VertexId w = mapping_by_pos_[rn.pos];
      for (const auto& [view, use_out] : rn.removals) {
        std::span<const VertexId> list = use_out ? view->Out(w) : view->In(w);
        if (!list.empty()) {
          neg_lists_.push_back(list);
          total_removals += list.size();
        }
      }
    }
    if (setops::UseBitmapDifference(out->size(), neg_lists_.size(),
                                    total_removals)) {
      // Dense path: mark all removal lists once, filter in one pass.
      out->set_size(setops::DifferenceManyBitmap(out->data(), out->size(),
                                                 neg_lists_, &neg_marks_));
    } else {
      for (std::span<const VertexId> list : neg_lists_) {
        // Difference is in-place safe (writes trail reads).
        out->set_size(setops::Difference(out->span(), list, out->data()));
        if (out->empty()) break;
      }
    }
  }

  stats_.candidate_set_size.RecordCount(out->size());
}

std::span<const VertexId> Executor::Candidates(uint32_t depth) {
  uint32_t slot = cache_slot_[depth];
  CandidateCache& cache = caches_[slot];
  const std::vector<uint32_t>& deps = plan_.positions[slot].deps;
  if (plan_.use_sce && cache.Fresh(deps, mapping_by_pos_)) {
    ++stats_.candidate_sets_reused;
    // Re-add the entry's LPI contribution so the prune counters track
    // consumption, not the thread-dependent compute/reuse split.
    stats_.prune_candidates_removed += cache.lpi_removed;
    if (cache.lpi_shrink_pct >= 0) {
      stats_.prune_shrink_ratio.RecordCount(
          static_cast<uint64_t>(cache.lpi_shrink_pct));
    }
    if (options_->verify_sce) {
      // SCE oracle: the reused set must be byte-identical to a fresh
      // recomputation. An aliased position recomputes its own base set,
      // which NEC guarantees equals the slot owner's.
      const uint64_t removed = stats_.prune_candidates_removed;
      const uint64_t intersected = stats_.intersect_elements;
      ComputeCandidates(depth, &sce_oracle_scratch_);
      --stats_.candidate_sets_computed;  // oracle work, not engine work
      stats_.prune_candidates_removed = removed;
      stats_.intersect_elements = intersected;
      CSCE_CHECK(sce_oracle_scratch_ == cache.candidates)
          << "SCE cache mismatch at position " << depth << " (slot " << slot
          << "): cached " << cache.candidates.size()
          << " candidates, recomputed " << sce_oracle_scratch_.size();
    }
    return cache.candidates.span();
  }
  ComputeCandidates(depth, &cache.candidates);
  cache.Store(deps, mapping_by_pos_);
  cache.lpi_removed = last_lpi_removed_;
  cache.lpi_shrink_pct = last_lpi_shrink_pct_;
  if (depth == options_->poison_sce_position && !cache.candidates.empty()) {
    cache.candidates.pop_back();  // test-only fault injection, see header
  }
  return cache.candidates.span();
}

bool Executor::Emit() {
  ++stats_.embeddings;
  if (options_->callback) {
    if (!options_->callback(mapping_by_vertex_)) {
      aborted_ = true;
      return false;
    }
  }
  if (options_->max_embeddings > 0 &&
      stats_.embeddings >= options_->max_embeddings) {
    stats_.limit_reached = true;
    aborted_ = true;
    return false;
  }
  return true;
}

bool Executor::Enumerate(uint32_t depth) {
  Placement* placement = options_->placement;
  if (placement == nullptr) return EnumerateOver(depth, Candidates(depth));
  bool routed = false;
  std::span<const VertexId> local = placement->Place(
      *this, depth, std::span<const VertexId>(mapping_by_pos_).first(depth),
      &routed);
  if (routed) ++routed_;
  return EnumerateOver(depth, local);
}

bool Executor::EnumerateOver(uint32_t depth,
                             std::span<const VertexId> candidates) {
  const bool last = depth + 1 == plan_.positions.size();
  const VertexId u = plan_.positions[depth].u;
  // Failing sets (prune pass "fs"). Siblings are never skipped at the
  // root, so every root subtree is searched identically whether the
  // roots run serially or split into morsels; depth 1 then has no
  // reader for its own set. `produce` stays on until an embedding shows
  // the set is "every position" (the caller sees that in the counter).
  const bool consume = prune_.fs && depth > 0;
  bool produce = prune_.fs && depth > 1;
  if (produce) {
    // Every class below contains anc(depth); an empty candidate set is
    // exactly that.
    std::copy_n(Anc(depth), fs_words_, FailingSet(depth));
  }

  // Count-only fast path: no per-candidate state is needed at the last
  // position of a homomorphic, unrestricted, callback-free query.
  if (last && !injective_ && restrictions_[depth].empty() &&
      !options_->callback && options_->max_embeddings == 0) {
    stats_.embeddings += candidates.size();
    stats_.search_nodes += candidates.size();
    return CheckDeadline();
  }

  for (size_t i = 0; i < candidates.size(); ++i) {
    const VertexId v = candidates[i];
    ++stats_.search_nodes;
    if (!CheckDeadline()) return false;
    if (injective_ && used_.Test(v)) {
      if (produce) {
        // Conflict: anc(depth) plus anc of the position holding v.
        uint32_t holder = 0;
        while (mapping_by_pos_[holder] != v) ++holder;
        CSCE_DCHECK(holder < depth);
        FsUnion(depth, Anc(holder));
      }
      continue;
    }
    if (!restrictions_[depth].empty()) {
      if (const Restriction* r = FailedRestriction(depth, v)) {
        if (produce) FsUnion(depth, Anc(r->other_pos));
        continue;
      }
    }
    mapping_by_pos_[depth] = v;
    mapping_by_vertex_[u] = v;
    if (last) {
      if (!Emit()) return false;
      produce = false;
      continue;
    }
    // A subtree that emitted or routed work is not failing: both
    // counters only grow, so their sum moves iff either does.
    const uint64_t productive_before = stats_.embeddings + routed_;
    if (injective_) used_.Set(v);
    bool keep_going = Enumerate(depth + 1);
    if (injective_) used_.Clear(v);
    if (!keep_going) return false;
    if (stats_.embeddings + routed_ != productive_before) {
      produce = false;
    } else if (consume) {
      const uint64_t* child = FailingSet(depth + 1);
      if (((child[depth / 64] >> (depth % 64)) & 1) == 0) {
        // v's subtree failed for reasons v does not affect: every
        // remaining sibling fails the same way. Backjump with the
        // child's set.
        stats_.prune_extensions_skipped += candidates.size() - i - 1;
        if (produce) std::copy_n(child, fs_words_, FailingSet(depth));
        break;
      }
      if (produce) FsUnion(depth, child);
    }
  }
  mapping_by_pos_[depth] = kInvalidVertex;
  return true;
}

Status Executor::Run(const ExecOptions& options, ExecStats* stats) {
  // Zero the caller's stats before anything can fail: a reused
  // executor whose second Run errors out must not leave the first
  // run's counters behind (regression test in engine_test.cc).
  *stats = ExecStats{};
  CSCE_RETURN_IF_ERROR(Prepare(options));
  obs::Span span("engine.run");
  CSCE_RETURN_IF_ERROR(DrainRoots());
  Finish(stats);
  return Status::OK();
}

Status Executor::DrainRoots() {
  if (options_ == nullptr) return Status::InvalidArgument("Prepare not called");
  if (aborted_ || plan_.positions.empty()) return Status::OK();
  timer_.Restart();
  if (options_->root_claim) {
    // Morsel mode: drain root batches from the shared claim counter.
    // SCE caches persist across morsels, so positions independent of
    // the root mapping keep their reuse within this executor.
    std::span<const VertexId> morsel;
    while (!aborted_ && !(morsel = options_->root_claim()).empty()) {
      ++stats_.morsels_claimed;
      obs::Span morsel_span("engine.morsel");
      if (!EnumerateOver(0, morsel)) break;
    }
  } else {
    Enumerate(0);
  }
  stats_.seconds += timer_.Seconds();
  return Status::OK();
}

Status Executor::SeedPrefix(std::span<const VertexId> prefix) {
  for (uint32_t j = 0; j < prefix.size(); ++j) {
    VertexId v = prefix[j];
    if (v >= gc_.NumVertices() || gc_.VertexLabel(v) != plan_.positions[j].label ||
        (injective_ && used_.Test(v))) {
      // Roll back the part already seeded and reject: prefixes arrive
      // over the wire and must not be trusted.
      ClearPrefix(prefix.subspan(0, j));
      return Status::InvalidArgument("invalid resume prefix");
    }
    mapping_by_pos_[j] = v;
    mapping_by_vertex_[plan_.positions[j].u] = v;
    if (injective_) used_.Set(v);
  }
  return Status::OK();
}

void Executor::ClearPrefix(std::span<const VertexId> prefix) {
  for (uint32_t j = 0; j < prefix.size(); ++j) {
    if (injective_) used_.Clear(prefix[j]);
    mapping_by_pos_[j] = kInvalidVertex;
    mapping_by_vertex_[plan_.positions[j].u] = kInvalidVertex;
  }
}

Status Executor::Resume(std::span<const VertexId> prefix) {
  if (options_ == nullptr) return Status::InvalidArgument("Prepare not called");
  if (aborted_) return Status::OK();  // outcome decided: drain cheaply
  if (prefix.empty() || prefix.size() >= plan_.positions.size()) {
    return Status::InvalidArgument("resume prefix length out of range");
  }
  timer_.Restart();
  CSCE_RETURN_IF_ERROR(SeedPrefix(prefix));
  Enumerate(static_cast<uint32_t>(prefix.size()));
  ClearPrefix(prefix);
  stats_.seconds += timer_.Seconds();
  return Status::OK();
}

void Executor::Finish(ExecStats* stats) {
  *stats = stats_;
  const EngineMetrics& m = EngineMetrics::Get();
  m.runs.Increment();
  m.embeddings.Add(stats_.embeddings);
  m.search_nodes.Add(stats_.search_nodes);
  m.sce_recomputes.Add(stats_.candidate_sets_computed);
  m.sce_reuses.Add(stats_.candidate_sets_reused);
  m.morsels_claimed.Add(stats_.morsels_claimed);
  m.intersect_elements.Add(stats_.intersect_elements);
  m.prune_candidates_removed.Add(stats_.prune_candidates_removed);
  m.prune_extensions_skipped.Add(stats_.prune_extensions_skipped);
  m.candidate_set_size.Merge(stats_.candidate_set_size);
  m.prune_shrink_ratio.Merge(stats_.prune_shrink_ratio);
  m.run_seconds.Record(stats_.seconds);
  stats_ = ExecStats{};
}

Status Executor::ComputeRootCandidates(const ExecOptions& options,
                                       std::vector<VertexId>* out,
                                       ExecStats* stats) {
  CSCE_RETURN_IF_ERROR(Prepare(options));
  out->clear();
  if (!plan_.positions.empty()) {
    // Computed into the root's (still invalid) cache buffer, then
    // copied out: this is setup work, not the enumeration hot path.
    setops::VertexScratch& root = caches_[cache_slot_[0]].candidates;
    ComputeCandidates(0, &root);
    out->assign(root.data(), root.data() + root.size());
    root.clear();
  }
  if (stats != nullptr) *stats = stats_;
  return Status::OK();
}

}  // namespace csce
