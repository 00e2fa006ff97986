#ifndef CSCE_ENGINE_PRUNE_PRUNE_H_
#define CSCE_ENGINE_PRUNE_PRUNE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace csce {

/// Selection of proactive pruning passes (ROADMAP item 3). All three
/// passes are semantics-preserving: with any subset enabled the engine
/// emits the same embeddings in the same order as the `none` ablation —
/// they only shrink the work done to find them.
///
///  - lpi: label-pair index (l2Match-style), ON by default. A
///    per-vertex neighboring-label bitmask built at CCSR load
///    (persisted as an optional v2 section) filters candidates that
///    cannot serve the pattern's still-unmatched neighbor labels. It is
///    a fixed part of candidate computation; only the `none` ablation
///    turns it off.
///  - aux: auxiliary-graph projections (GraphMini-style). The planner
///    marks positions whose candidate intersection can be built
///    incrementally while ancestor vertices are placed; empty partial
///    projections cut whole subtrees early.
///  - fs: failing-set backjumping (DAF-style), ON by default. Every
///    search node below the root computes the set of plan positions
///    whose mappings made its subtree fail; when a child's set does not
///    contain the current position, every remaining sibling would fail
///    the same way and is skipped. Only the `none` ablation turns it
///    off.
struct PruneOptions {
  bool aux = false;
  bool fs = true;
  bool lpi = true;

  bool any() const { return aux || fs || lpi; }

  friend bool operator==(const PruneOptions& a, const PruneOptions& b) {
    return a.aux == b.aux && a.fs == b.fs && a.lpi == b.lpi;
  }
};

/// All passes on — the `--prune=all` spelling.
PruneOptions AllPruneOptions();

/// Every pass off, the default filter and backjumping included — the
/// `--prune=none` ablation. Unpruned reference runs (crosschecks,
/// bench_prune) use it.
PruneOptions NoPruneOptions();

/// Parses a comma-separated pass list into `out`, left to right,
/// starting from the default (`lpi,fs`): `aux` adds to the default,
/// `lpi` and `fs` are no-ops unless they follow `none`, `all` sets
/// every pass and `none` clears every pass. So "" is the default,
/// "aux" is aux+lpi+fs, and "none,aux" is aux alone. Unknown pass
/// names are rejected with InvalidArgument naming the offending token;
/// `out` is untouched on error.
Status ParsePruneList(std::string_view spec, PruneOptions* out);

/// Canonical round-trippable spelling: "none", "lpi,fs" (the default),
/// "aux,lpi,fs", "none,aux", "none,lpi", ...
std::string PruneOptionsToString(const PruneOptions& options);

}  // namespace csce

#endif  // CSCE_ENGINE_PRUNE_PRUNE_H_
