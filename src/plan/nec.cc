#include "plan/nec.h"

#include <algorithm>
#include <span>

namespace csce {
namespace {

// Are the neighborhoods a and b equal once every entry pointing at u or
// v is skipped? Compared in place.
bool EqualExcluding(std::span<const Neighbor> a, std::span<const Neighbor> b,
                    VertexId u, VertexId v) {
  auto skip = [u, v](std::span<const Neighbor> nbrs, size_t i) {
    while (i < nbrs.size() && (nbrs[i].v == u || nbrs[i].v == v)) ++i;
    return i;
  };
  size_t i = skip(a, 0);
  size_t j = skip(b, 0);
  while (i < a.size() && j < b.size()) {
    if (a[i] != b[j]) return false;
    i = skip(a, i + 1);
    j = skip(b, j + 1);
  }
  return i == a.size() && j == b.size();
}

// The arcs of a sorted neighborhood that point at b.
std::span<const Neighbor> ArcsTo(std::span<const Neighbor> nbrs, VertexId b) {
  auto lo = std::lower_bound(
      nbrs.begin(), nbrs.end(), b,
      [](const Neighbor& n, VertexId x) { return n.v < x; });
  auto hi = std::upper_bound(
      lo, nbrs.end(), b, [](VertexId x, const Neighbor& n) { return x < n.v; });
  return {lo, hi};
}

bool Equivalent(const Graph& p, VertexId u, VertexId v) {
  // If adjacent, the connecting edges must be mutual with equal labels
  // (e.g. both endpoints of a triangle edge can be equivalent).
  if (!EqualExcluding(p.OutNeighbors(u), p.OutNeighbors(v), u, v)) {
    return false;
  }
  if (p.directed() &&
      !EqualExcluding(p.InNeighbors(u), p.InNeighbors(v), u, v)) {
    return false;
  }
  // Arc labels between u and v themselves must be symmetric, otherwise
  // swapping u and v changes the pattern.
  std::span<const Neighbor> uv = ArcsTo(p.OutNeighbors(u), v);
  std::span<const Neighbor> vu = ArcsTo(p.OutNeighbors(v), u);
  return std::equal(uv.begin(), uv.end(), vu.begin(), vu.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.elabel == b.elabel;
                    });
}

}  // namespace

std::vector<uint32_t> ComputeNecClasses(const Graph& pattern) {
  const uint32_t n = pattern.NumVertices();
  // Vertices grouped by label, ascending ids within a label: a vertex
  // is compared only with the earlier representatives of its label.
  std::vector<VertexId> by_label(n);
  for (VertexId v = 0; v < n; ++v) by_label[v] = v;
  std::sort(by_label.begin(), by_label.end(), [&](VertexId a, VertexId b) {
    const Label la = pattern.VertexLabel(a);
    const Label lb = pattern.VertexLabel(b);
    return la != lb ? la < lb : a < b;
  });
  std::vector<VertexId> rep(n);  // vertex -> smallest member of its class
  std::vector<VertexId> label_reps;
  for (uint32_t i = 0; i < n; ++i) {
    const VertexId v = by_label[i];
    if (i == 0 ||
        pattern.VertexLabel(v) != pattern.VertexLabel(by_label[i - 1])) {
      label_reps.clear();
    }
    rep[v] = v;
    for (VertexId r : label_reps) {
      if (Equivalent(pattern, r, v)) {
        rep[v] = r;
        break;
      }
    }
    if (rep[v] == v) label_reps.push_back(v);
  }
  // Dense class ids in order of each class's smallest vertex.
  std::vector<uint32_t> cls(n, 0);
  uint32_t classes = 0;
  for (VertexId v = 0; v < n; ++v) {
    cls[v] = rep[v] == v ? classes++ : cls[rep[v]];
  }
  return cls;
}

}  // namespace csce
