#ifndef CSCE_GRAPH_VARIANT_H_
#define CSCE_GRAPH_VARIANT_H_

#include <string_view>

namespace csce {

/// The subgraph matching variant (the paper's theta).
///
/// * kEdgeInduced — injective mapping preserving all pattern edges
///   (a.k.a. non-induced / monomorphism).
/// * kVertexInduced — additionally, unconnected pattern vertex pairs must
///   map to unconnected data vertices (a.k.a. induced isomorphism).
/// * kHomomorphic — edge-preserving but not necessarily injective.
///
/// Note: vertex-induced semantics here assume at most one arc label per
/// ordered vertex pair (true of every dataset in the paper and of all
/// generators in this repository).
enum class MatchVariant {
  kEdgeInduced,
  kVertexInduced,
  kHomomorphic,
};

inline const char* VariantName(MatchVariant v) {
  switch (v) {
    case MatchVariant::kEdgeInduced:
      return "edge-induced";
    case MatchVariant::kVertexInduced:
      return "vertex-induced";
    case MatchVariant::kHomomorphic:
      return "homomorphic";
  }
  return "unknown";
}

/// Parses a variant named by VariantName() or by a short alias: "edge",
/// "vertex"/"induced", "hom". False (and `*out` untouched) otherwise.
inline bool ParseVariantName(std::string_view name, MatchVariant* out) {
  if (name == "edge" || name == "edge-induced") {
    *out = MatchVariant::kEdgeInduced;
  } else if (name == "vertex" || name == "vertex-induced" ||
             name == "induced") {
    *out = MatchVariant::kVertexInduced;
  } else if (name == "hom" || name == "homomorphic") {
    *out = MatchVariant::kHomomorphic;
  } else {
    return false;
  }
  return true;
}

}  // namespace csce

#endif  // CSCE_GRAPH_VARIANT_H_
