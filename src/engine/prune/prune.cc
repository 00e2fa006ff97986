#include "engine/prune/prune.h"

namespace csce {

PruneOptions NoPruneOptions() {
  PruneOptions o;
  o.fs = o.lpi = false;
  return o;
}

Status ParsePruneList(std::string_view spec, PruneOptions* out) {
  PruneOptions parsed;
  if (spec.empty()) {
    *out = parsed;
    return Status::OK();
  }
  size_t start = 0;
  while (true) {
    size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view token = spec.substr(start, comma - start);
    if (token.empty()) {
      return Status::InvalidArgument("empty prune pass name in list");
    }
    if (token == "fs") {
      parsed.fs = true;
    } else if (token == "lpi") {
      parsed.lpi = true;
    } else if (token == "none") {
      parsed = NoPruneOptions();
    } else {
      return Status::InvalidArgument("unknown prune pass \"" +
                                     std::string(token) +
                                     "\" (expected lpi, fs, or none)");
    }
    if (comma == spec.size()) break;
    start = comma + 1;
  }
  *out = parsed;
  return Status::OK();
}

std::string PruneOptionsToString(const PruneOptions& options) {
  if (!options.any()) return "none";
  if (options.lpi && options.fs) return "lpi,fs";
  // A single pass must start from `none`, or it would parse back with
  // the other default pass on.
  return options.lpi ? "none,lpi" : "none,fs";
}

}  // namespace csce
