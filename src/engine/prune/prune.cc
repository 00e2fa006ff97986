#include "engine/prune/prune.h"

namespace csce {

PruneOptions AllPruneOptions() {
  PruneOptions o;
  o.aux = o.fs = o.lpi = true;
  return o;
}

PruneOptions NoPruneOptions() {
  PruneOptions o;
  o.aux = o.fs = o.lpi = false;
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
    if (token == "aux") {
      parsed.aux = true;
    } else if (token == "fs") {
      parsed.fs = true;
    } else if (token == "lpi") {
      parsed.lpi = true;
    } else if (token == "all") {
      parsed = AllPruneOptions();
    } else if (token == "none") {
      parsed = NoPruneOptions();
    } else {
      return Status::InvalidArgument(
          "unknown prune pass \"" + std::string(token) +
          "\" (expected aux, lpi, fs, all, or none)");
    }
    if (comma == spec.size()) break;
    start = comma + 1;
  }
  *out = parsed;
  return Status::OK();
}

std::string PruneOptionsToString(const PruneOptions& options) {
  if (!options.any()) return "none";
  // Without both default passes the list must start from `none`, or it
  // would parse back with the missing one on.
  std::string s = options.lpi && options.fs ? "" : "none";
  auto add = [&s](const char* name) {
    if (!s.empty()) s += ',';
    s += name;
  };
  if (options.aux) add("aux");
  if (options.lpi) add("lpi");
  if (options.fs) add("fs");
  return s;
}

}  // namespace csce
