#include "ccsr/compressed_row.h"

#include <cstdint>
#include <string>
#include <utility>

#include "util/logging.h"

namespace csce {
namespace {

// Appends `count` entries equal to `value` to `runs`, splitting runs
// longer than what a uint32 count can hold.
void AppendSplitRuns(uint64_t value, uint64_t count,
                     std::vector<RleRun>* runs) {
  while (count > 0) {
    uint32_t chunk =
        count > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<uint32_t>(count);
    runs->push_back(RleRun{value, chunk});
    count -= chunk;
  }
}

}  // namespace

CompressedRowIndex CompressedRowIndex::Compress(
    std::span<const uint64_t> row) {
  CompressedRowIndex out;
  out.uncompressed_length_ = row.size();
  std::vector<RleRun>& runs = out.runs_.vec();
  size_t i = 0;
  while (i < row.size()) {
    size_t j = i;
    while (j < row.size() && row[j] == row[i]) ++j;
    AppendSplitRuns(row[i], j - i, &runs);
    i = j;
  }
  return out;
}

std::vector<uint64_t> CompressedRowIndex::Decompress() const {
  std::vector<uint64_t> row;
  row.reserve(uncompressed_length_);
  for (const RleRun& r : runs()) {
    row.insert(row.end(), r.count, r.value);
  }
  CSCE_DCHECK(row.size() == uncompressed_length_);
  return row;
}

void CompressedRowBuilder::AppendRun(uint64_t value, uint64_t count) {
  AppendSplitRuns(value, count, &runs_);
}

CompressedRowIndex CompressedRowBuilder::Finish(uint64_t num_vertices) && {
  CSCE_DCHECK(covered_ <= num_vertices);
  AppendRun(arcs_, num_vertices + 1 - covered_);
  CompressedRowIndex out;
  out.runs_ = std::move(runs_);
  out.uncompressed_length_ = num_vertices + 1;
  return out;
}

Status CompressedRowIndex::Validate() const {
  std::span<const RleRun> runs = this->runs();
  if (runs.empty()) {
    if (uncompressed_length_ != 0) {
      return Status::Corruption("compressed row: no runs but length " +
                                std::to_string(uncompressed_length_));
    }
    return Status::OK();
  }
  if (runs.front().value != 0) {
    return Status::Corruption("compressed row: first offset is " +
                              std::to_string(runs.front().value) +
                              ", expected 0");
  }
  uint64_t covered = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RleRun& r = runs[i];
    if (r.count == 0) {
      return Status::Corruption("compressed row: empty run at index " +
                                std::to_string(i));
    }
    if (i > 0) {
      const RleRun& prev = runs[i - 1];
      // Compress() merges equal adjacent offsets into one run, so run
      // values must strictly increase — unless the previous run's
      // counter saturated and the run was split.
      bool saturated_split =
          r.value == prev.value && prev.count == UINT32_MAX;
      if (r.value <= prev.value && !saturated_split) {
        return Status::Corruption(
            "compressed row: non-monotone run value " +
            std::to_string(r.value) + " after " + std::to_string(prev.value) +
            " at index " + std::to_string(i));
      }
    }
    covered += r.count;
  }
  if (covered != uncompressed_length_) {
    return Status::Corruption("compressed row: runs cover " +
                              std::to_string(covered) + " entries, expected " +
                              std::to_string(uncompressed_length_));
  }
  return Status::OK();
}

}  // namespace csce
