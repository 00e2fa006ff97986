#include "ccsr/csr.h"

#include <bit>
#include <string>

namespace csce {

void CsrBuilder::Finish(uint32_t num_vertices) {
  CSCE_DCHECK(ids_.empty() || ids_.back() < num_vertices);
  if (!ids_.empty()) {
    CloseRow();
    offsets_.push_back(cols_.size());
  }
  if (CsrHasBitmap(ids_.size(), num_vertices)) {
    words_.assign(CsrBitmapWords(num_vertices), 0);
    for (VertexId v : ids_) words_[v >> 6] |= uint64_t{1} << (v & 63);
    rank_.resize(words_.size());
    uint32_t before = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      rank_[w] = before;
      before += static_cast<uint32_t>(std::popcount(words_[w]));
    }
  }
}

Status CsrIndex::Validate(uint32_t num_vertices) const {
  const uint64_t k = ids.size();
  if (offsets.size() != (k == 0 ? 0 : k + 1)) {
    return Status::Corruption("row index has " +
                              std::to_string(offsets.size()) +
                              " offsets for " + std::to_string(k) +
                              " non-empty rows");
  }
  const uint64_t final_offset = k == 0 ? 0 : offsets[k];
  if (final_offset != cols.size()) {
    return Status::Corruption("final row offset " +
                              std::to_string(final_offset) +
                              " != column count " +
                              std::to_string(cols.size()));
  }
  if (k > 0 && offsets[0] != 0) {
    return Status::Corruption("first row offset is " +
                              std::to_string(offsets[0]) + ", expected 0");
  }
  uint64_t longest = 0;
  for (uint64_t i = 0; i < k; ++i) {
    if (ids[i] >= num_vertices) {
      return Status::Corruption("row id " + std::to_string(ids[i]) +
                                " out of range");
    }
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return Status::Corruption("row ids not strictly increasing at row " +
                                std::to_string(i));
    }
    // Strictly increasing offsets: every listed row is non-empty.
    if (offsets[i + 1] <= offsets[i]) {
      return Status::Corruption("row offsets not strictly increasing at row " +
                                std::to_string(i));
    }
    longest = std::max(longest, offsets[i + 1] - offsets[i]);
  }
  if (longest != max_row_length) {
    return Status::Corruption("stored longest row " +
                              std::to_string(max_row_length) +
                              " != longest row " + std::to_string(longest));
  }
  const uint64_t want_words =
      CsrHasBitmap(k, num_vertices) ? CsrBitmapWords(num_vertices) : 0;
  if (words.size() != want_words || rank.size() != want_words) {
    return Status::Corruption(
        "rank bitmap has " + std::to_string(words.size()) + " words and " +
        std::to_string(rank.size()) + " counts, expected " +
        std::to_string(want_words) + " for " + std::to_string(k) +
        " non-empty rows of " + std::to_string(num_vertices));
  }
  // Each word must be exactly the bits of the ids inside it, and its
  // count the number of ids before it.
  uint64_t i = 0;
  for (uint64_t w = 0; w < want_words; ++w) {
    if (rank[w] != i) {
      return Status::Corruption("rank count of bitmap word " +
                                std::to_string(w) + " is " +
                                std::to_string(rank[w]) + ", expected " +
                                std::to_string(i));
    }
    uint64_t word = 0;
    for (; i < k && (ids[i] >> 6) == w; ++i) {
      word |= uint64_t{1} << (ids[i] & 63);
    }
    if (words[w] != word) {
      return Status::Corruption("rank bitmap word " + std::to_string(w) +
                                " does not match the non-empty rows");
    }
  }
  return Status::OK();
}

}  // namespace csce
