#ifndef CSCE_UTIL_BITSET_H_
#define CSCE_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace csce {

/// Fixed-capacity dynamic bitset used for "visited" / "used data vertex"
/// sets on hot enumeration paths. Avoids std::vector<bool>'s proxy
/// references and provides word-level reset.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t n) { Resize(n); }

  void Resize(size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  size_t size() const { return size_; }

  void Set(size_t i) {
    CSCE_DCHECK(i < size_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Clear(size_t i) {
    CSCE_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(size_t i) const {
    CSCE_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// this |= other. Both bitsets must have the same size.
  void OrWith(const DynamicBitset& other) {
    CSCE_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Square n x n bit matrix stored as n rows of ceil(n/64) words: the
/// planner's pattern adjacency and dependency-DAG rows. Rows are
/// contiguous, so a row OR is a word loop and a row count a popcount.
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(uint32_t n)
      : n_(n), words_((n + 63) / 64), bits_(size_t{n} * words_, 0) {}

  uint32_t size() const { return n_; }

  void Set(uint32_t row, uint32_t col) {
    CSCE_DCHECK(row < n_ && col < n_);
    bits_[size_t{row} * words_ + (col >> 6)] |= uint64_t{1} << (col & 63);
  }

  bool Test(uint32_t row, uint32_t col) const {
    CSCE_DCHECK(row < n_ && col < n_);
    return (bits_[size_t{row} * words_ + (col >> 6)] >> (col & 63)) & 1;
  }

  /// row(dst) |= row(src).
  void OrRow(uint32_t dst, uint32_t src) {
    uint64_t* d = &bits_[size_t{dst} * words_];
    const uint64_t* s = &bits_[size_t{src} * words_];
    for (uint32_t w = 0; w < words_; ++w) d[w] |= s[w];
  }

  uint32_t RowCount(uint32_t row) const {
    const uint64_t* r = &bits_[size_t{row} * words_];
    uint32_t c = 0;
    for (uint32_t w = 0; w < words_; ++w) {
      c += static_cast<uint32_t>(__builtin_popcountll(r[w]));
    }
    return c;
  }

  /// Calls f(col) for every set bit of `row`, in ascending order.
  template <typename F>
  void ForEachInRow(uint32_t row, F&& f) const {
    const uint64_t* r = &bits_[size_t{row} * words_];
    for (uint32_t w = 0; w < words_; ++w) {
      for (uint64_t bits = r[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
      }
    }
  }

 private:
  uint32_t n_ = 0;
  uint32_t words_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace csce

#endif  // CSCE_UTIL_BITSET_H_
