#ifndef CSCE_CCSR_COMPRESSED_ROW_H_
#define CSCE_CCSR_COMPRESSED_ROW_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ccsr/array_view.h"
#include "util/logging.h"
#include "util/status.h"

namespace csce {

/// One run of a run-length-encoded row-index array: `count` consecutive
/// entries all equal to `value`.
///
/// The CCSR v2 on-disk format stores run arrays as raw RleRun records
/// (16 bytes each: value, count, 4 bytes zero padding) so an mmap'd
/// artifact can be viewed as a span<const RleRun> with no decode pass;
/// the static_asserts below pin the layout that format relies on.
struct RleRun {
  uint64_t value;
  uint32_t count;

  friend bool operator==(const RleRun&, const RleRun&) = default;
};

static_assert(sizeof(RleRun) == 16, "CCSR v2 stores RleRun as 16 bytes");
static_assert(offsetof(RleRun, value) == 0 && offsetof(RleRun, count) == 8,
              "CCSR v2 relies on RleRun field offsets");

/// Run-length-compressed CSR row index (paper Section IV): since most
/// vertices have no arcs in a given cluster, the row-index array of a
/// cluster CSR is dominated by runs of repeated offsets. Compressing
/// each run to (value, repeat count) bounds the total row-index storage
/// by ~2 integers per edge instead of |V|+1 integers per cluster.
class CompressedRowIndex {
 public:
  CompressedRowIndex() = default;

  /// Compresses a monotone row-index array (length |V|+1). Builders
  /// that have the arcs rather than a dense row use
  /// CompressedRowBuilder, which never materializes the array.
  static CompressedRowIndex Compress(std::span<const uint64_t> row);

  /// Reconstructs the standard row-index array.
  std::vector<uint64_t> Decompress() const;

  /// Invokes fn(vertex, begin, end) for every vertex whose arc range
  /// [begin, end) is non-empty, in increasing vertex order. This is the
  /// sparse decompression path: O(#non-empty vertices), not O(|V|).
  template <typename Fn>
  void ForEachNonEmptyRow(Fn&& fn) const {
    // Row entry i is offsets[i]; vertex v's range is [offsets[v],
    // offsets[v+1]). A vertex is non-empty where consecutive entries
    // differ, i.e. at every run boundary.
    std::span<const RleRun> r = runs();
    uint64_t index = 0;  // index into the virtual decompressed array
    for (size_t i = 0; i + 1 < r.size(); ++i) {
      // The last entry of run i is at position index + count - 1; the
      // next entry (start of run i+1) differs, so the vertex at
      // position (index + count - 1) is non-empty.
      uint64_t boundary = index + r[i].count - 1;
      fn(boundary, r[i].value, r[i + 1].value);
      index += r[i].count;
    }
  }

  uint64_t uncompressed_length() const { return uncompressed_length_; }
  size_t num_runs() const { return runs_.size(); }
  std::span<const RleRun> runs() const { return runs_.span(); }
  std::vector<RleRun>* mutable_runs() { return &runs_.vec(); }
  void set_uncompressed_length(uint64_t n) { uncompressed_length_ = n; }

  /// Rebinds the run array to external read-only storage (an mmap'd v2
  /// artifact). The span must outlive this index; see ArrayOrView.
  void BorrowRuns(std::span<const RleRun> runs, uint64_t uncompressed_length) {
    runs_.Borrow(runs);
    uncompressed_length_ = uncompressed_length;
  }

  /// True when the run array aliases external (mmap) storage.
  bool borrowed() const { return runs_.borrowed(); }

  /// Copies a borrowed run array into owned heap storage (no-op when
  /// already owned).
  void EnsureOwned() { runs_.EnsureOwned(); }

  size_t SizeBytes() const { return runs_.size() * sizeof(RleRun); }

  /// Deep structural check of the RLE encoding: every run is non-empty,
  /// run values are monotone (strictly increasing across run boundaries,
  /// since equal adjacent offsets would have been merged into one run —
  /// except after a saturated uint32 count, where Compress() splits),
  /// run coverage equals `uncompressed_length`, and the reconstructed
  /// row-index array starts at 0. Returns Corruption with a description
  /// of the first violated invariant.
  Status Validate() const;

 private:
  friend class CompressedRowBuilder;

  ArrayOrView<RleRun> runs_;
  uint64_t uncompressed_length_ = 0;
};

/// Emits the runs of a CSR row index straight from the sources of arcs
/// sorted by source: the result equals Compress() of the |V|+1 prefix
/// sum, but costs O(#arcs + #runs) instead of O(|V|). Each distinct
/// source s closes the run of entries [covered, s], whose value is the
/// number of arcs before s; Finish() closes the tail with the arc
/// count.
class CompressedRowBuilder {
 public:
  /// Records one arc leaving `src`. Sources must not decrease.
  void Add(uint64_t src) {
    if (arcs_ == 0 || src != last_src_) {
      CSCE_DCHECK(arcs_ == 0 || src > last_src_);
      AppendRun(arcs_, src + 1 - covered_);
      covered_ = src + 1;
      last_src_ = src;
    }
    ++arcs_;
  }

  /// The index over `num_vertices` rows (|V|+1 entries); every source
  /// added must be below `num_vertices`.
  CompressedRowIndex Finish(uint64_t num_vertices) &&;

 private:
  // Appends `count` entries equal to `value`, split into runs a uint32
  // count can hold.
  void AppendRun(uint64_t value, uint64_t count);

  std::vector<RleRun> runs_;
  uint64_t covered_ = 0;   // row entries the runs cover so far
  uint64_t arcs_ = 0;      // arcs added so far
  uint64_t last_src_ = 0;  // source of the latest arc
};

}  // namespace csce

#endif  // CSCE_CCSR_COMPRESSED_ROW_H_
