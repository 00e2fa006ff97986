#ifndef CSCE_CCSR_CCSR_MMAP_H_
#define CSCE_CCSR_CCSR_MMAP_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_v2_format.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace csce {

/// An out-of-core CCSR: a v2 artifact opened with mmap. Open() costs
/// O(#clusters) — header + section-table checks, a directory CRC, and
/// span binding — independent of the payload size; the OS demand-pages
/// cluster bytes in as queries first touch them.
///
/// The view is exposed as a regular `Ccsr` whose arrays borrow the
/// mapping (see ArrayOrView), so the planner, executors, shard workers
/// and validators run unmodified over either backing. The Ccsr — and
/// everything derived from it that borrows cluster storage — is valid
/// only while this object lives.
///
/// Paging (the CcsrPager implementation):
/// * AdviseClusters(ids) issues madvise(MADV_WILLNEED) over the payload
///   blocks of the named clusters — the matcher calls it with the plan's
///   cluster access order before decompressing anything, so reads
///   overlap with enumeration instead of serializing on page faults.
/// * With a memory cap set, advised blocks enter a FIFO window; once the
///   window exceeds the cap the oldest blocks are dropped with
///   madvise(MADV_DONTNEED). AdviseDone() (end of a query) drops the
///   whole window. Both are pure page-cache hints on a read-only
///   file-backed mapping: a dropped page refaults from the file, so
///   correctness never depends on them.
///
/// Thread-safety: the mapped bytes are immutable and readable from any
/// thread; the advise window is mutex-guarded, so the pager hooks are
/// safe to call concurrently (e.g. from csce_serve query threads).
class MmapCcsr : public CcsrPager {
 public:
  struct Options {
    /// 0 disables eviction: advised blocks stay resident (the kernel
    /// still reclaims under global pressure). Otherwise the advised-
    /// window budget in bytes, rounded up per cluster to whole blocks.
    uint64_t memory_cap_bytes = 0;
    /// Issue MADV_WILLNEED for advised clusters (disable to measure the
    /// pure demand-paging baseline).
    bool prefetch = true;
  };

  /// Opens and verifies a v2 artifact. Cheap structural checks only
  /// (magic/version/size pinning, section table bounds + alignment,
  /// directory order + CRC, per-cluster array bounds); deep semantic
  /// validation is available afterwards via ccsr().Validate(), which
  /// streams the whole payload through the page cache.
  static Status Open(const std::string& path, const Options& options,
                     std::unique_ptr<MmapCcsr>* out);
  static Status Open(const std::string& path,
                     std::unique_ptr<MmapCcsr>* out) {
    return Open(path, Options{}, out);
  }

  ~MmapCcsr() override;

  /// Only Open() can name the key, so only Open() constructs (through
  /// std::make_unique, which needs a public constructor).
  class OpenKey {
    friend class MmapCcsr;
    OpenKey() = default;
  };
  explicit MmapCcsr(OpenKey) {}

  MmapCcsr(const MmapCcsr&) = delete;
  MmapCcsr& operator=(const MmapCcsr&) = delete;

  /// The mapped index. Valid while this object lives.
  const Ccsr& ccsr() const { return ccsr_; }

  /// Moves the view out (for callers that hold a `Ccsr` by value, e.g.
  /// shard workers). The returned index still borrows the mapping and
  /// keeps this object as its pager — the MmapCcsr must outlive it
  /// unless the caller runs EnsureOwnedStorage() on the result.
  Ccsr Release() { return std::move(ccsr_); }

  const std::string& path() const { return path_; }
  uint64_t file_bytes() const { return size_; }
  uint64_t memory_cap_bytes() const { return options_.memory_cap_bytes; }

  /// Payload bytes currently inside the advised FIFO window (0 when no
  /// cap is set — nothing is tracked then).
  uint64_t AdvisedWindowBytes() const;

  // CcsrPager:
  void AdviseClusters(std::span<const ClusterId> ids) const override;
  void AdviseDone() const override;

 private:
  // One cluster's page-aligned payload block (the unit of madvise).
  struct Block {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  Status Init(const std::string& path, const Options& options);
  void Advise(const Block& b, int advice) const;

  // Everything below up to mu_ is written once in Init() (before the
  // object is published) and read-only afterwards, so it needs no lock.
  std::string path_ CSCE_NOT_GUARDED;
  int fd_ CSCE_NOT_GUARDED = -1;
  // Mutable pointer because madvise takes void*; the mapping itself is
  // PROT_READ and never written.
  char* map_ CSCE_NOT_GUARDED = nullptr;
  uint64_t size_ CSCE_NOT_GUARDED = 0;
  Options options_ CSCE_NOT_GUARDED;
  V2Header header_ CSCE_NOT_GUARDED;

  Ccsr ccsr_ CSCE_NOT_GUARDED;
  // Own ClusterId -> block lookup: ccsr_ may be Release()d (moved out),
  // so the pager cannot rely on the Ccsr's cluster index.
  std::vector<Block> blocks_ CSCE_NOT_GUARDED;
  std::unordered_map<ClusterId, size_t, ClusterIdHash> block_index_
      CSCE_NOT_GUARDED;

  mutable Mutex mu_;
  // FIFO of advised block indexes, only maintained under a memory cap.
  mutable std::deque<size_t> advised_ CSCE_GUARDED_BY(mu_);
  mutable std::vector<uint32_t> advised_count_ CSCE_GUARDED_BY(mu_);
  mutable uint64_t advised_bytes_ CSCE_GUARDED_BY(mu_) = 0;
};

}  // namespace csce

#endif  // CSCE_CCSR_CCSR_MMAP_H_
