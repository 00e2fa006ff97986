#ifndef CSCE_CCSR_CCSR_MMAP_H_
#define CSCE_CCSR_CCSR_MMAP_H_

#include <cstdint>
#include <memory>
#include <string>

#include "ccsr/ccsr.h"
#include "util/status.h"

namespace csce {

class CcsrMapping;

/// An out-of-core CCSR: a v2 artifact opened with mmap. Open() costs
/// O(#clusters), independent of the payload size; the OS demand-pages
/// cluster bytes in as queries first touch them.
///
/// The index is a regular `Ccsr` that co-owns the mapping, so the
/// planner, executors, shard workers and validators run unmodified, and
/// it stays valid after this object is gone: Release() it, or copy
/// ccsr(). Mutating it is copy-on-write (see Ccsr); the file is never
/// written.
///
/// Paging (the mapping is the index's CcsrPager):
/// * AdviseClusters(ids) issues madvise(MADV_WILLNEED) over the payload
///   blocks of the named clusters — the matcher calls it with the plan's
///   cluster access order before reading any cluster, so reads
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
class MmapCcsr {
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

  /// Maps a v2 artifact and binds every array as a span into the
  /// mapping, after cheap structural checks over the header and
  /// directory only, no payload page: magic, version and size pinning,
  /// section-table bounds and alignment, the directory CRC, directory
  /// order, per-cluster array bounds and row-index lengths. A retired v1
  /// stream file (magic "CCSR") and an older v2 version are rejected by
  /// name with the csce_build rebuild hint. Deep semantic validation is
  /// available afterwards via ccsr().Validate(), which streams the whole
  /// payload through the page cache.
  static Status Open(const std::string& path, const Options& options,
                     std::unique_ptr<MmapCcsr>* out);
  static Status Open(const std::string& path,
                     std::unique_ptr<MmapCcsr>* out) {
    return Open(path, Options{}, out);
  }

  /// Only Open() can name the key, so only Open() constructs (through
  /// std::make_unique, which needs a public constructor).
  class OpenKey {
    friend class MmapCcsr;
    OpenKey() = default;
  };
  explicit MmapCcsr(OpenKey) {}

  MmapCcsr(const MmapCcsr&) = delete;
  MmapCcsr& operator=(const MmapCcsr&) = delete;

  /// The mapped index; copies of it co-own the mapping.
  const Ccsr& ccsr() const { return ccsr_; }

  /// Moves the index out (for callers that hold a `Ccsr` by value, e.g.
  /// shard workers). It co-owns the mapping, so this object may go.
  Ccsr Release() { return std::move(ccsr_); }

  /// Payload bytes currently inside the advised FIFO window (0 when no
  /// cap is set — nothing is tracked then).
  uint64_t AdvisedWindowBytes() const;

 private:
  // Open's checks, then binds `out` over `mapping` and installs the
  // clusters' payload blocks in it.
  static Status Bind(const std::string& path,
                     const std::shared_ptr<CcsrMapping>& mapping, Ccsr* out);

  std::shared_ptr<const CcsrMapping> mapping_;
  Ccsr ccsr_;
};

}  // namespace csce

#endif  // CSCE_CCSR_CCSR_MMAP_H_
