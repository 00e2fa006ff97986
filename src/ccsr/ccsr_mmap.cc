#include "ccsr/ccsr_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "util/crc32.h"
#include "util/logging.h"

namespace csce {
namespace {

std::string Errno() { return std::strerror(errno); }

// The `in` record of an undirected cluster: all zero.
constexpr V2CsrEntry kNoCsr{};

// ---------------------------------------------------------------------
// The bounds-checked primitives (mmap-bounded-reads): the ONLY functions
// in the mmap loader allowed to form pointers into the mapped bytes.
// Each one re-validates its range against the file size before casting,
// so every raw access sits next to its bounds check.

// Binds a typed span over `count` records at absolute file offset
// `offset`. Fails (returns false) when the range escapes the file, the
// byte count overflows, or the offset misses `align`.
template <typename T>
CSCE_MAP_PRIMITIVE bool BindSpan(const char* map, uint64_t file_bytes,
                                 uint64_t offset, uint64_t count,
                                 uint64_t align, std::span<const T>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count > file_bytes / sizeof(T)) return false;  // overflow-safe
  uint64_t bytes = count * sizeof(T);
  if (offset > file_bytes || bytes > file_bytes - offset) return false;
  if (align != 0 && offset % align != 0) return false;
  *out = std::span<const T>(reinterpret_cast<const T*>(map + offset),
                            static_cast<size_t>(count));
  return true;
}

// Raw byte view (for the directory CRC). Same bounds contract.
CSCE_MAP_PRIMITIVE bool BindBytes(const char* map, uint64_t file_bytes,
                                  uint64_t offset, uint64_t length,
                                  std::string_view* out) {
  if (offset > file_bytes || length > file_bytes - offset) return false;
  *out = std::string_view(map + offset, static_cast<size_t>(length));
  return true;
}

// Copies the fixed-size header out of the mapping (offset 0; the caller
// verified file_bytes >= kV2PageBytes >= sizeof(V2Header)).
CSCE_MAP_PRIMITIVE void ReadHeader(const char* map, V2Header* out) {
  std::memcpy(out, map, sizeof(*out));
}

}  // namespace

Status MmapCcsr::Open(const std::string& path, const Options& options,
                      std::unique_ptr<MmapCcsr>* out) {
  auto m = std::make_unique<MmapCcsr>(OpenKey{});
  CSCE_RETURN_IF_ERROR(m->Init(path, options));
  *out = std::move(m);
  return Status::OK();
}

MmapCcsr::~MmapCcsr() {
  if (map_ != nullptr) ::munmap(map_, static_cast<size_t>(size_));
  if (fd_ >= 0) ::close(fd_);
}

Status MmapCcsr::Init(const std::string& path, const Options& options) {
  path_ = path;
  options_ = options;

  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return Status::IOError("cannot open " + path + ": " + Errno());
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat " + path + ": " + Errno());
  }
  size_ = static_cast<uint64_t>(st.st_size);
  // A legacy v1 stream file is named by its magic before the v2 size
  // checks, so even a small one gets the rebuild hint.
  uint32_t magic = 0;
  if (::pread(fd_, &magic, sizeof(magic), 0) ==
          static_cast<ssize_t>(sizeof(magic)) &&
      magic == kV1Magic) {
    return Status::Corruption(
        path + ": CCSR v1 stream artifact (magic \"CCSR\"); v1 is no "
        "longer supported — rebuild the index with csce_build, which "
        "writes v2 (magic \"CSR2\")");
  }
  if (size_ < kV2PageBytes) {
    return Status::Corruption(path + ": " + std::to_string(size_) +
                              " bytes, smaller than the v2 header page");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(size_), PROT_READ,
                     MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) {
    map_ = nullptr;
    return Status::IOError("mmap " + path + ": " + Errno());
  }
  map_ = static_cast<char*>(map);

  ReadHeader(map_, &header_);
  if (header_.magic != kV2Magic) {
    return Status::Corruption(path + ": bad magic (not a CCSR artifact)");
  }
  if (header_.version != kV2Version) {
    return Status::Corruption(
        path + ": unsupported CCSR v2 version " +
        std::to_string(header_.version) + ", expected " +
        std::to_string(kV2Version) +
        " — rebuild the index with csce_build");
  }
  if (header_.file_bytes != size_) {
    return Status::Corruption(
        path + ": file is " + std::to_string(size_) +
        " bytes but the header claims " + std::to_string(header_.file_bytes) +
        " (truncated or padded artifact)");
  }
  if (header_.directed > 1) {
    return Status::Corruption(path + ": directed flag is neither 0 nor 1");
  }
  const uint64_t nv = header_.num_vertices;
  const bool directed = header_.directed != 0;

  // Section table: every present section page-aligned and inside the
  // file, with the length its record count dictates.
  auto check_section = [&](const V2Section& s, const char* name,
                           uint64_t expect_len) -> Status {
    if (s.length != expect_len) {
      return Status::Corruption(
          path + ": section " + name + " is " + std::to_string(s.length) +
          " bytes, expected " + std::to_string(expect_len));
    }
    if (s.length == 0) return Status::OK();
    if (s.offset % kV2PageBytes != 0) {
      return Status::Corruption(path + ": section " + name +
                                " offset not page-aligned");
    }
    if (s.offset > size_ || s.length > size_ - s.offset) {
      return Status::Corruption(path + ": section " + name +
                                " escapes the file");
    }
    return Status::OK();
  };
  CSCE_RETURN_IF_ERROR(
      check_section(header_.vlabels, "vlabels", nv * sizeof(Label)));
  CSCE_RETURN_IF_ERROR(
      check_section(header_.out_degree, "out_degree", nv * sizeof(uint32_t)));
  CSCE_RETURN_IF_ERROR(check_section(
      header_.in_degree, "in_degree", directed ? nv * sizeof(uint32_t) : 0));
  if (header_.vlabel_freq.length % sizeof(uint32_t) != 0) {
    return Status::Corruption(path +
                              ": vlabel_freq section not a whole number of "
                              "records");
  }
  CSCE_RETURN_IF_ERROR(check_section(header_.vlabel_freq, "vlabel_freq",
                                     header_.vlabel_freq.length));
  CSCE_RETURN_IF_ERROR(
      check_section(header_.directory, "directory",
                    header_.num_clusters * sizeof(V2DirEntry)));
  CSCE_RETURN_IF_ERROR(
      check_section(header_.lpi_out, "lpi_out", nv * sizeof(uint64_t)));
  CSCE_RETURN_IF_ERROR(check_section(header_.lpi_in, "lpi_in",
                                     directed ? nv * sizeof(uint64_t) : 0));

  // Directory checksum: the directory is the trust root for every raw
  // payload offset, so it gets an integrity check of its own before any
  // entry is interpreted.
  std::string_view dir_bytes;
  if (!BindBytes(map_, size_, header_.directory.offset,
                 header_.directory.length, &dir_bytes)) {
    return Status::Corruption(path + ": directory escapes the file");
  }
  if (util::Crc32(dir_bytes) != header_.directory_crc32) {
    return Status::Corruption(path + ": cluster directory checksum mismatch");
  }

  // Bind the vertex-level tables.
  std::span<const Label> vlabels;
  std::span<const uint32_t> out_degree;
  std::span<const uint32_t> in_degree;
  std::span<const uint32_t> vlabel_freq;
  std::span<const uint64_t> lpi_out;
  std::span<const uint64_t> lpi_in;
  std::span<const V2DirEntry> dir;
  if (!BindSpan(map_, size_, header_.vlabels.offset, nv, kV2PageBytes,
                &vlabels) ||
      !BindSpan(map_, size_, header_.out_degree.offset, nv, kV2PageBytes,
                &out_degree) ||
      !BindSpan(map_, size_, header_.in_degree.offset, directed ? nv : 0,
                kV2PageBytes, &in_degree) ||
      !BindSpan(map_, size_, header_.vlabel_freq.offset,
                header_.vlabel_freq.length / sizeof(uint32_t), kV2PageBytes,
                &vlabel_freq) ||
      !BindSpan(map_, size_, header_.lpi_out.offset, nv, kV2PageBytes,
                &lpi_out) ||
      !BindSpan(map_, size_, header_.lpi_in.offset, directed ? nv : 0,
                kV2PageBytes, &lpi_in) ||
      !BindSpan(map_, size_, header_.directory.offset, header_.num_clusters,
                kV2PageBytes, &dir)) {
    return Status::Corruption(path + ": section table binds out of range");
  }

  ccsr_.directed_ = directed;
  ccsr_.num_edges_ = header_.num_edges;
  ccsr_.vlabels_.Borrow(vlabels);
  ccsr_.out_degree_.Borrow(out_degree);
  ccsr_.in_degree_.Borrow(in_degree);
  ccsr_.vlabel_freq_.Borrow(vlabel_freq);
  ccsr_.lpi_out_.Borrow(lpi_out);
  ccsr_.lpi_in_.Borrow(lpi_in);

  // Directory entries: strictly sorted by ClusterId; every array range
  // bounds-checked into the payload section before a span is bound.
  const V2Section& payload = header_.payload;
  if (payload.length > 0) {
    CSCE_RETURN_IF_ERROR(check_section(payload, "payload", payload.length));
  }
  auto in_payload = [&](uint64_t offset, uint64_t count,
                        uint64_t elem) -> bool {
    if (count == 0) return true;
    uint64_t bytes = count * elem;  // BindSpan re-checks overflow
    return offset >= payload.offset && offset <= payload.offset + payload.length &&
           bytes <= payload.offset + payload.length - offset;
  };
  // One array of a direction: bounds-checked into the payload, then
  // bound with its directory count as its length.
  auto bind = [&]<typename T>(uint64_t offset, uint64_t count,
                              ArrayOrView<T>* out) -> bool {
    std::span<const T> span;
    if (!in_payload(offset, count, sizeof(T)) ||
        !BindSpan(map_, size_, offset, count, kV2ArrayAlign, &span)) {
      return false;
    }
    out->Borrow(span);
    return true;
  };
  // The lengths of one direction's arrays, from the directory alone (no
  // payload page is touched): at most |V| rows, a bitmap exactly at
  // 1/16 fill, columns iff rows and within the file, and a longest row
  // within the columns (the executor sizes buffers from it).
  auto shape_ok = [this, nv](const V2CsrEntry& e) {
    const uint64_t want_words =
        CsrHasBitmap(e.ids_count, nv) ? CsrBitmapWords(nv) : 0;
    return e.ids_count <= nv && e.words_count == want_words &&
           e.cols_count <= size_ / sizeof(VertexId) &&
           e.max_row_length <= e.cols_count &&
           (e.ids_count == 0) == (e.cols_count == 0);
  };
  // Binds each array with its directory count as its length; shape_ok
  // first, so the layout arithmetic cannot overflow.
  auto bind_csr = [&](const V2CsrEntry& e, CsrArrays* d) -> bool {
    const V2CsrLayout l = V2CsrLayoutOf(e);
    d->max_row_length = e.max_row_length;
    return bind(l.ids, e.ids_count, &d->ids) &&
           bind(l.offsets, l.offsets_count, &d->offsets) &&
           bind(l.words, e.words_count, &d->words) &&
           bind(l.rank, e.words_count, &d->rank) &&
           bind(l.cols, e.cols_count, &d->cols);
  };
  ccsr_.clusters_.clear();
  ccsr_.clusters_.reserve(dir.size());
  blocks_.clear();
  blocks_.reserve(dir.size());
  block_index_.clear();
  ClusterId prev_id;
  for (size_t i = 0; i < dir.size(); ++i) {
    const V2DirEntry& e = dir[i];
    ClusterId id{e.src_label, e.dst_label, e.elabel, e.directed != 0};
    if (i > 0 && !(prev_id < id)) {
      return Status::Corruption(path + ": directory not sorted strictly by "
                                "cluster id at entry " + std::to_string(i));
    }
    prev_id = id;
    if (id.directed != directed) {
      return Status::Corruption(path + ": cluster " + id.ToString() +
                                " directedness differs from the header");
    }
    if (!shape_ok(e.out) ||
        !(id.directed ? shape_ok(e.in) : std::memcmp(&e.in, &kNoCsr,
                                                     sizeof(kNoCsr)) == 0)) {
      return Status::Corruption(path + ": cluster " + id.ToString() +
                                " array lengths inconsistent with the "
                                "vertex count");
    }
    CompressedCluster c;
    c.id = id;
    c.num_edges = e.num_edges;
    if (!bind_csr(e.out, &c.out) || (id.directed && !bind_csr(e.in, &c.in))) {
      return Status::Corruption(path + ": cluster " + id.ToString() +
                                " arrays escape the payload or are "
                                "misaligned");
    }

    // The cluster's page-aligned payload block — the unit of paging
    // advice: from its first array to its last.
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (const V2CsrEntry* d : {&e.out, &e.in}) {
      if (d->ids_count == 0) continue;  // no arrays
      const V2CsrLayout l = V2CsrLayoutOf(*d);
      lo = std::min(lo, l.ids);
      hi = std::max(hi, l.end);
    }
    Block b;
    if (lo < hi) {
      b.offset = lo - lo % kV2PageBytes;
      b.length = std::min(V2AlignUp(hi, kV2PageBytes), size_) - b.offset;
    }
    block_index_.emplace(id, blocks_.size());
    blocks_.push_back(b);
    ccsr_.clusters_.push_back(std::move(c));
  }
  ccsr_.RebuildIndexes();
  ccsr_.pager_ = this;
  {
    MutexLock lock(mu_);
    advised_count_.assign(blocks_.size(), 0);
  }
  return Status::OK();
}

// The one function that turns a block descriptor into a raw mapped
// range (mmap-bounded-reads): offsets/lengths were bounds-checked
// against the file when the block was built in Init.
CSCE_MAP_PRIMITIVE void MmapCcsr::Advise(const Block& b, int advice) const {
  if (b.length == 0 || map_ == nullptr) return;
  // Paging advice is best-effort by contract; failure (e.g. under
  // memory pressure) only costs performance.
  (void)::madvise(map_ + b.offset, static_cast<size_t>(b.length), advice);
}

void MmapCcsr::AdviseClusters(std::span<const ClusterId> ids) const {
  for (const ClusterId& id : ids) {
    auto it = block_index_.find(id);
    if (it == block_index_.end()) continue;
    const size_t slot = it->second;
    const Block& b = blocks_[slot];
    if (options_.prefetch) Advise(b, MADV_WILLNEED);
    if (options_.memory_cap_bytes == 0) continue;
    MutexLock lock(mu_);
    if (advised_count_[slot]++ == 0) advised_bytes_ += b.length;
    advised_.push_back(slot);
    // FIFO eviction behind the frontier: drop the oldest advised blocks
    // until the window fits the cap. A block stays resident while any
    // in-flight query still has it in its window (the refcount).
    while (advised_bytes_ > options_.memory_cap_bytes && !advised_.empty()) {
      size_t oldest = advised_.front();
      advised_.pop_front();
      if (--advised_count_[oldest] == 0) {
        advised_bytes_ -= blocks_[oldest].length;
        Advise(blocks_[oldest], MADV_DONTNEED);
      }
    }
  }
}

void MmapCcsr::AdviseDone() const {
  if (options_.memory_cap_bytes == 0) return;
  MutexLock lock(mu_);
  while (!advised_.empty()) {
    size_t slot = advised_.front();
    advised_.pop_front();
    if (--advised_count_[slot] == 0) {
      advised_bytes_ -= blocks_[slot].length;
      Advise(blocks_[slot], MADV_DONTNEED);
    }
  }
}

uint64_t MmapCcsr::AdvisedWindowBytes() const {
  MutexLock lock(mu_);
  return advised_bytes_;
}

}  // namespace csce
