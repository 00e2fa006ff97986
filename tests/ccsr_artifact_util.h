#ifndef CSCE_TESTS_CCSR_ARTIFACT_UTIL_H_
#define CSCE_TESTS_CCSR_ARTIFACT_UTIL_H_

// Helpers for CCSR tests: byte-level ones for tests that damage CCSR v2
// artifacts (whole-file I/O, the artifact bytes of an index, loading
// bytes back through LoadCcsrFromFile, and the byte ranges of an
// artifact that carry content as opposed to page and alignment
// padding), and the dense-row oracle for a cluster direction.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_v2_format.h"
#include "ccsr/csr.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace csce {
namespace testing {

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSCE_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CSCE_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CSCE_CHECK(out.good());
}

/// A scratch artifact path private to this test process (ctest runs
/// test processes in parallel over one temp directory).
inline std::string ScratchArtifactPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "." +
         std::to_string(::getpid()) + ".ccsr";
}

/// The v2 artifact SaveCcsrToFileV2 writes for `ccsr`.
inline std::string CcsrV2Bytes(const Ccsr& ccsr) {
  const std::string path = ScratchArtifactPath("ccsr_v2_bytes");
  CSCE_CHECK(SaveCcsrToFileV2(ccsr, path).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

/// Writes `bytes` to a file and loads it with LoadCcsrFromFile.
inline Status LoadCcsrBytes(const std::string& bytes, Ccsr* out) {
  const std::string path = ScratchArtifactPath("ccsr_load_bytes");
  WriteFileBytes(path, bytes);
  Status st = LoadCcsrFromFile(path, out);
  std::remove(path.c_str());
  return st;
}

/// The header of the v2 artifact `bytes`.
inline V2Header ReadV2Header(const std::string& bytes) {
  V2Header h;
  CSCE_CHECK(bytes.size() >= sizeof(h));
  std::memcpy(&h, bytes.data(), sizeof(h));
  return h;
}

/// Directory entry `i` of the v2 artifact `bytes`.
inline V2DirEntry ReadV2DirEntry(const std::string& bytes, uint64_t i) {
  const V2Header h = ReadV2Header(bytes);
  CSCE_CHECK(i < h.num_clusters);
  V2DirEntry e;
  const uint64_t off = h.directory.offset + i * sizeof(e);
  CSCE_CHECK(off + sizeof(e) <= bytes.size());
  std::memcpy(&e, bytes.data() + off, sizeof(e));
  return e;
}

/// Overwrites directory entry `i` of the v2 artifact `bytes` with `e`
/// and re-seals the directory checksum, so the damage gets past the CRC
/// to the check under test.
inline void WriteV2DirEntry(std::string* bytes, uint64_t i,
                            const V2DirEntry& e) {
  V2Header h = ReadV2Header(*bytes);
  CSCE_CHECK(i < h.num_clusters);
  const uint64_t off = h.directory.offset + i * sizeof(e);
  CSCE_CHECK(h.directory.offset + h.directory.length <= bytes->size());
  std::memcpy(bytes->data() + off, &e, sizeof(e));
  h.directory_crc32 = util::Crc32(std::string_view(
      bytes->data() + h.directory.offset, h.directory.length));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

/// Overwrites the bytes at `offset` with the object representation of
/// `value`, e.g. one row offset or one column of a cluster array.
template <typename T>
void PokeBytes(std::string* bytes, uint64_t offset, const T& value) {
  CSCE_CHECK(offset + sizeof(T) <= bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

/// The dense-row oracle for one cluster direction over `n` vertices:
/// sorts `arcs`, prefix-sums a full |V|+1 row array the way a plain CSR
/// stores it, and checks `got` against it — the non-empty rows are
/// exactly the strict increases of the array, the bitmap is present
/// exactly at 1/16 fill, every lookup returns the row inside `got`'s
/// own columns, and `got` validates.
inline void ExpectMatchesDenseRows(const CsrIndex& got, uint32_t n,
                                   std::vector<Edge> arcs,
                                   const std::string& where) {
  std::sort(arcs.begin(), arcs.end());
  std::vector<uint64_t> row(n + 1, 0);
  std::vector<VertexId> cols;
  for (const Edge& a : arcs) {
    ++row[a.src + 1];
    cols.push_back(a.dst);
  }
  for (uint32_t v = 0; v < n; ++v) row[v + 1] += row[v];
  std::vector<VertexId> ids;
  std::vector<uint64_t> offsets;
  uint64_t longest = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (row[v + 1] == row[v]) continue;
    ids.push_back(v);
    offsets.push_back(row[v]);
    longest = std::max(longest, row[v + 1] - row[v]);
  }
  if (!ids.empty()) offsets.push_back(row[n]);
  EXPECT_TRUE(std::ranges::equal(got.ids, ids)) << where;
  EXPECT_TRUE(std::ranges::equal(got.offsets, offsets)) << where;
  EXPECT_TRUE(std::ranges::equal(got.cols, cols)) << where;
  EXPECT_EQ(got.max_row_length, longest) << where;
  EXPECT_EQ(got.words.size(),
            CsrHasBitmap(ids.size(), n) ? CsrBitmapWords(n) : 0)
      << where;
  const Status st = got.Validate(n);
  EXPECT_TRUE(st.ok()) << where << ": " << st.ToString();

  for (VertexId v = 0; v < n; ++v) {
    const std::span<const VertexId> want(cols.data() + row[v],
                                         cols.data() + row[v + 1]);
    const std::span<const VertexId> nbrs = got.Neighbors(v);
    ASSERT_TRUE(std::ranges::equal(nbrs, want)) << where << " v=" << v;
    if (!nbrs.empty()) {  // a view into the stored columns, not a copy
      EXPECT_EQ(nbrs.data(), got.cols.data() + row[v]) << where;
    }
  }
  for (VertexId v : {n, n + 1, n + 64, ~VertexId{0}}) {
    EXPECT_TRUE(got.Neighbors(v).empty()) << where << " v=" << v;
  }
  EXPECT_TRUE(got.OffsetsEndAtColumns()) << where;
}

/// [begin, end) byte ranges of a well-formed v2 artifact that carry
/// content: the header struct, every section and every cluster array.
/// Page and alignment padding is left out.
inline std::vector<std::pair<size_t, size_t>> V2ContentRanges(
    const std::string& bytes) {
  const V2Header h = ReadV2Header(bytes);
  std::vector<std::pair<size_t, size_t>> ranges = {{0, sizeof(h)}};
  auto add = [&ranges](uint64_t offset, uint64_t length) {
    if (length > 0) ranges.emplace_back(offset, offset + length);
  };
  for (const V2Section& s : {h.vlabels, h.out_degree, h.in_degree,
                             h.vlabel_freq, h.lpi_out, h.lpi_in,
                             h.directory}) {
    add(s.offset, s.length);
  }
  for (uint64_t i = 0; i < h.num_clusters; ++i) {
    const V2DirEntry e = ReadV2DirEntry(bytes, i);
    for (const V2CsrEntry& d : {e.out, e.in}) {
      const V2CsrLayout l = V2CsrLayoutOf(d);
      add(l.ids, d.ids_count * sizeof(VertexId));
      add(l.offsets, l.offsets_count * sizeof(uint64_t));
      add(l.words, d.words_count * sizeof(uint64_t));
      add(l.rank, d.words_count * sizeof(uint32_t));
      add(l.cols, d.cols_count * sizeof(VertexId));
    }
  }
  return ranges;
}

}  // namespace testing
}  // namespace csce

#endif  // CSCE_TESTS_CCSR_ARTIFACT_UTIL_H_
