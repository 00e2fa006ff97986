#ifndef CSCE_TESTS_CCSR_ARTIFACT_UTIL_H_
#define CSCE_TESTS_CCSR_ARTIFACT_UTIL_H_

// Byte-level helpers for tests that damage CCSR v2 artifacts: whole-file
// I/O, the artifact bytes of an index, loading bytes back through
// LoadCcsrFromFile, and the byte ranges of an artifact that carry
// content (as opposed to page and alignment padding).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_v2_format.h"
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
    V2DirEntry e;
    CSCE_CHECK(h.directory.offset + (i + 1) * sizeof(e) <= bytes.size());
    std::memcpy(&e, bytes.data() + h.directory.offset + i * sizeof(e),
                sizeof(e));
    add(e.out_runs_offset, e.out_runs_count * sizeof(RleRun));
    add(e.out_cols_offset, e.out_cols_count * sizeof(VertexId));
    add(e.in_runs_offset, e.in_runs_count * sizeof(RleRun));
    add(e.in_cols_offset, e.in_cols_count * sizeof(VertexId));
  }
  return ranges;
}

}  // namespace testing
}  // namespace csce

#endif  // CSCE_TESTS_CCSR_ARTIFACT_UTIL_H_
