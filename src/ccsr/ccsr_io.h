#ifndef CSCE_CCSR_CCSR_IO_H_
#define CSCE_CCSR_CCSR_IO_H_

#include <string>

#include "ccsr/ccsr.h"
#include "util/status.h"

namespace csce {

/// The offline CCSR artifact. The paper's pipeline builds G_C once
/// offline and every query reads only the clusters it needs; persisting
/// G_C makes that split real. There is one on-disk format, v2 (magic
/// "CSR2", layout in ccsr_v2_format.h): a fixed-offset section table,
/// page-aligned per-cluster payload blocks and a CRC-protected
/// directory, so MmapCcsr opens it in O(#clusters) and pages clusters
/// in on demand.
Status SaveCcsrToFileV2(const Ccsr& ccsr, const std::string& path);

/// Loads a v2 artifact into memory: opens it with MmapCcsr (structural
/// checks), deep-validates, copies every array into exact-size heap
/// vectors and drops the mapping, so the result keeps no reference to
/// the file. A legacy v1 stream file (magic "CCSR") is rejected with
/// Corruption naming v1; rebuild it with csce_build. Use MmapCcsr for
/// the out-of-core (demand-paged) path.
Status LoadCcsrFromFile(const std::string& path, Ccsr* out);

}  // namespace csce

#endif  // CSCE_CCSR_CCSR_IO_H_
