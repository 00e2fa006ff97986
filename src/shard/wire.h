#ifndef CSCE_SHARD_WIRE_H_
#define CSCE_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/variant.h"
#include "plan/planner.h"
#include "util/status.h"

namespace csce {
namespace shard {

/// One unit of resumable cross-shard work: a partial mapping (plan
/// positions [0, depth)) that must continue on another shard. Emitted
/// by a shard worker's router when the next position's candidates leave
/// the shard; resumed on the target (see shard/worker.cc and DESIGN.md
/// "Sharded execution").
struct ShardTask {
  enum class Kind : uint8_t {
    /// No locally owned parent mapping: the target (owner of the first
    /// parent) computes the candidates, enumerates its owned ones and
    /// re-ships the rest. Exclusive — the sender enumerates nothing at
    /// this depth, so every candidate is handled exactly once.
    kForward = 0,
    /// `candidates` supplied, all owned by the target: the target
    /// intersects them with its local candidate set (which is complete
    /// for owned vertices) and enumerates the survivors.
    kVerify = 1,
    /// Edge-less (seed/label-scan) position broadcast: the target
    /// enumerates its owned slice of the mapping-independent candidate
    /// set and never re-broadcasts at this depth.
    kLocalOnly = 2,
  };
  Kind kind = Kind::kForward;
  uint32_t target_shard = 0;
  uint32_t depth = 0;                  // position to extend next
  std::vector<VertexId> mapping;       // by position, size == depth
  std::vector<VertexId> candidates;    // kVerify only: sorted, owned
};

namespace wire {

/// Length-prefixed framing for the coordinator/worker protocol:
///
///   magic "CSWF" (u32) | type (u32) | payload length (u64) |
///   payload crc32 (u32) | payload
///
/// little-endian throughout. The CRC covers the payload bytes only (the
/// header fields are individually validated) and turns line noise on a
/// real interconnect — the TCP transport — into Corruption instead of a
/// silently mis-decoded task batch. Every decoder in this file is
/// defensive: all counts are bounds-checked against the remaining bytes
/// before any allocation, and malformed input returns Corruption —
/// never crashes — because frames cross process boundaries (the fuzz
/// test hammers this contract).
inline constexpr uint32_t kFrameMagic = 0x46575343;  // "CSWF"
inline constexpr size_t kFrameHeaderBytes = 20;
/// Upper bound on a payload; a header claiming more is rejected before
/// anything is allocated.
inline constexpr uint64_t kMaxFramePayload = 1ull << 30;

/// Protocol revision carried in the kHello handshake. Bump whenever a
/// frame layout or message payload changes shape; peers with a
/// different version refuse to talk (the coordinator restarts or
/// rejects the worker instead of mis-decoding its frames).
/// v2: CRC-carrying 20-byte frame header + handshake/heartbeat frames.
/// v3: LoadRequest carries out-of-core options (use_mmap, memory cap).
/// v4: plan prune bit 2 carries failing-set backjumping; the
///     per-position redundant-extension byte is gone.
/// v5: plan prune bit 0 (auxiliary-graph projections) and its
///     per-position byte are gone; bits 1 (fs) and 2 (lpi) are the
///     only valid ones.
/// v6: ResultMsg carries the prune counters (shard workers run the
///     plan's passes).
inline constexpr uint32_t kProtocolVersion = 6;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
/// Table-driven, byte-at-a-time: frames are small (task batches cap in
/// the low megabytes) so simplicity beats a slicing-by-8 variant.
uint32_t Crc32(std::string_view bytes);

/// Frame types. Requests flow coordinator -> worker, replies back.
enum class MsgType : uint32_t {
  // Requests.
  kLoad = 1,      // LoadRequest: adopt a shard (CCSR + owner table)
  kPlan = 2,      // PlanRequest: compile-once plan for the next query
  kRoot = 3,      // empty: enumerate owned root candidates
  kExtend = 4,    // TaskBatch: run routed shard tasks
  kFinish = 5,    // empty: query done, return merged stats
  kStats = 6,     // empty: return a csce.metrics.v1 snapshot
  kShutdown = 7,  // empty: leave the serve loop
  kHello = 8,     // HelloMsg: versioned handshake (first frame sent)
  kPing = 9,      // empty: heartbeat probe
  // Replies.
  kOk = 100,           // empty ack (kLoad, kPlan, kShutdown)
  kTaskBatch = 101,    // TaskBatch: emissions of a kRoot/kExtend round
  kResult = 102,       // ResultMsg (kFinish)
  kStatsResult = 103,  // StatsResult (kStats)
  kError = 104,        // ErrorMsg: Status carried back
  kHelloAck = 105,     // HelloMsg: the worker's version, echoed back
  kPong = 106,         // empty: heartbeat answer
};

struct Frame {
  uint32_t type = 0;
  std::string payload;
};

/// Serializes header (including the payload CRC) + payload (refuses
/// oversized payloads).
Status EncodeFrame(const Frame& frame, std::string* out);
/// Validates a 20-byte header; returns the type, payload length and
/// the expected payload CRC (verified once the payload has been read).
Status DecodeFrameHeader(std::string_view header, uint32_t* type,
                         uint64_t* payload_len, uint32_t* payload_crc);
/// One-shot decode of a complete frame from a byte buffer (tests /
/// loopback), including CRC verification. `*consumed` gets the total
/// frame size on success.
Status DecodeFrame(std::string_view bytes, Frame* out, size_t* consumed);

/// Append-only payload builder (little-endian, no alignment).
class PayloadWriter {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  void Str(std::string_view s);                  // u64 length + bytes
  void VecU32(const std::vector<uint32_t>& v);   // u32 count + entries
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload reader: every accessor fails with Corruption
/// instead of reading past the end, and element counts are validated
/// against the remaining bytes before the destination is sized.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  Status Str(std::string* s, uint64_t max_len = kMaxFramePayload);
  Status VecU32(std::vector<uint32_t>* v);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// The payload must be fully consumed (trailing garbage = corruption).
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

// --- Message payloads -------------------------------------------------

/// Versioned handshake, exchanged before any other frame: the
/// coordinator sends kHello with its protocol version, the worker
/// answers kHelloAck with its own. Either side refuses a peer whose
/// version differs — a mismatched build must fail loudly at attach
/// time, not corrupt a query half-way through.
struct HelloMsg {
  uint32_t protocol_version = kProtocolVersion;
  /// "coordinator" / "worker"; free-form diagnostic, never dispatched
  /// on.
  std::string peer_role;
};

struct LoadRequest {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  uint32_t num_threads = 1;
  /// false: `ccsr_path`/`plan_path` name artifacts the worker reads
  /// itself (multi-process over a shared filesystem); true: `ccsr_blob`
  /// is a serialized CCSR and `owner` the ownership table, shipped
  /// inline (in-process clusters, --graph mode).
  bool inline_payload = false;
  std::string ccsr_path;
  std::string plan_path;
  std::string ccsr_blob;
  std::vector<uint32_t> owner;
  /// Out-of-core (file loads only): mmap the shard's CCSR v2 artifact
  /// instead of streaming it into memory; the artifact must be v2.
  bool use_mmap = false;
  /// With use_mmap, the per-worker paging-advice budget in bytes
  /// (0: prefetch without eviction). See MmapCcsr::Options.
  uint64_t memory_cap_bytes = 0;
};

struct PlanRequest {
  Graph pattern;
  Plan plan;
  MatchVariant variant = MatchVariant::kEdgeInduced;
  bool verify_sce = false;
  /// Ship every embedding back in the kFinish result (self-check and
  /// embedding collection; counts stay wire-cheap otherwise).
  bool emit_embeddings = false;
  double time_limit_seconds = 0.0;
};

struct TaskBatch {
  std::vector<ShardTask> tasks;
};

/// Per-worker totals returned by kFinish.
struct ResultMsg {
  uint64_t embeddings = 0;
  uint64_t search_nodes = 0;
  uint64_t candidate_sets_computed = 0;
  uint64_t candidate_sets_reused = 0;
  uint64_t morsels_claimed = 0;
  uint64_t prune_candidates_removed = 0;
  uint64_t prune_extensions_skipped = 0;
  bool timed_out = false;
  bool cancelled = false;
  bool limit_reached = false;
  double seconds = 0.0;
  /// Present when PlanRequest::emit_embeddings; each entry is indexed
  /// by pattern vertex (EmbeddingCallback convention).
  uint32_t embedding_width = 0;
  std::vector<VertexId> embedding_data;  // count * width entries
};

struct StatsResult {
  std::string metrics_json;  // a csce.metrics.v1 document
};

struct ErrorMsg {
  uint32_t code = 0;  // StatusCode
  std::string message;
};

std::string EncodeHello(const HelloMsg& msg);
Status DecodeHello(std::string_view payload, HelloMsg* out);

std::string EncodeLoadRequest(const LoadRequest& msg);
Status DecodeLoadRequest(std::string_view payload, LoadRequest* out);

std::string EncodePlanRequest(const PlanRequest& msg);
Status DecodePlanRequest(std::string_view payload, PlanRequest* out);

std::string EncodeTaskBatch(const TaskBatch& msg);
Status DecodeTaskBatch(std::string_view payload, TaskBatch* out);

std::string EncodeResultMsg(const ResultMsg& msg);
Status DecodeResultMsg(std::string_view payload, ResultMsg* out);

std::string EncodeStatsResult(const StatsResult& msg);
Status DecodeStatsResult(std::string_view payload, StatsResult* out);

std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload, ErrorMsg* out);
/// Reconstructs the Status an ErrorMsg carries.
Status ErrorToStatus(const ErrorMsg& msg);

/// Pattern graphs travel inside PlanRequest; exposed for tests.
void EncodeGraph(const Graph& g, PayloadWriter* w);
Status DecodeGraph(PayloadReader* r, Graph* out);
void EncodePlan(const Plan& plan, PayloadWriter* w);
Status DecodePlan(PayloadReader* r, Plan* out);

}  // namespace wire
}  // namespace shard
}  // namespace csce

#endif  // CSCE_SHARD_WIRE_H_
