// Wire-protocol hardening corpus, in the io_fuzz_corpus_test mold:
// frames and payloads cross process boundaries, so every decoder must
// turn arbitrary damage — truncation, bad magic, oversized length
// prefixes, single-byte flips — into a Status, never a crash, an
// abort, or an unbounded allocation. The sanitizer CI runs this file
// under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "gen/datasets.h"
#include "plan/planner.h"
#include "shard/wire.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace shard {
namespace wire {
namespace {

// ---------------------------------------------------------------------------
// Reference messages (valid by construction).

LoadRequest MakeLoadRequest() {
  LoadRequest msg;
  msg.shard_id = 2;
  msg.num_shards = 4;
  msg.num_threads = 3;
  msg.inline_payload = true;
  msg.ccsr_blob = std::string("\x01\x02\x03\x00\x7f", 5);
  msg.owner = {0, 1, 2, 3, 0, 1};
  return msg;
}

struct PlannedQuery {
  Graph pattern;
  Plan plan;
};

PlannedQuery MakePlannedQuery() {
  PlannedQuery q;
  Graph data = datasets::Yeast();
  Ccsr index = Ccsr::Build(data);
  Rng rng(11);
  q.pattern = csce::testing::RandomGraph(rng, 5, 0.7, 3, 1, false);
  Status st = Planner(&index).MakePlan(
      q.pattern, MatchVariant::kEdgeInduced, PlanOptions{}, &q.plan);
  CSCE_CHECK(st.ok());
  return q;
}

PlanRequest MakePlanRequest() {
  PlannedQuery q = MakePlannedQuery();
  PlanRequest msg;
  msg.pattern = q.pattern;
  msg.plan = q.plan;
  msg.variant = MatchVariant::kEdgeInduced;
  msg.verify_sce = true;
  msg.emit_embeddings = true;
  msg.time_limit_seconds = 1.5;
  return msg;
}

TaskBatch MakeTaskBatch() {
  TaskBatch msg;
  ShardTask verify;
  verify.kind = ShardTask::Kind::kVerify;
  verify.target_shard = 1;
  verify.depth = 2;
  verify.mapping = {7, 9};
  verify.candidates = {1, 4, 8};
  msg.tasks.push_back(verify);
  ShardTask forward;
  forward.kind = ShardTask::Kind::kForward;
  forward.target_shard = 3;
  forward.depth = 1;
  forward.mapping = {12};
  msg.tasks.push_back(forward);
  ShardTask local;
  local.kind = ShardTask::Kind::kLocalOnly;
  local.target_shard = 0;
  local.depth = 3;
  local.mapping = {1, 2, 3};
  msg.tasks.push_back(local);
  return msg;
}

ResultMsg MakeResultMsg() {
  ResultMsg msg;
  msg.embeddings = 2;
  msg.search_nodes = 17;
  msg.candidate_sets_computed = 5;
  msg.candidate_sets_reused = 3;
  msg.morsels_claimed = 4;
  msg.prune_candidates_removed = 11;
  msg.prune_extensions_skipped = 6;
  msg.timed_out = false;
  msg.limit_reached = true;
  msg.seconds = 0.25;
  msg.embedding_width = 3;
  msg.embedding_data = {1, 2, 3, 9, 8, 7};
  return msg;
}

// ---------------------------------------------------------------------------
// Round trips: the decoders accept what the encoders produce, exactly.

TEST(ShardWireTest, FrameRoundTrip) {
  Frame frame{static_cast<uint32_t>(MsgType::kExtend), "payload-bytes"};
  std::string bytes;
  ASSERT_TRUE(EncodeFrame(frame, &bytes).ok());
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + frame.payload.size());
  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(bytes, &decoded, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.type, frame.type);
  EXPECT_EQ(decoded.payload, frame.payload);
}

TEST(ShardWireTest, LoadRequestRoundTrip) {
  LoadRequest msg = MakeLoadRequest();
  LoadRequest out;
  ASSERT_TRUE(DecodeLoadRequest(EncodeLoadRequest(msg), &out).ok());
  EXPECT_EQ(out.shard_id, msg.shard_id);
  EXPECT_EQ(out.num_shards, msg.num_shards);
  EXPECT_EQ(out.num_threads, msg.num_threads);
  EXPECT_EQ(out.inline_payload, msg.inline_payload);
  EXPECT_EQ(out.ccsr_blob, msg.ccsr_blob);
  EXPECT_EQ(out.owner, msg.owner);
}

TEST(ShardWireTest, PlanRequestRoundTrip) {
  PlanRequest msg = MakePlanRequest();
  PlanRequest out;
  ASSERT_TRUE(DecodePlanRequest(EncodePlanRequest(msg), &out).ok());
  EXPECT_EQ(out.variant, msg.variant);
  EXPECT_EQ(out.verify_sce, msg.verify_sce);
  EXPECT_EQ(out.emit_embeddings, msg.emit_embeddings);
  EXPECT_EQ(out.time_limit_seconds, msg.time_limit_seconds);
  EXPECT_EQ(out.pattern.NumVertices(), msg.pattern.NumVertices());
  EXPECT_EQ(out.pattern.NumEdges(), msg.pattern.NumEdges());
  EXPECT_EQ(out.plan.prune, msg.plan.prune);
  ASSERT_EQ(out.plan.order, msg.plan.order);
  ASSERT_EQ(out.plan.positions.size(), msg.plan.positions.size());
  for (size_t j = 0; j < out.plan.positions.size(); ++j) {
    const PlanPosition& a = out.plan.positions[j];
    const PlanPosition& b = msg.plan.positions[j];
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.negations, b.negations);
    EXPECT_EQ(a.deps, b.deps);
    EXPECT_EQ(a.cache_alias, b.cache_alias);
    EXPECT_EQ(a.seed_valid, b.seed_valid);
    EXPECT_EQ(a.min_out_degree, b.min_out_degree);
    EXPECT_EQ(a.min_in_degree, b.min_in_degree);
    EXPECT_EQ(a.lpi_req_out, b.lpi_req_out);
    EXPECT_EQ(a.lpi_req_in, b.lpi_req_in);
  }
}

TEST(ShardWireTest, PlanPruneByteAcceptsOnlyTheTwoPassBits) {
  // The plan follows the pattern graph and two one-byte fields
  // (variant, use_sce); its third byte carries the prune passes: bit 1
  // failing-set backjumping, bit 2 the label-pair filter. Bit 0 named
  // a pass that no longer exists, so a peer setting it is corrupt, as
  // is any higher bit.
  PlanRequest msg = MakePlanRequest();
  PayloadWriter graph;
  EncodeGraph(msg.pattern, &graph);
  const size_t prune_at = graph.Take().size() + 2;
  const std::string bytes = EncodePlanRequest(msg);
  ASSERT_LT(prune_at, bytes.size());
  ASSERT_EQ(static_cast<uint8_t>(bytes[prune_at]), 6u);  // lpi,fs default

  for (uint8_t bits = 0; bits < 8; ++bits) {
    std::string damaged = bytes;
    damaged[prune_at] = static_cast<char>(bits);
    PlanRequest out;
    Status st = DecodePlanRequest(damaged, &out);
    if ((bits & 1) != 0) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << int{bits};
      continue;
    }
    ASSERT_TRUE(st.ok()) << int{bits} << ": " << st.ToString();
    EXPECT_EQ(out.plan.prune.fs, (bits & 2) != 0);
    EXPECT_EQ(out.plan.prune.lpi, (bits & 4) != 0);
  }
  for (int bits : {8, 0x10, 0x80, 0xff}) {
    std::string damaged = bytes;
    damaged[prune_at] = static_cast<char>(bits);
    PlanRequest out;
    EXPECT_EQ(DecodePlanRequest(damaged, &out).code(),
              StatusCode::kCorruption)
        << bits;
  }
}

TEST(ShardWireTest, ZeroLengthVectorConsumesOnlyItsCount) {
  // An empty vector has no element bytes to copy (and a null data()):
  // decoding it must read the 4-byte count and nothing else.
  PayloadWriter w;
  w.VecU32({});
  w.U32(0xABCD1234u);
  const std::string bytes = w.Take();
  ASSERT_EQ(bytes.size(), 8u);
  PayloadReader r(bytes);
  std::vector<uint32_t> v = {5, 6};
  ASSERT_TRUE(r.VecU32(&v).ok());
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(bytes.size() - r.remaining(), 4u);
  uint32_t next = 0;
  ASSERT_TRUE(r.U32(&next).ok());
  EXPECT_EQ(next, 0xABCD1234u);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(ShardWireTest, TaskBatchRoundTrip) {
  TaskBatch msg = MakeTaskBatch();
  TaskBatch out;
  ASSERT_TRUE(DecodeTaskBatch(EncodeTaskBatch(msg), &out).ok());
  ASSERT_EQ(out.tasks.size(), msg.tasks.size());
  for (size_t i = 0; i < out.tasks.size(); ++i) {
    EXPECT_EQ(out.tasks[i].kind, msg.tasks[i].kind);
    EXPECT_EQ(out.tasks[i].target_shard, msg.tasks[i].target_shard);
    EXPECT_EQ(out.tasks[i].depth, msg.tasks[i].depth);
    EXPECT_EQ(out.tasks[i].mapping, msg.tasks[i].mapping);
    EXPECT_EQ(out.tasks[i].candidates, msg.tasks[i].candidates);
  }
}

TEST(ShardWireTest, ResultMsgRoundTrip) {
  ResultMsg msg = MakeResultMsg();
  ResultMsg out;
  ASSERT_TRUE(DecodeResultMsg(EncodeResultMsg(msg), &out).ok());
  EXPECT_EQ(out.embeddings, msg.embeddings);
  EXPECT_EQ(out.search_nodes, msg.search_nodes);
  EXPECT_EQ(out.candidate_sets_computed, msg.candidate_sets_computed);
  EXPECT_EQ(out.candidate_sets_reused, msg.candidate_sets_reused);
  EXPECT_EQ(out.morsels_claimed, msg.morsels_claimed);
  EXPECT_EQ(out.prune_candidates_removed, msg.prune_candidates_removed);
  EXPECT_EQ(out.prune_extensions_skipped, msg.prune_extensions_skipped);
  EXPECT_EQ(out.limit_reached, msg.limit_reached);
  EXPECT_EQ(out.seconds, msg.seconds);
  EXPECT_EQ(out.embedding_width, msg.embedding_width);
  EXPECT_EQ(out.embedding_data, msg.embedding_data);
}

TEST(ShardWireTest, ErrorRoundTrip) {
  Status original = Status::NotFound("no such shard artifact");
  ErrorMsg msg;
  ASSERT_TRUE(DecodeError(EncodeError(original), &msg).ok());
  Status restored = ErrorToStatus(msg);
  EXPECT_EQ(restored.code(), original.code());
  EXPECT_EQ(restored.ToString(), original.ToString());
}

// ---------------------------------------------------------------------------
// Framing damage.

TEST(ShardWireFuzzTest, TruncatedFramesRejected) {
  Frame frame{static_cast<uint32_t>(MsgType::kExtend),
              EncodeTaskBatch(MakeTaskBatch())};
  std::string bytes;
  ASSERT_TRUE(EncodeFrame(frame, &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Frame out;
    size_t consumed = 0;
    EXPECT_FALSE(DecodeFrame(bytes.substr(0, len), &out, &consumed).ok())
        << "len=" << len;
  }
}

TEST(ShardWireFuzzTest, BadMagicRejected) {
  Frame frame{static_cast<uint32_t>(MsgType::kRoot), ""};
  std::string bytes;
  ASSERT_TRUE(EncodeFrame(frame, &bytes).ok());
  for (size_t i = 0; i < 4; ++i) {
    std::string bad = bytes;
    bad[i] ^= 0xFF;
    Frame out;
    size_t consumed = 0;
    EXPECT_FALSE(DecodeFrame(bad, &out, &consumed).ok()) << "byte " << i;
  }
}

TEST(ShardWireFuzzTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  // A header claiming a payload beyond the cap must be rejected from
  // the 20 header bytes alone — long before any buffer is sized.
  std::string header(kFrameHeaderBytes, '\0');
  uint32_t magic = kFrameMagic;
  uint32_t type = static_cast<uint32_t>(MsgType::kExtend);
  uint64_t huge = kMaxFramePayload + 1;
  std::memcpy(&header[0], &magic, 4);
  std::memcpy(&header[4], &type, 4);
  std::memcpy(&header[8], &huge, 8);
  uint32_t got_type = 0;
  uint64_t got_len = 0;
  uint32_t got_crc = 0;
  EXPECT_FALSE(DecodeFrameHeader(header, &got_type, &got_len, &got_crc).ok());

  uint64_t absurd = ~0ull;
  std::memcpy(&header[8], &absurd, 8);
  EXPECT_FALSE(DecodeFrameHeader(header, &got_type, &got_len, &got_crc).ok());
}

// ---------------------------------------------------------------------------
// CRC framing: every single-byte flip in a frame is detected, except in
// the type field, which the CRC deliberately does not cover (the header
// fields are individually validated; an unknown type is rejected by the
// dispatch switch, not the framing).

TEST(ShardWireFuzzTest, PayloadCrcCatchesEverySingleByteFlip) {
  Frame frame{static_cast<uint32_t>(MsgType::kExtend),
              EncodeTaskBatch(MakeTaskBatch())};
  std::string bytes;
  ASSERT_TRUE(EncodeFrame(frame, &bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] ^= 0xFF;
    Frame out;
    size_t consumed = 0;
    Status st = DecodeFrame(bad, &out, &consumed);
    if (i >= 4 && i < 8) {
      // The type field is outside the CRC: the frame still decodes, as
      // a different (and later rejected) message type.
      EXPECT_TRUE(st.ok()) << "type byte " << i;
      EXPECT_EQ(out.payload, frame.payload);
    } else {
      EXPECT_FALSE(st.ok()) << "byte " << i;
    }
  }
}

TEST(ShardWireFuzzTest, EmptyPayloadFramesCarryValidCrc) {
  // Heartbeats (kPing/kPong) and round kickoffs are empty-payload
  // frames; their CRC field must still round-trip and still reject
  // header damage.
  for (MsgType t : {MsgType::kPing, MsgType::kPong, MsgType::kRoot,
                    MsgType::kFinish}) {
    Frame frame{static_cast<uint32_t>(t), ""};
    std::string bytes;
    ASSERT_TRUE(EncodeFrame(frame, &bytes).ok());
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
    Frame out;
    size_t consumed = 0;
    ASSERT_TRUE(DecodeFrame(bytes, &out, &consumed).ok());
    EXPECT_EQ(out.type, frame.type);
    // Damage the CRC field itself: must be rejected even with nothing
    // to checksum.
    for (size_t i = 16; i < 20; ++i) {
      std::string bad = bytes;
      bad[i] ^= 0x01;
      EXPECT_FALSE(DecodeFrame(bad, &out, &consumed).ok())
          << "type " << frame.type << " crc byte " << i;
    }
  }
}

TEST(ShardWireFuzzTest, Crc32KnownAnswer) {
  // IEEE 802.3 check value: CRC-32("123456789") == 0xCBF43926. Pins the
  // polynomial/reflection choice so both peers of a mixed-version pair
  // would disagree loudly, not subtly.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(ShardWireFuzzTest, PayloadCountsValidatedAgainstRemainingBytes) {
  // A vector claiming 2^31 entries inside a 16-byte payload must fail
  // without resizing the destination ("allocation bomb").
  PayloadWriter w;
  w.U32(0x7FFFFFFFu);  // element count
  w.U32(1);
  std::string payload = w.Take();
  PayloadReader r(payload);
  std::vector<uint32_t> out;
  EXPECT_FALSE(r.VecU32(&out).ok());
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Payload damage sweeps: truncate at every length and flip every byte;
// the decoders must return (any) Status or decode something — and
// never crash. ASan/UBSan turn latent over-reads into test failures.

void SweepPayload(const std::string& payload,
                  const std::function<Status(std::string_view)>& decode) {
  for (size_t len = 0; len < payload.size(); ++len) {
    (void)decode(std::string_view(payload).substr(0, len));
  }
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string bad = payload;
    bad[i] ^= 0xFF;
    (void)decode(bad);
  }
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string bad = payload;
    bad[i] ^= 0x01;  // low-bit flips catch off-by-one count damage
    (void)decode(bad);
  }
  // The undamaged payload still decodes after the sweep (the decoder
  // has no hidden state).
  EXPECT_TRUE(decode(payload).ok());
}

TEST(ShardWireFuzzTest, LoadRequestSweep) {
  SweepPayload(EncodeLoadRequest(MakeLoadRequest()),
               [](std::string_view bytes) {
                 LoadRequest out;
                 return DecodeLoadRequest(bytes, &out);
               });
}

TEST(ShardWireFuzzTest, PlanRequestSweep) {
  SweepPayload(EncodePlanRequest(MakePlanRequest()),
               [](std::string_view bytes) {
                 PlanRequest out;
                 return DecodePlanRequest(bytes, &out);
               });
}

TEST(ShardWireFuzzTest, TaskBatchSweep) {
  SweepPayload(EncodeTaskBatch(MakeTaskBatch()),
               [](std::string_view bytes) {
                 TaskBatch out;
                 return DecodeTaskBatch(bytes, &out);
               });
}

TEST(ShardWireFuzzTest, ResultMsgSweep) {
  SweepPayload(EncodeResultMsg(MakeResultMsg()),
               [](std::string_view bytes) {
                 ResultMsg out;
                 return DecodeResultMsg(bytes, &out);
               });
}

TEST(ShardWireFuzzTest, ErrorMsgSweep) {
  SweepPayload(EncodeError(Status::Corruption("payload damage sweep")),
               [](std::string_view bytes) {
                 ErrorMsg out;
                 return DecodeError(bytes, &out);
               });
}

TEST(ShardWireTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.peer_role = "coordinator";
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(EncodeHello(msg), &out).ok());
  EXPECT_EQ(out.protocol_version, kProtocolVersion);
  EXPECT_EQ(out.peer_role, msg.peer_role);
}

TEST(ShardWireFuzzTest, HelloSweep) {
  HelloMsg msg;
  msg.peer_role = "worker";
  SweepPayload(EncodeHello(msg), [](std::string_view bytes) {
    HelloMsg out;
    return DecodeHello(bytes, &out);
  });
}

TEST(ShardWireFuzzTest, TruncatedHandshakeFramesRejected) {
  HelloMsg msg;
  msg.peer_role = "coordinator";
  Frame frame{static_cast<uint32_t>(MsgType::kHello), EncodeHello(msg)};
  std::string bytes;
  ASSERT_TRUE(EncodeFrame(frame, &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Frame out;
    size_t consumed = 0;
    EXPECT_FALSE(DecodeFrame(bytes.substr(0, len), &out, &consumed).ok())
        << "len=" << len;
  }
}

TEST(ShardWireFuzzTest, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    size_t len = rng.Uniform(256);
    std::string junk(len, '\0');
    for (char& c : junk) c = static_cast<char>(rng.Uniform(256));
    LoadRequest lr;
    (void)DecodeLoadRequest(junk, &lr);
    PlanRequest pr;
    (void)DecodePlanRequest(junk, &pr);
    TaskBatch tb;
    (void)DecodeTaskBatch(junk, &tb);
    ResultMsg res;
    (void)DecodeResultMsg(junk, &res);
    ErrorMsg err;
    (void)DecodeError(junk, &err);
    HelloMsg hello;
    (void)DecodeHello(junk, &hello);
    Frame frame;
    size_t consumed = 0;
    (void)DecodeFrame(junk, &frame, &consumed);
  }
}

}  // namespace
}  // namespace wire
}  // namespace shard
}  // namespace csce
