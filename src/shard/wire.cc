#include "shard/wire.h"

#include <cstring>

#include "graph/graph_builder.h"
#include "util/crc32.h"
#include "util/thread_annotations.h"

namespace csce {
namespace shard {
namespace wire {
namespace {

// Pattern graphs and task batches are small; these caps exist so a
// corrupt count fails fast instead of sizing gigabyte vectors. (Shard
// graphs in an inline LOAD are bounded by their payload bytes alone.)
constexpr uint32_t kMaxPatternVertices = 1u << 16;
constexpr uint64_t kMaxPatternEdges = 1u << 20;
// GraphBuilder materializes a frequency table indexed by the largest
// vertex label, so an unchecked wire-supplied label is an allocation
// bomb. Real datasets use a few thousand labels at most.
constexpr uint32_t kMaxLabelValue = 1u << 20;
constexpr uint32_t kMaxTasks = 1u << 24;

// The one writer-side raw-byte primitive (wire-bounded-reads exempts
// only marked functions from the no-raw-buffer-access rule).
CSCE_WIRE_PRIMITIVE void AppendPod(std::string* buf, const void* p, size_t n) {
  buf->append(reinterpret_cast<const char*>(p), n);
}

}  // namespace

Status EncodeFrame(const Frame& frame, std::string* out) {
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds kMaxFramePayload");
  }
  out->clear();
  out->reserve(kFrameHeaderBytes + frame.payload.size());
  uint32_t magic = kFrameMagic;
  uint64_t len = frame.payload.size();
  uint32_t crc = util::Crc32(frame.payload);
  AppendPod(out, &magic, sizeof(magic));
  AppendPod(out, &frame.type, sizeof(frame.type));
  AppendPod(out, &len, sizeof(len));
  AppendPod(out, &crc, sizeof(crc));
  out->append(frame.payload);
  return Status::OK();
}

CSCE_WIRE_PRIMITIVE Status DecodeFrameHeader(std::string_view header,
                                             uint32_t* type,
                                             uint64_t* payload_len,
                                             uint32_t* payload_crc) {
  if (header.size() < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, header.data(), sizeof(magic));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  std::memcpy(type, header.data() + 4, sizeof(*type));
  std::memcpy(payload_len, header.data() + 8, sizeof(*payload_len));
  std::memcpy(payload_crc, header.data() + 16, sizeof(*payload_crc));
  if (*payload_len > kMaxFramePayload) {
    return Status::Corruption("frame payload length exceeds limit");
  }
  return Status::OK();
}

Status DecodeFrame(std::string_view bytes, Frame* out, size_t* consumed) {
  uint32_t type = 0;
  uint64_t len = 0;
  uint32_t crc = 0;
  CSCE_RETURN_IF_ERROR(DecodeFrameHeader(bytes, &type, &len, &crc));
  if (bytes.size() - kFrameHeaderBytes < len) {
    return Status::Corruption("truncated frame payload");
  }
  out->type = type;
  out->payload.assign(bytes.substr(kFrameHeaderBytes, len));
  if (util::Crc32(out->payload) != crc) {
    return Status::Corruption("frame payload crc mismatch");
  }
  *consumed = kFrameHeaderBytes + static_cast<size_t>(len);
  return Status::OK();
}

// --- HelloMsg ---------------------------------------------------------

std::string EncodeHello(const HelloMsg& msg) {
  PayloadWriter w;
  w.U32(msg.protocol_version);
  w.Str(msg.peer_role);
  return w.Take();
}

Status DecodeHello(std::string_view payload, HelloMsg* out) {
  *out = HelloMsg{};
  PayloadReader r(payload);
  CSCE_RETURN_IF_ERROR(r.U32(&out->protocol_version));
  CSCE_RETURN_IF_ERROR(r.Str(&out->peer_role, 1u << 10));
  return r.ExpectEnd();
}

void PayloadWriter::U8(uint8_t v) { AppendPod(&buf_, &v, sizeof(v)); }
void PayloadWriter::U32(uint32_t v) { AppendPod(&buf_, &v, sizeof(v)); }
void PayloadWriter::U64(uint64_t v) { AppendPod(&buf_, &v, sizeof(v)); }
void PayloadWriter::F64(double v) { AppendPod(&buf_, &v, sizeof(v)); }

void PayloadWriter::Str(std::string_view s) {
  U64(s.size());
  buf_.append(s);
}

void PayloadWriter::VecU32(const std::vector<uint32_t>& v) {
  U32(static_cast<uint32_t>(v.size()));
  AppendPod(&buf_, v.data(), v.size() * sizeof(uint32_t));
}

Status PayloadReader::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::Corruption("truncated payload");
  }
  return Status::OK();
}

CSCE_WIRE_PRIMITIVE Status PayloadReader::U8(uint8_t* v) {
  CSCE_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

CSCE_WIRE_PRIMITIVE Status PayloadReader::U32(uint32_t* v) {
  CSCE_RETURN_IF_ERROR(Need(4));
  std::memcpy(v, data_.data() + pos_, 4);
  pos_ += 4;
  return Status::OK();
}

CSCE_WIRE_PRIMITIVE Status PayloadReader::U64(uint64_t* v) {
  CSCE_RETURN_IF_ERROR(Need(8));
  std::memcpy(v, data_.data() + pos_, 8);
  pos_ += 8;
  return Status::OK();
}

CSCE_WIRE_PRIMITIVE Status PayloadReader::F64(double* v) {
  CSCE_RETURN_IF_ERROR(Need(8));
  std::memcpy(v, data_.data() + pos_, 8);
  pos_ += 8;
  return Status::OK();
}

Status PayloadReader::Str(std::string* s, uint64_t max_len) {
  uint64_t len = 0;
  CSCE_RETURN_IF_ERROR(U64(&len));
  if (len > max_len) return Status::Corruption("string length exceeds limit");
  CSCE_RETURN_IF_ERROR(Need(static_cast<size_t>(len)));
  s->assign(data_.substr(pos_, static_cast<size_t>(len)));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

CSCE_WIRE_PRIMITIVE Status PayloadReader::VecU32(std::vector<uint32_t>* v) {
  uint32_t count = 0;
  CSCE_RETURN_IF_ERROR(U32(&count));
  // The count must be backed by bytes before the vector is sized.
  CSCE_RETURN_IF_ERROR(Need(static_cast<size_t>(count) * sizeof(uint32_t)));
  v->resize(count);
  // An empty vector's data() may be null, and memcpy from/to null is
  // undefined even for zero bytes.
  if (count > 0) {
    std::memcpy(v->data(), data_.data() + pos_, count * sizeof(uint32_t));
  }
  pos_ += static_cast<size_t>(count) * sizeof(uint32_t);
  return Status::OK();
}

Status PayloadReader::ExpectEnd() const {
  if (!AtEnd()) return Status::Corruption("trailing bytes in payload");
  return Status::OK();
}

// --- LoadRequest ------------------------------------------------------

std::string EncodeLoadRequest(const LoadRequest& msg) {
  PayloadWriter w;
  w.U32(msg.shard_id);
  w.U32(msg.num_shards);
  w.U32(msg.num_threads);
  w.U8(msg.inline_payload ? 1 : 0);
  if (msg.inline_payload) {
    EncodeGraph(msg.shard_graph, &w);
    w.VecU32(msg.owner);
  } else {
    w.Str(msg.ccsr_path);
    w.Str(msg.plan_path);
    w.U8(msg.use_mmap ? 1 : 0);
    w.U64(msg.memory_cap_bytes);
  }
  return w.Take();
}

Status DecodeLoadRequest(std::string_view payload, LoadRequest* out) {
  *out = LoadRequest{};
  PayloadReader r(payload);
  uint8_t inline_payload = 0;
  CSCE_RETURN_IF_ERROR(r.U32(&out->shard_id));
  CSCE_RETURN_IF_ERROR(r.U32(&out->num_shards));
  CSCE_RETURN_IF_ERROR(r.U32(&out->num_threads));
  CSCE_RETURN_IF_ERROR(r.U8(&inline_payload));
  out->inline_payload = inline_payload != 0;
  if (out->num_shards == 0 || out->shard_id >= out->num_shards) {
    return Status::Corruption("load request shard id out of range");
  }
  if (out->num_threads == 0 || out->num_threads > 4096) {
    return Status::Corruption("implausible worker thread count");
  }
  if (out->inline_payload) {
    CSCE_RETURN_IF_ERROR(
        DecodeGraph(&r, /*pattern=*/false, &out->shard_graph));
    CSCE_RETURN_IF_ERROR(r.VecU32(&out->owner));
    for (uint32_t o : out->owner) {
      if (o >= out->num_shards) {
        return Status::Corruption("owner table entry out of range");
      }
    }
  } else {
    CSCE_RETURN_IF_ERROR(r.Str(&out->ccsr_path, 1u << 16));
    CSCE_RETURN_IF_ERROR(r.Str(&out->plan_path, 1u << 16));
    uint8_t use_mmap = 0;
    CSCE_RETURN_IF_ERROR(r.U8(&use_mmap));
    out->use_mmap = use_mmap != 0;
    CSCE_RETURN_IF_ERROR(r.U64(&out->memory_cap_bytes));
  }
  return r.ExpectEnd();
}

// --- Graph / Plan -----------------------------------------------------

void EncodeGraph(const Graph& g, PayloadWriter* w) {
  w->U8(g.directed() ? 1 : 0);
  w->U32(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) w->U32(g.VertexLabel(v));
  w->U64(g.NumEdges());
  g.ForEachEdge([&](const Edge& e) {
    w->U32(e.src);
    w->U32(e.dst);
    w->U32(e.elabel);
  });
}

Status DecodeGraph(PayloadReader* r, bool pattern, Graph* out) {
  constexpr size_t kVertexBytes = sizeof(uint32_t);
  constexpr size_t kEdgeBytes = 3 * sizeof(uint32_t);
  uint8_t directed = 0;
  uint32_t nv = 0;
  uint64_t ne = 0;
  CSCE_RETURN_IF_ERROR(r->U8(&directed));
  CSCE_RETURN_IF_ERROR(r->U32(&nv));
  if (nv > r->remaining() / kVertexBytes ||
      (pattern && nv > kMaxPatternVertices)) {
    return Status::Corruption("implausible graph vertex count");
  }
  GraphBuilder builder(directed != 0);
  for (uint32_t v = 0; v < nv; ++v) {
    uint32_t label = 0;
    CSCE_RETURN_IF_ERROR(r->U32(&label));
    if (label > kMaxLabelValue) {
      return Status::Corruption("implausible graph vertex label");
    }
    builder.AddVertex(label);
  }
  CSCE_RETURN_IF_ERROR(r->U64(&ne));
  if (ne > r->remaining() / kEdgeBytes ||
      (pattern && ne > kMaxPatternEdges)) {
    return Status::Corruption("implausible graph edge count");
  }
  for (uint64_t i = 0; i < ne; ++i) {
    uint32_t src = 0, dst = 0, elabel = 0;
    CSCE_RETURN_IF_ERROR(r->U32(&src));
    CSCE_RETURN_IF_ERROR(r->U32(&dst));
    CSCE_RETURN_IF_ERROR(r->U32(&elabel));
    if (src >= nv || dst >= nv) {
      return Status::Corruption("graph edge endpoint out of range");
    }
    if (elabel > kMaxLabelValue) {
      return Status::Corruption("implausible graph edge label");
    }
    builder.AddEdge(src, dst, elabel);
  }
  // GraphBuilder::Build re-validates (self-loops etc.) — the last line
  // of defense for wire-supplied graphs.
  Status st = builder.Build(out);
  if (!st.ok()) return Status::Corruption("wire graph: " + st.message());
  return Status::OK();
}

namespace {

void EncodeClusterId(const ClusterId& id, PayloadWriter* w) {
  w->U32(id.src_label);
  w->U32(id.dst_label);
  w->U32(id.elabel);
  w->U8(id.directed ? 1 : 0);
}

Status DecodeClusterId(PayloadReader* r, ClusterId* out) {
  uint8_t directed = 0;
  CSCE_RETURN_IF_ERROR(r->U32(&out->src_label));
  CSCE_RETURN_IF_ERROR(r->U32(&out->dst_label));
  CSCE_RETURN_IF_ERROR(r->U32(&out->elabel));
  CSCE_RETURN_IF_ERROR(r->U8(&directed));
  out->directed = directed != 0;
  return Status::OK();
}

}  // namespace

void EncodePlan(const Plan& plan, PayloadWriter* w) {
  w->U8(static_cast<uint8_t>(plan.variant));
  w->U8(plan.use_sce ? 1 : 0);
  w->U8(static_cast<uint8_t>((plan.prune.fs ? 2 : 0) |
                             (plan.prune.lpi ? 4 : 0)));
  w->VecU32(plan.order);
  w->U32(static_cast<uint32_t>(plan.positions.size()));
  for (const PlanPosition& pos : plan.positions) {
    w->U32(pos.u);
    w->U32(pos.label);
    w->U32(static_cast<uint32_t>(pos.edges.size()));
    for (const EdgeConstraint& e : pos.edges) {
      w->U32(e.pos);
      EncodeClusterId(e.cluster, w);
      w->U8(e.incoming ? 1 : 0);
    }
    w->U32(static_cast<uint32_t>(pos.negations.size()));
    for (const NegConstraint& c : pos.negations) {
      w->U32(c.pos);
      w->U8(c.forbid_to ? 1 : 0);
      w->U8(c.forbid_from ? 1 : 0);
      w->U32(c.other_label);
    }
    w->VecU32(pos.deps);
    w->U32(static_cast<uint32_t>(pos.cache_alias));
    w->U8(pos.seed_valid ? 1 : 0);
    EncodeClusterId(pos.seed_cluster, w);
    w->U8(pos.seed_use_sources ? 1 : 0);
    w->U32(pos.min_out_degree);
    w->U32(pos.min_in_degree);
    w->U64(pos.lpi_req_out);
    w->U64(pos.lpi_req_in);
  }
}

Status DecodePlan(PayloadReader* r, Plan* out) {
  *out = Plan{};
  uint8_t variant = 0, use_sce = 0;
  CSCE_RETURN_IF_ERROR(r->U8(&variant));
  if (variant > 2) return Status::Corruption("unknown match variant");
  out->variant = static_cast<MatchVariant>(variant);
  CSCE_RETURN_IF_ERROR(r->U8(&use_sce));
  out->use_sce = use_sce != 0;
  uint8_t prune_bits = 0;
  CSCE_RETURN_IF_ERROR(r->U8(&prune_bits));
  if ((prune_bits & ~6) != 0) {
    return Status::Corruption("unknown prune pass bits");
  }
  out->prune.fs = (prune_bits & 2) != 0;
  out->prune.lpi = (prune_bits & 4) != 0;
  CSCE_RETURN_IF_ERROR(r->VecU32(&out->order));
  uint32_t npos = 0;
  CSCE_RETURN_IF_ERROR(r->U32(&npos));
  if (npos != out->order.size() || npos > kMaxPatternVertices) {
    return Status::Corruption("plan position count mismatch");
  }
  out->positions.resize(npos);
  for (uint32_t j = 0; j < npos; ++j) {
    PlanPosition& pos = out->positions[j];
    uint32_t nedges = 0, nnegs = 0, alias = 0;
    uint8_t flag = 0;
    CSCE_RETURN_IF_ERROR(r->U32(&pos.u));
    CSCE_RETURN_IF_ERROR(r->U32(&pos.label));
    CSCE_RETURN_IF_ERROR(r->U32(&nedges));
    if (nedges > npos) return Status::Corruption("implausible edge count");
    pos.edges.resize(nedges);
    for (EdgeConstraint& e : pos.edges) {
      CSCE_RETURN_IF_ERROR(r->U32(&e.pos));
      if (e.pos >= j) {
        return Status::Corruption("edge constraint not backward");
      }
      CSCE_RETURN_IF_ERROR(DecodeClusterId(r, &e.cluster));
      CSCE_RETURN_IF_ERROR(r->U8(&flag));
      e.incoming = flag != 0;
    }
    CSCE_RETURN_IF_ERROR(r->U32(&nnegs));
    if (nnegs > npos) return Status::Corruption("implausible negation count");
    pos.negations.resize(nnegs);
    for (NegConstraint& c : pos.negations) {
      CSCE_RETURN_IF_ERROR(r->U32(&c.pos));
      if (c.pos >= j) {
        return Status::Corruption("negation constraint not backward");
      }
      CSCE_RETURN_IF_ERROR(r->U8(&flag));
      c.forbid_to = flag != 0;
      CSCE_RETURN_IF_ERROR(r->U8(&flag));
      c.forbid_from = flag != 0;
      CSCE_RETURN_IF_ERROR(r->U32(&c.other_label));
    }
    CSCE_RETURN_IF_ERROR(r->VecU32(&pos.deps));
    for (size_t i = 0; i < pos.deps.size(); ++i) {
      if (pos.deps[i] >= j || (i > 0 && pos.deps[i] <= pos.deps[i - 1])) {
        return Status::Corruption("plan deps not sorted backward refs");
      }
    }
    CSCE_RETURN_IF_ERROR(r->U32(&alias));
    // 0xFFFFFFFF encodes "no alias" (-1); anything else must name an
    // earlier position.
    if (alias != 0xFFFFFFFFu && alias >= j) {
      return Status::Corruption("cache alias not an earlier position");
    }
    pos.cache_alias = static_cast<int32_t>(alias);
    CSCE_RETURN_IF_ERROR(r->U8(&flag));
    pos.seed_valid = flag != 0;
    CSCE_RETURN_IF_ERROR(DecodeClusterId(r, &pos.seed_cluster));
    CSCE_RETURN_IF_ERROR(r->U8(&flag));
    pos.seed_use_sources = flag != 0;
    CSCE_RETURN_IF_ERROR(r->U32(&pos.min_out_degree));
    CSCE_RETURN_IF_ERROR(r->U32(&pos.min_in_degree));
    CSCE_RETURN_IF_ERROR(r->U64(&pos.lpi_req_out));
    CSCE_RETURN_IF_ERROR(r->U64(&pos.lpi_req_in));
  }
  return Status::OK();
}

// --- PlanRequest ------------------------------------------------------

std::string EncodePlanRequest(const PlanRequest& msg) {
  PayloadWriter w;
  EncodeGraph(msg.pattern, &w);
  EncodePlan(msg.plan, &w);
  w.U8(static_cast<uint8_t>(msg.variant));
  w.U8(msg.verify_sce ? 1 : 0);
  w.U8(msg.emit_embeddings ? 1 : 0);
  w.F64(msg.time_limit_seconds);
  return w.Take();
}

Status DecodePlanRequest(std::string_view payload, PlanRequest* out) {
  *out = PlanRequest{};
  PayloadReader r(payload);
  CSCE_RETURN_IF_ERROR(DecodeGraph(&r, /*pattern=*/true, &out->pattern));
  CSCE_RETURN_IF_ERROR(DecodePlan(&r, &out->plan));
  uint8_t variant = 0, verify = 0, emit = 0;
  CSCE_RETURN_IF_ERROR(r.U8(&variant));
  if (variant > 2) return Status::Corruption("unknown match variant");
  out->variant = static_cast<MatchVariant>(variant);
  CSCE_RETURN_IF_ERROR(r.U8(&verify));
  out->verify_sce = verify != 0;
  CSCE_RETURN_IF_ERROR(r.U8(&emit));
  out->emit_embeddings = emit != 0;
  CSCE_RETURN_IF_ERROR(r.F64(&out->time_limit_seconds));
  // Cross-checks the plan against the pattern it travels with: every
  // position must name a pattern vertex with the advertised label.
  const uint32_t nv = out->pattern.NumVertices();
  if (out->plan.positions.size() > nv) {
    return Status::Corruption("plan longer than the pattern");
  }
  for (const PlanPosition& pos : out->plan.positions) {
    if (pos.u >= nv || out->pattern.VertexLabel(pos.u) != pos.label) {
      return Status::Corruption("plan position does not match the pattern");
    }
  }
  return r.ExpectEnd();
}

// --- TaskBatch --------------------------------------------------------

std::string EncodeTaskBatch(const TaskBatch& msg) {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(msg.tasks.size()));
  for (const ShardTask& t : msg.tasks) {
    w.U8(static_cast<uint8_t>(t.kind));
    w.U32(t.target_shard);
    w.U32(t.depth);
    w.VecU32(t.mapping);
    w.VecU32(t.candidates);
  }
  return w.Take();
}

Status DecodeTaskBatch(std::string_view payload, TaskBatch* out) {
  out->tasks.clear();
  PayloadReader r(payload);
  uint32_t count = 0;
  CSCE_RETURN_IF_ERROR(r.U32(&count));
  if (count > kMaxTasks) return Status::Corruption("implausible task count");
  // Conservative floor: each task needs at least its fixed fields.
  if (r.remaining() < static_cast<size_t>(count) * 17) {
    return Status::Corruption("task count not backed by payload bytes");
  }
  out->tasks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShardTask t;
    uint8_t kind = 0;
    CSCE_RETURN_IF_ERROR(r.U8(&kind));
    if (kind > 2) return Status::Corruption("unknown shard task kind");
    t.kind = static_cast<ShardTask::Kind>(kind);
    CSCE_RETURN_IF_ERROR(r.U32(&t.target_shard));
    CSCE_RETURN_IF_ERROR(r.U32(&t.depth));
    CSCE_RETURN_IF_ERROR(r.VecU32(&t.mapping));
    CSCE_RETURN_IF_ERROR(r.VecU32(&t.candidates));
    if (t.depth == 0 || t.mapping.size() != t.depth) {
      return Status::Corruption("task mapping does not match its depth");
    }
    if (t.kind != ShardTask::Kind::kVerify && !t.candidates.empty()) {
      return Status::Corruption("unexpected candidates on non-verify task");
    }
    out->tasks.push_back(std::move(t));
  }
  return r.ExpectEnd();
}

// --- ResultMsg --------------------------------------------------------

std::string EncodeResultMsg(const ResultMsg& msg) {
  PayloadWriter w;
  w.U64(msg.embeddings);
  w.U64(msg.search_nodes);
  w.U64(msg.candidate_sets_computed);
  w.U64(msg.candidate_sets_reused);
  w.U64(msg.morsels_claimed);
  w.U64(msg.prune_candidates_removed);
  w.U64(msg.prune_extensions_skipped);
  w.U8(msg.timed_out ? 1 : 0);
  w.U8(msg.cancelled ? 1 : 0);
  w.U8(msg.limit_reached ? 1 : 0);
  w.F64(msg.seconds);
  w.U32(msg.embedding_width);
  w.VecU32(msg.embedding_data);
  return w.Take();
}

Status DecodeResultMsg(std::string_view payload, ResultMsg* out) {
  *out = ResultMsg{};
  PayloadReader r(payload);
  uint8_t flag = 0;
  CSCE_RETURN_IF_ERROR(r.U64(&out->embeddings));
  CSCE_RETURN_IF_ERROR(r.U64(&out->search_nodes));
  CSCE_RETURN_IF_ERROR(r.U64(&out->candidate_sets_computed));
  CSCE_RETURN_IF_ERROR(r.U64(&out->candidate_sets_reused));
  CSCE_RETURN_IF_ERROR(r.U64(&out->morsels_claimed));
  CSCE_RETURN_IF_ERROR(r.U64(&out->prune_candidates_removed));
  CSCE_RETURN_IF_ERROR(r.U64(&out->prune_extensions_skipped));
  CSCE_RETURN_IF_ERROR(r.U8(&flag));
  out->timed_out = flag != 0;
  CSCE_RETURN_IF_ERROR(r.U8(&flag));
  out->cancelled = flag != 0;
  CSCE_RETURN_IF_ERROR(r.U8(&flag));
  out->limit_reached = flag != 0;
  CSCE_RETURN_IF_ERROR(r.F64(&out->seconds));
  CSCE_RETURN_IF_ERROR(r.U32(&out->embedding_width));
  CSCE_RETURN_IF_ERROR(r.VecU32(&out->embedding_data));
  if (out->embedding_width == 0 ? !out->embedding_data.empty()
                                : out->embedding_data.size() %
                                          out->embedding_width !=
                                      0) {
    return Status::Corruption("embedding data not a multiple of the width");
  }
  return r.ExpectEnd();
}

// --- StatsResult / ErrorMsg -------------------------------------------

std::string EncodeStatsResult(const StatsResult& msg) {
  PayloadWriter w;
  w.Str(msg.metrics_json);
  return w.Take();
}

Status DecodeStatsResult(std::string_view payload, StatsResult* out) {
  PayloadReader r(payload);
  CSCE_RETURN_IF_ERROR(r.Str(&out->metrics_json));
  return r.ExpectEnd();
}

std::string EncodeError(const Status& status) {
  PayloadWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload, ErrorMsg* out) {
  PayloadReader r(payload);
  CSCE_RETURN_IF_ERROR(r.U32(&out->code));
  CSCE_RETURN_IF_ERROR(r.Str(&out->message, 1u << 20));
  return r.ExpectEnd();
}

Status ErrorToStatus(const ErrorMsg& msg) {
  if (msg.code == 0 || msg.code > static_cast<uint32_t>(
                                      StatusCode::kResourceExhausted)) {
    return Status::Corruption("peer error: " + msg.message);
  }
  return Status(static_cast<StatusCode>(msg.code), msg.message);
}

}  // namespace wire
}  // namespace shard
}  // namespace csce
