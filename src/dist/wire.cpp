#include "dist/wire.h"

#include <string>

#include "util/wire.h"

namespace cdst::dist {
namespace {

using wire::Reader;

// Small field codecs shared by the message bodies. Every read goes through
// the bounds-checked Reader; invalid enum/bool encodings fail the reader so
// the caller's single ok/consumption check rejects the whole message.

void put_bool(std::vector<std::uint8_t>& out, bool v) {
  wire::put_u8(out, v ? 1 : 0);
}

bool read_bool(Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) r.ok = false;
  return v != 0;
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  wire::put_u32(out, static_cast<std::uint32_t>(v));
}

std::int32_t read_i32(Reader& r) {
  return static_cast<std::int32_t>(r.u32());
}

void put_point3(std::vector<std::uint8_t>& out, const Point3& p) {
  put_i32(out, p.x);
  put_i32(out, p.y);
  put_i32(out, p.z);
}

Point3 read_point3(Reader& r) {
  Point3 p;
  p.x = read_i32(r);
  p.y = read_i32(r);
  p.z = read_i32(r);
  return p;
}

/// Maps the mandatory header check onto the message's kInvalidArgument
/// vocabulary (satisfies lint rule `wire-format`: callers run this before
/// any field read).
Status expect_header_status(Reader& r, std::uint32_t magic,
                            const char* name) {
  switch (wire::expect_header(r, magic, kDistWireVersion)) {
    case wire::HeaderCheck::kBadMagic:
      return Status::InvalidArgument(std::string(name) + ": bad magic");
    case wire::HeaderCheck::kBadVersion:
      return Status::InvalidArgument(std::string(name) +
                                     ": unsupported version");
    case wire::HeaderCheck::kOk:
      break;
  }
  return Status::Ok();
}

/// The final gate of every parse: all reads succeeded and the payload is
/// exactly consumed (trailing bytes are as invalid as missing ones).
bool consumed(const Reader& r) {
  return r.ok && r.pos == r.bytes.size();
}

Status truncated(const char* name) {
  return Status::InvalidArgument(std::string(name) +
                                 ": truncated, corrupt or trailing bytes");
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerSetupMsg

std::vector<std::uint8_t> WorkerSetupMsg::to_bytes() const {
  std::vector<std::uint8_t> out;
  wire::put_header(out, kWorkerSetupMagic, kDistWireVersion);
  put_i32(out, nx);
  put_i32(out, ny);
  wire::put_u64(out, layers.size());
  for (const LayerSpec& layer : layers) {
    wire::put_str(out, layer.name);
    wire::put_u8(out, static_cast<std::uint8_t>(layer.dir));
    wire::put_f64(out, layer.capacity);
    wire::put_u64(out, layer.wire_types.size());
    for (const WireType& wt : layer.wire_types) {
      wire::put_str(out, wt.name);
      wire::put_f64(out, wt.width);
      wire::put_f64(out, wt.unit_cost);
      wire::put_f64(out, wt.delay_per_gcell);
    }
    wire::put_f64(out, layer.r_per_gcell);
    wire::put_f64(out, layer.c_per_gcell);
  }
  wire::put_f64(out, via.width);
  wire::put_f64(out, via.unit_cost);
  wire::put_f64(out, via.delay);
  wire::put_str(out, netlist.name);
  wire::put_u64(out, netlist.nets.size());
  for (const Net& net : netlist.nets) {
    wire::put_u32(out, net.id);
    put_point3(out, net.source);
    wire::put_u64(out, net.sinks.size());
    for (const SinkPin& sink : net.sinks) {
      put_point3(out, sink.pos);
      wire::put_f64(out, sink.rat);
    }
  }
  wire::put_u8(out, static_cast<std::uint8_t>(method));
  wire::put_f64(out, oracle.dbif);
  wire::put_f64(out, oracle.eta);
  put_i32(out, oracle.window_margin);
  wire::put_f64(out, oracle.window_margin_frac);
  // SolverOptions knobs, pointer members excluded (see header comment).
  put_bool(out, oracle.cd.discount_components);
  put_bool(out, oracle.cd.use_astar);
  put_bool(out, oracle.cd.better_steiner_placement);
  put_bool(out, oracle.cd.encourage_root);
  wire::put_u64(out, oracle.cd.dense_state_budget_bytes);
  wire::put_u8(out, static_cast<std::uint8_t>(oracle.cd.queue));
  wire::put_f64(out, congestion.price_at_full);
  wire::put_u64(out, options_seed);
  return out;
}

StatusOr<WorkerSetupMsg> WorkerSetupMsg::from_bytes(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (Status st = expect_header_status(r, kWorkerSetupMagic, "worker setup");
      !st.ok()) {
    return st;
  }
  WorkerSetupMsg msg;
  msg.nx = read_i32(r);
  msg.ny = read_i32(r);
  const std::uint64_t n_layers = r.u64();
  if (!r.fits(n_layers, 1)) return truncated("worker setup");
  msg.layers.reserve(n_layers);
  for (std::uint64_t i = 0; i < n_layers && r.ok; ++i) {
    LayerSpec layer;
    wire::read_str(r, layer.name);
    const std::uint8_t dir = r.u8();
    if (dir > 1) r.ok = false;
    layer.dir = static_cast<LayerDir>(dir);
    layer.capacity = r.f64();
    const std::uint64_t n_types = r.u64();
    if (!r.fits(n_types, 1)) break;
    layer.wire_types.reserve(n_types);
    for (std::uint64_t t = 0; t < n_types && r.ok; ++t) {
      WireType wt;
      wire::read_str(r, wt.name);
      wt.width = r.f64();
      wt.unit_cost = r.f64();
      wt.delay_per_gcell = r.f64();
      layer.wire_types.push_back(std::move(wt));
    }
    layer.r_per_gcell = r.f64();
    layer.c_per_gcell = r.f64();
    msg.layers.push_back(std::move(layer));
  }
  msg.via.width = r.f64();
  msg.via.unit_cost = r.f64();
  msg.via.delay = r.f64();
  wire::read_str(r, msg.netlist.name);
  const std::uint64_t n_nets = r.u64();
  if (!r.fits(n_nets, 1)) return truncated("worker setup");
  msg.netlist.nets.reserve(n_nets);
  for (std::uint64_t i = 0; i < n_nets && r.ok; ++i) {
    Net net;
    net.id = r.u32();
    net.source = read_point3(r);
    const std::uint64_t n_sinks = r.u64();
    if (!r.fits(n_sinks, 1)) break;
    net.sinks.reserve(n_sinks);
    for (std::uint64_t s = 0; s < n_sinks && r.ok; ++s) {
      SinkPin sink;
      sink.pos = read_point3(r);
      sink.rat = r.f64();
      net.sinks.push_back(sink);
    }
    msg.netlist.nets.push_back(std::move(net));
  }
  const std::uint8_t method = r.u8();
  if (method > static_cast<std::uint8_t>(SteinerMethod::kCD)) r.ok = false;
  msg.method = static_cast<SteinerMethod>(method);
  msg.oracle.dbif = r.f64();
  msg.oracle.eta = r.f64();
  msg.oracle.window_margin = read_i32(r);
  msg.oracle.window_margin_frac = r.f64();
  msg.oracle.cd.discount_components = read_bool(r);
  msg.oracle.cd.use_astar = read_bool(r);
  msg.oracle.cd.better_steiner_placement = read_bool(r);
  msg.oracle.cd.encourage_root = read_bool(r);
  msg.oracle.cd.dense_state_budget_bytes = r.u64();
  const std::uint8_t queue = r.u8();
  if (queue > static_cast<std::uint8_t>(QueueKind::kSingleLazy)) r.ok = false;
  msg.oracle.cd.queue = static_cast<QueueKind>(queue);
  msg.congestion.price_at_full = r.f64();
  msg.options_seed = r.u64();
  if (!consumed(r)) return truncated("worker setup");
  if (msg.nx < 1 || msg.ny < 1 || msg.layers.empty()) {
    return Status::InvalidArgument("worker setup: degenerate grid geometry");
  }
  return msg;
}

// ---------------------------------------------------------------------------
// PriceSnapshotMsg

std::vector<std::uint8_t> PriceSnapshotMsg::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(24 + usage.size() * 8);
  wire::put_header(out, kPriceSnapshotMagic, kDistWireVersion);
  put_i32(out, round);
  wire::put_vec(out, usage);
  return out;
}

StatusOr<PriceSnapshotMsg> PriceSnapshotMsg::from_bytes(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (Status st =
          expect_header_status(r, kPriceSnapshotMagic, "price snapshot");
      !st.ok()) {
    return st;
  }
  PriceSnapshotMsg msg;
  msg.round = read_i32(r);
  wire::read_vec(r, msg.usage);
  if (!consumed(r)) return truncated("price snapshot");
  return msg;
}

// ---------------------------------------------------------------------------
// ShardWorkMsg

std::vector<std::uint8_t> ShardWorkMsg::to_bytes() const {
  std::vector<std::uint8_t> out;
  wire::put_header(out, kShardWorkMagic, kDistWireVersion);
  put_i32(out, round);
  put_i32(out, shard);
  wire::put_u64(out, nets.size());
  for (const NetWork& nw : nets) {
    wire::put_u32(out, nw.net);
    wire::put_vec(out, nw.sink_weights);
    wire::put_vec(out, nw.route_edges);
  }
  return out;
}

StatusOr<ShardWorkMsg> ShardWorkMsg::from_bytes(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (Status st = expect_header_status(r, kShardWorkMagic, "shard work");
      !st.ok()) {
    return st;
  }
  ShardWorkMsg msg;
  msg.round = read_i32(r);
  msg.shard = read_i32(r);
  const std::uint64_t n_nets = r.u64();
  if (!r.fits(n_nets, 1)) return truncated("shard work");
  msg.nets.reserve(n_nets);
  for (std::uint64_t i = 0; i < n_nets && r.ok; ++i) {
    NetWork nw;
    nw.net = r.u32();
    wire::read_vec(r, nw.sink_weights);
    wire::read_vec(r, nw.route_edges);
    msg.nets.push_back(std::move(nw));
  }
  if (!consumed(r)) return truncated("shard work");
  return msg;
}

// ---------------------------------------------------------------------------
// ShardResultMsg

std::vector<std::uint8_t> ShardResultMsg::to_bytes() const {
  std::vector<std::uint8_t> out;
  wire::put_header(out, kShardResultMagic, kDistWireVersion);
  put_i32(out, round);
  put_i32(out, shard);
  wire::put_u64(out, nets.size());
  for (const NetResult& nr : nets) {
    wire::put_u32(out, nr.net);
    wire::put_vec(out, nr.route_edges);
    wire::put_vec(out, nr.sink_delays);
  }
  return out;
}

StatusOr<ShardResultMsg> ShardResultMsg::from_bytes(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (Status st = expect_header_status(r, kShardResultMagic, "shard result");
      !st.ok()) {
    return st;
  }
  ShardResultMsg msg;
  msg.round = read_i32(r);
  msg.shard = read_i32(r);
  const std::uint64_t n_nets = r.u64();
  if (!r.fits(n_nets, 1)) return truncated("shard result");
  msg.nets.reserve(n_nets);
  for (std::uint64_t i = 0; i < n_nets && r.ok; ++i) {
    NetResult nr;
    nr.net = r.u32();
    wire::read_vec(r, nr.route_edges);
    wire::read_vec(r, nr.sink_delays);
    msg.nets.push_back(std::move(nr));
  }
  if (!consumed(r)) return truncated("shard result");
  return msg;
}

// ---------------------------------------------------------------------------
// WorkerErrorMsg

std::vector<std::uint8_t> WorkerErrorMsg::to_bytes() const {
  std::vector<std::uint8_t> out;
  wire::put_header(out, kWorkerErrorMagic, kDistWireVersion);
  wire::put_u8(out, static_cast<std::uint8_t>(code));
  wire::put_str(out, message);
  return out;
}

StatusOr<WorkerErrorMsg> WorkerErrorMsg::from_bytes(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  if (Status st = expect_header_status(r, kWorkerErrorMagic, "worker error");
      !st.ok()) {
    return st;
  }
  WorkerErrorMsg msg;
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(StatusCode::kUnavailable)) {
    r.ok = false;
  }
  msg.code = static_cast<StatusCode>(code);
  wire::read_str(r, msg.message);
  if (!consumed(r)) return truncated("worker error");
  if (msg.code == StatusCode::kOk) {
    return Status::InvalidArgument("worker error: OK is not an error");
  }
  return msg;
}

Status WorkerErrorMsg::to_status() const {
  switch (code) {
    case StatusCode::kOk:
      break;  // unreachable via from_bytes; fall through to kInternal
    case StatusCode::kCancelled:
      return Status::Cancelled(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kDeadlineExceeded:
      // A worker's deadline/budget verdicts re-enter this process as typed
      // transport failures, not as this process's own deadline/budget
      // verdicts, so the retry machinery treats them like any remote error
      // (and rule `status-origin` keeps the canonical origins unique).
      return Status::Internal("worker reported DEADLINE_EXCEEDED: " +
                              message);
    case StatusCode::kResourceExhausted:
      return Status::Internal("worker reported RESOURCE_EXHAUSTED: " +
                              message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
  }
  return Status::Internal(message);
}

WorkerErrorMsg WorkerErrorMsg::from_status(const Status& status) {
  WorkerErrorMsg msg;
  msg.code = status.ok() ? StatusCode::kInternal : status.code();
  msg.message = status.message();
  return msg;
}

}  // namespace cdst::dist
