// Traced mode: in-memory spans recorded from the benchmark's own files
// around calls into each layer, and the recorders that produce them — an
// EventSink for router rounds and a forwarding ShardTransport for dist/.
// Spans are kept in memory and written out as JSON when the run ends; a
// span's self time is its duration minus the part its children cover.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/cdst.h"
#include "dist/transport.h"
#include "report.h"

namespace perfbench {

class Tracer {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kNone = -1;

  Tracer() : epoch_(Clock::now()) {}

  /// Records a finished span; thread-safe. `name` must be a string literal
  /// (spans keep the pointer).
  SpanId record(const char* name, Clock::time_point start,
                Clock::time_point end, SpanId parent = kNone,
                std::int64_t request = -1);
  /// Opens a span starting now, so children can name it as their parent
  /// before it ends; close() sets its end.
  SpanId open(const char* name, SpanId parent = kNone,
              std::int64_t request = -1);
  void close(SpanId id);

  std::size_t size() const;
  /// Self time summed per span name, in milliseconds.
  std::map<std::string, double> self_time_ms() const;
  /// Writes every span as a JSON array of {name, start_us, end_us, parent,
  /// request, self_us}. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    SpanId parent;
    std::int64_t request;
  };
  std::vector<double> self_times_us() const;  // requires mu_

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point epoch_;
};

/// Records a span from construction to destruction; a null tracer makes it
/// a no-op, so untraced passes share the code path at the cost of a branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             Tracer::SpanId parent = Tracer::kNone, std::int64_t request = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent, request)
                              : Tracer::kNone) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Tracer::SpanId id() const { return id_; }
  /// Ends the span now (idempotent).
  void close() {
    if (tracer_ != nullptr) tracer_->close(id_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_;
};

/// EventSink recorder for Router runs: batch, barrier and shard timings
/// taken at the event boundaries the router emits. Installing any sink
/// makes the router compute ACE4 at every round barrier, which is part of
/// the tracing overhead the traced run reports.
class RouteRecorder final : public cdst::EventSink {
 public:
  explicit RouteRecorder(Tracer* tracer) : tracer_(tracer) {}

  /// Marks the start of a run() call under span `parent`.
  void start_run(Tracer::SpanId parent);

  void on_router_round(const cdst::RouterRoundEvent& event) override;
  void on_router_shard(const cdst::RouterShardEvent& event) override;

  std::vector<double> batch_ms;    ///< batch boundary to batch boundary
  std::vector<double> barrier_ms;  ///< last batch/shard event to barrier
  std::vector<double> shard_ms;    ///< per shard dispatch wall time
  std::vector<double> shard_imbalance;  ///< per round max/mean shard time
  std::uint64_t nets_routed{0};    ///< nets committed at round barriers

 private:
  Tracer* tracer_;
  Tracer::SpanId parent_{Tracer::kNone};
  Clock::time_point last_{};
  std::vector<double> round_shards_;
};

/// Forwarding ShardTransport: counts every dispatch (and failure) always,
/// and when a tracer is set also times configure / begin_round / dispatch
/// and computes message sizes from to_bytes(). Thread-safe like the
/// transport it wraps.
class CountingTransport final : public cdst::dist::ShardTransport {
 public:
  explicit CountingTransport(cdst::dist::ShardTransport& inner)
      : inner_(inner) {}

  /// Traces the following calls under span `parent` (null: counting only).
  /// Not concurrent with any transport call.
  void set_tracer(Tracer* tracer, Tracer::SpanId parent = Tracer::kNone) {
    tracer_ = tracer;
    parent_ = parent;
  }

  const char* name() const override { return inner_.name(); }
  cdst::Status configure(const cdst::dist::WorkerSetupMsg& setup) override;
  cdst::Status begin_round(const cdst::dist::PriceSnapshotMsg& snap) override;
  cdst::StatusOr<cdst::dist::ShardResultMsg> dispatch(
      const cdst::dist::ShardWorkMsg& work) override;

  std::atomic<std::uint64_t> dispatches{0};
  std::atomic<std::uint64_t> dispatch_failed{0};

  // Traced only. Guarded by mu_ once dispatches run concurrently.
  std::mutex mu;
  std::vector<double> configure_ms;
  std::vector<double> begin_round_ms;
  std::vector<double> dispatch_ms;
  std::uint64_t rounds{0};
  std::uint64_t bytes{0};  ///< computed: snapshot + work + result sizes

 private:
  cdst::dist::ShardTransport& inner_;
  Tracer* tracer_{nullptr};
  Tracer::SpanId parent_{Tracer::kNone};
};

}  // namespace perfbench
