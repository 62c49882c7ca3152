#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

using namespace cdst;

Tracer::SpanId Tracer::record(const char* name, Clock::time_point start,
                              Clock::time_point end, SpanId parent,
                              std::int64_t request) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<SpanId>(spans_.size() - 1);
}

Tracer::SpanId Tracer::open(const char* name, SpanId parent,
                            std::int64_t request) {
  const Clock::time_point now = Clock::now();
  return record(name, now, now, parent, request);
}

void Tracer::close(SpanId id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::self_times_us() const {
  // Children of one parent may overlap (concurrent dispatches), so a span's
  // covered time is the union of its children's intervals, clipped to it.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = 1e6 * std::chrono::duration<double>(s.end - s.start - covered)
                        .count();
  }
  return self;
}

std::map<std::string, double> Tracer::self_time_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = self_times_us();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i] / 1e3;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times_us();
  const auto us = [&](Clock::time_point t) {
    return 1e6 * std::chrono::duration<double>(t - epoch_).count();
  };
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %lld, \"request\": %lld, \"self_us\": %.3f}",
                 i == 0 ? "" : ",\n", s.name, us(s.start), us(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), self[i]);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

void RouteRecorder::start_run(Tracer::SpanId parent) {
  parent_ = parent;
  last_ = Clock::now();
  round_shards_.clear();
}

void RouteRecorder::on_router_round(const RouterRoundEvent& event) {
  const Clock::time_point now = Clock::now();
  if (event.cancelled) return;
  if (event.round_complete) {
    barrier_ms.push_back(ms_between(last_, now));
    if (tracer_ != nullptr) {
      tracer_->record("route.barrier", last_, now, parent_);
    }
    nets_routed += event.nets_done;
    if (!round_shards_.empty()) {
      double max = 0.0, sum = 0.0;
      for (const double t : round_shards_) {
        max = std::max(max, t);
        sum += t;
      }
      if (sum > 0.0) {
        shard_imbalance.push_back(
            max / (sum / static_cast<double>(round_shards_.size())));
      }
      round_shards_.clear();
    }
  } else {
    // The first batch of a round also carries the Lagrangean weight step
    // that precedes it.
    batch_ms.push_back(ms_between(last_, now));
    if (tracer_ != nullptr) tracer_->record("route.batch", last_, now, parent_);
  }
  last_ = now;
}

void RouteRecorder::on_router_shard(const RouterShardEvent& event) {
  const double ms = 1e3 * event.dispatch_seconds;
  shard_ms.push_back(ms);
  round_shards_.push_back(ms);
  last_ = Clock::now();
}

Status CountingTransport::configure(const dist::WorkerSetupMsg& setup) {
  if (tracer_ == nullptr) return inner_.configure(setup);
  const Clock::time_point t0 = Clock::now();
  const Status st = inner_.configure(setup);
  const Clock::time_point t1 = Clock::now();
  tracer_->record("dist.configure", t0, t1, parent_);
  const std::lock_guard<std::mutex> lock(mu);
  configure_ms.push_back(ms_between(t0, t1));
  return st;
}

Status CountingTransport::begin_round(const dist::PriceSnapshotMsg& snap) {
  if (tracer_ == nullptr) return inner_.begin_round(snap);
  const Clock::time_point t0 = Clock::now();
  const Status st = inner_.begin_round(snap);
  const Clock::time_point t1 = Clock::now();
  tracer_->record("dist.begin_round", t0, t1, parent_);
  const std::size_t size = snap.to_bytes().size();
  const std::lock_guard<std::mutex> lock(mu);
  begin_round_ms.push_back(ms_between(t0, t1));
  ++rounds;
  bytes += size;
  return st;
}

StatusOr<dist::ShardResultMsg> CountingTransport::dispatch(
    const dist::ShardWorkMsg& work) {
  dispatches.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ == nullptr) {
    StatusOr<dist::ShardResultMsg> r = inner_.dispatch(work);
    if (!r.ok()) dispatch_failed.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  const Clock::time_point t0 = Clock::now();
  StatusOr<dist::ShardResultMsg> r = inner_.dispatch(work);
  const Clock::time_point t1 = Clock::now();
  tracer_->record("dist.dispatch", t0, t1, parent_);
  if (!r.ok()) dispatch_failed.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size =
      work.to_bytes().size() + (r.ok() ? r.value().to_bytes().size() : 0);
  const std::lock_guard<std::mutex> lock(mu);
  dispatch_ms.push_back(ms_between(t0, t1));
  bytes += size;
  return r;
}

}  // namespace perfbench
