// The four workloads. Each runs its set-up several times (reporting the
// median as setup_s), then timed passes for the configured seconds, and
// checks every output it produces. Untraced runs report the end-to-end
// metrics; traced runs alternate untraced and traced passes and report the
// per-layer figures plus the tracing overhead.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "corpus.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Per-layer figures of a traced run, keyed by metric name. main() prints
/// every per-layer metric; layers a workload does not exercise stay 0.
using LayerFigures = std::map<std::string, double>;

/// The end-to-end metrics every workload reports. What the operation, the
/// pass and the solves are differs per workload (see NOTES.md).
///
/// Time metrics come from the faster half of the untraced passes: other
/// tenants of a shared host only ever slow a pass down, so the faster half
/// estimates the program's own speed and repeats far better across runs.
struct EndToEnd {
  struct Pass {
    double wall_s{0.0};
    double solves_per_s{0.0};
    std::vector<double> op_ms;  ///< latency of each operation of the pass
  };
  std::vector<double> setup_s;  ///< per set-up repetition
  std::vector<Pass> passes;     ///< untraced passes
  double tail_q{0.9};           ///< the percentile op_tail_ms reports
  RoutingQuality quality;       ///< of the routing the workload produces
  double objective_sum{0.0};    ///< Eq. (1) summed over the workload's trees

  /// Operation latencies of the faster half of the passes (at least one).
  std::vector<double> kept_ops() const;
  /// The kept operations support op_tail_ms under the percentile rule.
  bool enough() const {
    return tail_percentile(kept_ops(), tail_q).has_value();
  }
  std::vector<double> all_wall_s() const;
  /// Adds every end-to-end metric to `out`; a withheld tail percentile is
  /// a failed check.
  void report(Outcome& out) const;
};

/// Repeats `setup` at least three times and until a second has passed (at
/// most 25 times), recording each duration: setup_s is their median.
void repeat_setup(EndToEnd& e2e, const std::function<void()>& setup);

/// Worker lanes (and worker processes): the host's cores, at most 4.
inline int lanes() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Runs `pass(traced)` until `cfg.seconds` have elapsed and `enough()`
/// holds (the percentile rule's sample counts), at least once and at most
/// for six times the run length. In traced mode passes alternate untraced /
/// traced.
void run_passes(const RunConfig& cfg, const std::function<void(bool)>& pass,
                const std::function<bool()>& enough = [] { return true; });

/// Traced-minus-untraced difference of a headline time, in % of untraced.
inline double overhead_pct(const std::vector<double>& untraced,
                           const std::vector<double>& traced) {
  const double base = median(untraced);
  return base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

/// A tail percentile, or 0 when the percentile rule withholds it.
inline double tail_or_zero(const std::vector<double>& samples, double q) {
  return tail_percentile(samples, q).value_or(0.0);
}

void route_table_v(const RunConfig& cfg, Outcome& out, Tracer* tracer,
                   LayerFigures& layers);
void route_dist(const RunConfig& cfg, Outcome& out, Tracer* tracer,
                LayerFigures& layers);
void solve_corpus(const RunConfig& cfg, Outcome& out, Tracer* tracer,
                  LayerFigures& layers);
void serve_mix(const RunConfig& cfg, Outcome& out, Tracer* tracer,
               LayerFigures& layers);

}  // namespace perfbench
