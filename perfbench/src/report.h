// Result accounting and statistics shared by every workload: metrics with
// units, attempted/failed operation counts, the percentile rule and the
// final one-line JSON result.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

/// Median of the samples (mean of the middle two for even counts); 0 for an
/// empty set.
double median(std::vector<double> samples);

/// Nearest-rank percentile `q` (0 < q < 1), reported only when at least
/// `kMinBeyond` samples lie strictly beyond the reported rank; nullopt
/// otherwise, so a tail figure never rests on a handful of samples.
inline constexpr std::size_t kMinBeyond = 10;
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// Operations attempted and failed in one run, plus the metrics to print.
/// A failed operation is a non-OK Status or a failed output check.
class Outcome {
 public:
  /// Counts `n` operations of kind `what`; all of them fail when `status`
  /// is not OK.
  void op(const char* what, const cdst::Status& status, std::uint64_t n = 1);
  /// Counts one output check; a false `ok` is a failed operation.
  void check(const char* what, bool ok, const std::string& detail = {});

  void metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
  /// Human-readable per-kind attempted/failed table (for stderr).
  std::string accounting() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::map<std::string, std::uint64_t> attempted_by_kind_;
  std::map<std::string, std::uint64_t> failed_by_kind_;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
