#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double hi = samples[mid];
  if (samples.size() % 2 == 1) return hi;
  const double lo = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lo + hi);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

void Outcome::op(const char* what, const cdst::Status& status,
                 std::uint64_t n) {
  attempted_ += n;
  attempted_by_kind_[what] += n;
  if (!status.ok()) {
    failed_ += n;
    failed_by_kind_[what] += n;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.to_string().c_str());
  }
}

void Outcome::check(const char* what, bool ok, const std::string& detail) {
  ++attempted_;
  attempted_by_kind_[what] += 1;
  if (!ok) {
    ++failed_;
    failed_by_kind_[what] += 1;
    std::fprintf(stderr, "perfbench: check %s FAILED%s%s\n", what,
                 detail.empty() ? "" : ": ", detail.c_str());
  }
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string Outcome::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Full precision; a non-finite value (never expected) prints as -1 so
    // the line stays valid JSON.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Outcome::accounting() const {
  std::string out = "operations (attempted / failed):\n";
  for (const auto& [kind, n] : attempted_by_kind_) {
    const auto it = failed_by_kind_.find(kind);
    const std::uint64_t f = it == failed_by_kind_.end() ? 0 : it->second;
    out += "  " + kind + ": " + std::to_string(n) + " / " +
           std::to_string(f) + "\n";
  }
  out += "  total: " + std::to_string(attempted_) + " / " +
         std::to_string(failed_) + "\n";
  return out;
}

}  // namespace perfbench
