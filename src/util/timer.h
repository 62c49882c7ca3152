/// \file timer.h
/// Wall-clock timing helpers for the experiment harnesses (Tables IV/V report
/// a walltime column).

#pragma once

#include <chrono>
#include <cstdio>
#include <string>

namespace cdst {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Formats seconds as h:mm:ss (the paper's walltime format).
inline std::string format_hms(double seconds) {
  const auto total = static_cast<long long>(seconds + 0.5);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld:%02lld:%02lld", total / 3600,
                (total / 60) % 60, total % 60);
  return buf;
}

}  // namespace cdst
