// Fixture: `sched-pure` in the scheduler header. A wall-clock member makes
// the pick order depend on when calls happen, not only on which calls.
#pragma once

#include <chrono>

namespace fixture {

struct Entry {
  std::chrono::steady_clock::time_point last_pick;
};

}  // namespace fixture
