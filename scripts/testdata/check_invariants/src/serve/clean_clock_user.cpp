// Fixture: clocks outside the scheduler are fine (deadlines live in the
// server), so `sched-pure` stays silent here.
#include <chrono>

namespace fixture {

bool expired(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}

}  // namespace fixture
