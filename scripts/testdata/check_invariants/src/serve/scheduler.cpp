// Fixture: `sched-pure` in the scheduler source. Comments that mention
// steady_clock or now() and the "system_clock" string literal must NOT
// fire; the directive-allowed line must not either.
#include <random>

namespace fixture {

const char* label() { return "system_clock now()"; }

unsigned jitter() {
  std::mt19937 gen(7);
  return gen();
}

// cdst-lint: allow(sched-pure) fixture: a justified exception is honored
long stamp() { return std::chrono::system_clock::now().time_since_epoch().count(); }

}  // namespace fixture
