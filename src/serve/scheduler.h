/// \file serve/scheduler.h
/// Fair slice scheduling across tenants: deterministic weighted round-robin
/// with per-tenant deficit credits.
///
/// The scheduler decides *which session runs the next slice*; it never
/// executes anything itself, so it is trivially deterministic: given the
/// same sequence of add/remove/set_runnable/pick calls it produces the same
/// pick sequence, which is what makes a multi-tenant serve run bit-identical
/// to replaying each tenant serially (slices commute across sessions — each
/// Router slice only touches its own session's state).
///
/// Deficit round-robin: sessions are visited in admission order; when the
/// cursor arrives at a session its credit refills to its weight, and each
/// pick spends one credit, so a weight-w tenant receives w consecutive
/// slices per cycle — weighted max-min fairness in slice throughput with no
/// starvation (every runnable tenant is visited once per cycle).
/// bench/bench_serve.cpp measures the resulting completion spread.
///
/// No lock of its own: EngineServer guards its instance with the registry
/// mutex (see serve/serve.h).

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "serve/stats.h"

namespace cdst::serve {

class FairScheduler {
 public:
  /// Registers a session at the end of the cycle order. Weights < 1 are
  /// treated as 1. Sessions start not runnable.
  void add(SessionId id, int weight);
  /// Unregisters a session; a no-op for unknown ids.
  void remove(SessionId id);
  /// Marks whether pick() may return the session.
  void set_runnable(SessionId id, bool runnable);

  /// Chooses the session for the next slice, spending one credit, or
  /// nullopt when no session is runnable.
  std::optional<SessionId> pick();

  std::size_t size() const { return entries_.size(); }
  std::size_t runnable_count() const;

 private:
  struct Entry {
    SessionId id{0};
    int weight{1};
    int credit{0};
    bool runnable{false};
  };

  std::vector<Entry> entries_;  ///< admission order
  std::size_t cursor_{0};       ///< deficit round-robin position
};

}  // namespace cdst::serve
