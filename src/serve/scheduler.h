/// \file serve/scheduler.h
/// Fair slice scheduling across tenants: deterministic start-time fair
/// queuing on a virtual clock charged in estimated oracle work (Goyal, Vin
/// & Cheng, "Start-time fair queueing", SIGCOMM 1996).
///
/// The scheduler decides *which session runs the next slice*; it never
/// executes anything itself, so it is trivially deterministic: given the
/// same sequence of add/remove/set_runnable/pick calls it produces the same
/// pick sequence, which is what makes a multi-tenant serve run bit-identical
/// to replaying each tenant serially (slices commute across sessions — each
/// Router slice only touches its own session's state). It reads no clock
/// and draws no random number (scripts/check_invariants.py, `sched-pure`).
///
/// Tags: every session holds a start tag S, and its next slice costs c
/// work units (the caller's estimate, handed over with set_runnable), so
/// its finish tag is F = S + c/w for weight w. The virtual time V is the
/// largest start tag picked so far. pick() takes the runnable session with
/// the least F (ties to admission order), moves V up to its S and charges
/// it: S += c/w. A session that becomes runnable starts at max(S, V), so
/// idle time banks no credit. Backlogged sessions therefore receive oracle
/// work in proportion to their weights, and a session that becomes runnable
/// waits at most until its finish tag is the least — a cheap solve arriving
/// behind two router tenants runs at the next slice boundary instead of
/// after both routers' slices.
///
/// No lock of its own: EngineServer guards its instance with the registry
/// mutex (see serve/serve.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "serve/stats.h"

namespace cdst::serve {

class FairScheduler {
 public:
  /// Registers a session at the end of the admission order with a start
  /// tag of the current virtual time. Weights < 1 are treated as 1.
  /// Sessions start not runnable.
  void add(SessionId id, int weight);
  /// Unregisters a session; a no-op for unknown ids.
  void remove(SessionId id);
  /// Marks whether pick() may return the session, and sets the work units
  /// its next slice costs. A not-runnable -> runnable transition lifts the
  /// start tag to the virtual time.
  void set_runnable(SessionId id, bool runnable, std::uint64_t cost);

  /// Chooses the session for the next slice and charges it the slice's
  /// cost, or nullopt when no session is runnable.
  std::optional<SessionId> pick();

  std::size_t size() const { return entries_.size(); }
  std::size_t runnable_count() const;

 private:
  struct Entry {
    SessionId id{0};
    double weight{1.0};
    double start{0.0};  ///< start tag S, in work units per weight
    std::uint64_t cost{0};
    bool runnable{false};

    double finish() const { return start + static_cast<double>(cost) / weight; }
  };

  std::vector<Entry> entries_;  ///< admission order
  double virtual_time_{0.0};    ///< V: the largest start tag picked so far
};

}  // namespace cdst::serve
