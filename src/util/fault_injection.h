/// \file fault_injection.h
/// Deterministic, seeded fault injection for the fault-tolerance tests.
///
/// A fault SITE is a named point in library code declared with
///
///     CDST_FAULT_POINT("router.unit");
///
/// which compiles to nothing unless the tree is built with
/// CDST_FAULT_INJECTION=ON (the `fault-injection` CMake preset). In an
/// instrumented build every executed site registers itself, once, in the
/// process-wide FaultRegistry; tests arm a site with a trigger policy and
/// the next matching hit throws InjectedFault from inside the library —
/// exactly where a real resource failure would surface. The session API
/// layer maps the exception onto its Status contract (kUnavailable) or
/// retries, which is precisely the machinery under test.
///
/// Determinism: nth-hit and every-k triggers count hits since arming;
/// probability triggers draw from a private xoshiro stream seeded by the
/// policy, so a sweep is reproducible given (site, policy, workload).
/// Thread safety: the unarmed fast path is one relaxed load; arming,
/// disarming and trigger evaluation serialize on a per-site mutex.
///
/// The registered-site universe is pinned by the manifest in
/// tests/fault_injection_test.cpp; scripts/check_invariants.py (rule
/// `fault-site`) fails the build when a CDST_FAULT_POINT appears in src/
/// without a manifest entry, so the sweep can never silently under-cover.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/thread_annotations.h"

namespace cdst {

/// Thrown by an armed fault site. Internal control flow, like
/// SolveCancelled: the session API layer converts it into a structured
/// Status (kUnavailable) or consumes it via retry before it reaches
/// callers.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at site '" + site + "'"),
        site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// When an armed site fires, counting hits from the moment it was armed.
struct FaultPolicy {
  enum class Trigger : std::uint8_t {
    /// Fire exactly once, on the n-th hit after arming, then self-disarm —
    /// the sweep's workhorse (a transient fault that goes away on retry).
    kNthHit,
    /// Fire on every k-th hit after arming, indefinitely — a persistent
    /// fault that exhausts bounded retries.
    kEveryK,
    /// Fire each hit independently with probability p, drawn from a
    /// deterministic stream seeded by `seed`.
    kProbability,
  };

  Trigger trigger{Trigger::kNthHit};
  /// kNthHit: the 1-based hit to fire on. kEveryK: the period (k >= 1).
  std::uint64_t n{1};
  double probability{0.0};  ///< kProbability only
  std::uint64_t seed{1};    ///< kProbability only
};

namespace detail {

/// One registered site. Lives forever (sites are function-local statics'
/// targets); never destroyed, so macro call sites can cache the pointer.
class FaultSite {
 public:
  explicit FaultSite(std::string name) : name_(std::move(name)) {}
  FaultSite(const FaultSite&) = delete;
  FaultSite& operator=(const FaultSite&) = delete;

  const std::string& name() const { return name_; }

  /// The instrumented code path. Unarmed cost: one relaxed counter bump and
  /// one relaxed load.
  void hit() {
    total_hits_.fetch_add(1, std::memory_order_relaxed);
    if (armed_.load(std::memory_order_acquire)) evaluate();
  }

  void arm(const FaultPolicy& policy);
  void disarm();

  std::uint64_t total_hits() const {
    return total_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t fired() const;
  void reset_counters();

 private:
  /// Trigger evaluation under the policy; throws InjectedFault on a match.
  void evaluate();

  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> total_hits_{0};
  mutable Mutex mu_;
  FaultPolicy policy_ CDST_GUARDED_BY(mu_);
  std::uint64_t armed_hits_ CDST_GUARDED_BY(mu_){0};
  std::uint64_t fired_ CDST_GUARDED_BY(mu_){0};
  Rng rng_ CDST_GUARDED_BY(mu_){1};
};

}  // namespace detail

/// Process-wide registry of fault sites. All members are safe to call from
/// any thread at any time; tests typically arm/disarm strictly between
/// engine calls so each sweep step has one well-defined armed set.
class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// Idempotent registration keyed by name; returns the site's stable
  /// handle (what CDST_FAULT_POINT caches in a function-local static).
  detail::FaultSite* register_site(const char* name);

  /// Arms `site` with `policy`, registering the site if no code path has
  /// reached it yet (so tests can arm from a manifest before first use).
  void arm(const std::string& site, const FaultPolicy& policy);
  void disarm(const std::string& site);
  void disarm_all();

  /// Names of every site registered so far, sorted.
  std::vector<std::string> sites() const;

  std::uint64_t hits(const std::string& site) const;
  std::uint64_t fired(const std::string& site) const;
  /// Zeroes every site's hit/fired counters (armed state is unchanged).
  void reset_counters();

 private:
  FaultRegistry() = default;
  detail::FaultSite* find(const std::string& site) const;

  mutable Mutex mu_;
  /// The registry itself is deliberately leaked on process exit (see
  /// instance()), so the sites live forever too: macro call sites cache raw
  /// site pointers in function-local statics whose last use may come after
  /// static destruction began.
  std::vector<std::unique_ptr<detail::FaultSite>> sites_ CDST_GUARDED_BY(mu_);
};

}  // namespace cdst

/// Declares a named fault site at the point of expansion. Free when the
/// build is not instrumented; one relaxed load when instrumented but the
/// site is unarmed.
#if defined(CDST_FAULT_INJECTION)
#define CDST_FAULT_POINT(site_name)                                  \
  do {                                                               \
    static ::cdst::detail::FaultSite* const cdst_fault_site =        \
        ::cdst::FaultRegistry::instance().register_site(site_name);  \
    cdst_fault_site->hit();                                          \
  } while (false)
#else
#define CDST_FAULT_POINT(site_name) ((void)0)
#endif
