/// \file assert.h
/// Contract-checking macros used throughout the library.
///
/// CDST_ASSERT is an internal invariant check (compiled out in NDEBUG builds
/// except where promoted); CDST_CHECK is a precondition / API-contract check
/// that stays on in all build types and throws, so that library misuse is
/// diagnosable in release binaries.

#pragma once

// The library relies on C++20 (std::span, <bit>, constraints). Without this
// guard a C++17 build dies on an opaque <span> error deep inside graph.h;
// fail early with an actionable message instead.
#if defined(_MSVC_LANG) ? (_MSVC_LANG < 202002L) : (__cplusplus < 202002L)
#error "cdst requires C++20: compile with -std=c++20 (or /std:c++20) or newer"
#endif

#include <sstream>
#include <stdexcept>
#include <string>

namespace cdst {

/// Thrown when a CDST_CHECK precondition fails.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}

}  // namespace detail
}  // namespace cdst

#define CDST_CHECK(expr)                                                      \
  do {                                                                        \
    if (!(expr))                                                              \
      ::cdst::detail::contract_fail("CDST_CHECK", #expr, __FILE__, __LINE__,  \
                                    std::string{});                           \
  } while (false)

#define CDST_CHECK_MSG(expr, msg)                                             \
  do {                                                                        \
    if (!(expr))                                                              \
      ::cdst::detail::contract_fail("CDST_CHECK", #expr, __FILE__, __LINE__,  \
                                    (msg));                                   \
  } while (false)

#ifdef NDEBUG
#define CDST_ASSERT(expr) ((void)0)
#else
#define CDST_ASSERT(expr)                                                     \
  do {                                                                        \
    if (!(expr))                                                              \
      ::cdst::detail::contract_fail("CDST_ASSERT", #expr, __FILE__, __LINE__, \
                                    std::string{});                           \
  } while (false)
#endif
