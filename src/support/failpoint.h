#pragma once

/// \file failpoint.h
/// mood::testing::FailPoint — named crash/fault hooks for the snapshot
/// write/restore paths.
///
/// A fail point is a named site in production code (see the fail-point map
/// in docs/ARCHITECTURE.md) where a test can inject a failure:
///
///   * kError — throw support::IoError at the site. Because the snapshot
///     writer never cleans up partial files on exception paths, the
///     on-disk state after an injected error is byte-identical to a
///     process killed at the same instruction — the in-process way to
///     exercise crash recovery.
///   * kTorn  — returned to the call site, which simulates a torn write
///     (flush a truncated prefix, then fail). Only the payload-write site
///     honours it; everywhere else it degrades to kError.
///   * kKill  — std::_Exit(137) at the site: a real no-destructors,
///     no-atexit death, matching SIGKILL. Drive it from gtest death tests
///     (EXPECT_EXIT) or a sacrificial CLI subprocess.
///   * kCorrupt — returned to the call site, which mangles its own data
///     in place (e.g. a shard worker poisons the admitted event with a
///     NaN coordinate). Sites that don't know how to self-corrupt
///     treat it as kError.
///   * kThrow — throw testing::InjectedFault at the site: a typed,
///     recognizable exception for exercising the decision-path fault
///     isolation (user quarantine) without faking an I/O failure.
///
/// Sites are spelled `MOOD_FAIL_POINT("name")`. The macro compiles to a
/// single relaxed atomic load when nothing is armed, and to a literal
/// kNone constant when the build defines MOOD_DISABLE_FAILPOINTS (the
/// Release/CLI-only configuration — see the MOOD_FAILPOINTS CMake
/// option), so shipping binaries carry no hook overhead at all.
///
/// Arming is programmatic (FailPoint::arm) or environmental: the CLI
/// arms from MOOD_FAILPOINTS ("site=kill@2,other=error" — fire the kill
/// on the 2nd hit of `site`), which is how the CI restart drill kills a
/// replay mid-checkpoint without patching the binary.

#include <cstdint>
#include <string>

#include "support/error.h"

namespace mood::testing {

/// What an armed fail point does when it fires.
enum class FailAction : std::uint8_t {
  kNone = 0,  ///< disarmed / not yet at the firing hit
  kError,     ///< throw support::IoError at the site
  kTorn,      ///< call site simulates a torn (partial) write, then fails
  kKill,      ///< std::_Exit(137) — a SIGKILL-equivalent death
  kCorrupt,   ///< call site mangles its own pending data in place
  kThrow,     ///< throw testing::InjectedFault at the site
};

/// The typed exception a kThrow fail point raises. Derives support::Error
/// so production catch-blocks that absorb domain failures (e.g. the
/// quarantining drain path) treat it like any real fault.
class InjectedFault : public support::Error {
 public:
  explicit InjectedFault(const std::string& what) : support::Error(what) {}
};

class FailPoint {
 public:
  /// Arms `name` to perform `action` on its `at_hit`-th hit (1 = next
  /// hit). One-shot: the point disarms itself when it fires, so recovery
  /// paths run unimpeded. Re-arming overwrites.
  static void arm(const std::string& name, FailAction action,
                  std::uint64_t at_hit = 1);

  static void disarm(const std::string& name);
  static void disarm_all();

  /// Parses `spec` ("name=action" or "name=action@N", comma-separated;
  /// actions: error | torn | kill | corrupt | throw) and arms every
  /// entry. Throws support::UsageError on malformed specs.
  static void arm_spec(const std::string& spec);

  /// arm_spec(getenv(env)) when the variable is set; no-op otherwise.
  static void arm_from_env(const char* env = "MOOD_FAILPOINTS");

  /// True when at least one point is armed (the macro's fast-path guard).
  static bool any_armed();

  /// Hit `name`: kNone when disarmed or before the firing hit; otherwise
  /// fires — kError/kThrow throw, kKill exits the process, kTorn and
  /// kCorrupt are returned for the call site to act out itself.
  static FailAction hit(const char* name);
};

}  // namespace mood::testing

#ifdef MOOD_DISABLE_FAILPOINTS
#define MOOD_FAIL_POINT(name) ::mood::testing::FailAction::kNone
#else
#define MOOD_FAIL_POINT(name)                   \
  (::mood::testing::FailPoint::any_armed()      \
       ? ::mood::testing::FailPoint::hit(name)  \
       : ::mood::testing::FailAction::kNone)
#endif
