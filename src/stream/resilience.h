#pragma once

/// \file resilience.h
/// Resilience vocabulary of the online MooD gateway: admission policy for
/// malformed events, per-user quarantine, and the overload-control knobs.
///
/// PR 7 built the crash-recovery half of "gateway as a real service"
/// (checkpoint/restore); this layer is the stay-alive half. Three defences
/// compose, all disabled by default so the strict path — and the CI
/// batch-equivalence and restore bit-identity gates — is untouched:
///
///   * **Admission** (StreamEngine::ingest and the shard workers): every
///     event is classified before it can touch user state. Non-finite or
///     out-of-range coordinates, per-user timestamp regressions, and
///     oversized/empty user ids are malformed. BadRecordPolicy decides
///     their fate: kFail aborts the run (the strict default), kSkip drops
///     the one record, kQuarantine freezes the *carrying user* — the
///     poison is evidence the source is compromised, so subsequent events
///     of that user are dead-lettered rather than trusted.
///   * **Fault isolation** (kQuarantine only): an exception out of one
///     user's fold/decide/finalize — including FailPoint-injected
///     corruption and throws — quarantines that user and never takes the
///     shard worker down. A quarantined user's kernel state is frozen and
///     their published decision holds at the last verdict.
///   * **Overload control**: a per-shard ring-depth bound raises an
///     explicit backpressure signal (counted, surfaced to the caller —
///     never silently dropping events); a load-shed policy with
///     hysteresis degrades a backlogged shard's decisions to held
///     verdicts (no risk query, no LPPM, no attack; full search()
///     deferred) while its ring depth stays high.
///
/// Degraded verdicts are explicitly flagged (per-user `degraded` counts,
/// the `resilience` block of mood-stream/1) and are repaired at finish():
/// the kernel's canonical finalize re-searches any window whose last full
/// search is stale, so a run's *final* decisions are a pure function of
/// the final windows whatever degradation happened mid-stream.

#include <cstddef>
#include <string>

#include "support/error.h"

namespace mood::stream {

/// What ingest does with a malformed event.
enum class BadRecordPolicy {
  kFail,        ///< throw BadRecordError — abort the run (strict default)
  kSkip,        ///< drop the one record, count it, keep the user live
  kQuarantine,  ///< freeze the carrying user; dead-letter their stream
};

inline std::string to_string(BadRecordPolicy policy) {
  switch (policy) {
    case BadRecordPolicy::kFail:
      return "fail";
    case BadRecordPolicy::kSkip:
      return "skip";
    default:
      return "quarantine";
  }
}

/// Parses the --on-bad-record spelling. Throws support::UsageError on
/// anything but fail | skip | quarantine.
inline BadRecordPolicy parse_bad_record_policy(const std::string& word) {
  if (word == "fail") return BadRecordPolicy::kFail;
  if (word == "skip") return BadRecordPolicy::kSkip;
  if (word == "quarantine") return BadRecordPolicy::kQuarantine;
  throw support::UsageError("--on-bad-record must be fail | skip | "
                            "quarantine, got '" +
                            word + "'");
}

/// A malformed event reached ingest under BadRecordPolicy::kFail. Derives
/// support::Error (CLI exit 1): the data is poisoned, the invocation was
/// fine.
class BadRecordError : public support::Error {
 public:
  explicit BadRecordError(const std::string& what) : support::Error(what) {}
};

/// Gateway resilience knobs (a member of StreamConfig). The defaults turn
/// every feature off: strict admission, no quarantine, no backpressure
/// accounting, no shedding.
struct ResilienceConfig {
  BadRecordPolicy on_bad_record = BadRecordPolicy::kFail;

  /// Per-shard ring-depth bound; a shard whose backlog crosses it raises
  /// the backpressure signal on ingest (counted + returned to the caller;
  /// events are never dropped for pressure) and sizes the ring at twice
  /// the bound. 0 = unbounded.
  std::size_t max_pending_per_shard = 0;

  /// Load-shed engage threshold: a shard whose ring depth at a dequeue
  /// reaches this many events enters shed mode and degrades its
  /// decisions to held verdicts. 0 = shedding off.
  std::size_t shed_high_watermark = 0;

  /// Load-shed release threshold (hysteresis): a shedding shard leaves
  /// shed mode at the first dequeue whose ring depth is at or below this.
  /// Must be <= shed_high_watermark. The event being dequeued counts
  /// toward the depth, so 0 with shedding on never releases.
  std::size_t shed_low_watermark = 0;
};

/// Why an event or user left the healthy path. The stable vocabulary used
/// in quarantine reasons and dead-letter records.
enum class AdmissionFault {
  kBadCoordinate,     ///< NaN/Inf or out-of-range lat/lon
  kNonMonotonicTime,  ///< timestamp regressed within one user's stream
  kOversizedId,       ///< empty user id, or one past the id length cap
  kDecideFault,       ///< exception escaped the user's fold/decide path
};

inline const char* to_string(AdmissionFault fault) {
  switch (fault) {
    case AdmissionFault::kBadCoordinate:
      return "bad coordinate";
    case AdmissionFault::kNonMonotonicTime:
      return "non-monotonic timestamp";
    case AdmissionFault::kOversizedId:
      return "oversized user id";
    default:
      return "decide fault";
  }
}

/// Longest admissible user id, in bytes. Generously above any real id
/// scheme; an id past it is treated as corruption, not identity.
inline constexpr std::size_t kMaxUserIdBytes = 256;

}  // namespace mood::stream
