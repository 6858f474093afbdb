#pragma once

/// \file trace.h
/// A user's mobility trace: a time-ordered series of records plus ownership
/// metadata, and the splitting operations MooD's fine-grained protection is
/// built on.

#include <string>
#include <vector>

#include "geo/geo.h"
#include "mobility/record.h"

namespace mood::mobility {

/// Identifier of a (possibly pseudonymous) user. MooD's fine-grained stage
/// renews ids on sub-traces so they appear to come from distinct users;
/// string ids keep that operation trivial and debuggable.
using UserId = std::string;

/// Time-ordered mobility trace with value semantics.
///
/// Invariant: timestamps are non-decreasing. Constructors and mutators
/// enforce it (construction from unsorted records sorts once).
class Trace {
 public:
  Trace() = default;

  /// Builds a trace, sorting records by time if needed.
  Trace(UserId user, std::vector<Record> records);

  /// Owner (or pseudonym) of this trace.
  [[nodiscard]] const UserId& user() const { return user_; }

  /// Re-labels the trace (used by renew_ids in the fine-grained stage).
  void set_user(UserId user) { user_ = std::move(user); }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  [[nodiscard]] const Record& front() const;
  [[nodiscard]] const Record& back() const;
  [[nodiscard]] const Record& at(std::size_t i) const;

  [[nodiscard]] auto begin() const { return records_.begin(); }
  [[nodiscard]] auto end() const { return records_.end(); }

  /// Appends a record; its time must be >= the current last record's time.
  /// O(1) amortised — the append fast path the streaming gateway's sliding
  /// windows are built on.
  void append(const Record& r);

  /// Number of slices a slices(slice) call would return: one counting pass
  /// over the timestamps, no Trace copies. Precondition: slice > 0.
  [[nodiscard]] std::size_t slice_count(Timestamp slice) const;

  /// Removes the first `n` records (all of them if n >= size), keeping the
  /// user id. O(size) — the sliding window amortises it by evicting in
  /// batches.
  void drop_front(std::size_t n);

  /// Wall-clock span covered: back().time - front().time (0 if size < 2).
  [[nodiscard]] Timestamp duration() const;

  /// Records with time in [from, to), keeping the user id.
  [[nodiscard]] Trace between(Timestamp from, Timestamp to) const;

  /// Splits at the temporal midpoint: left gets records strictly before the
  /// midpoint, right the rest. Equation: mid = front.time + duration()/2.
  [[nodiscard]] std::pair<Trace, Trace> split_in_half() const;

  /// Cuts into consecutive slices of fixed duration (aligned on the first
  /// record's time). Empty slices are dropped. Precondition: slice > 0.
  [[nodiscard]] std::vector<Trace> slices(Timestamp slice) const;

  /// Geographic bounding box of all records.
  [[nodiscard]] geo::BoundingBox bounding_box() const;

  friend bool operator==(const Trace& a, const Trace& b) = default;

 private:
  UserId user_;
  std::vector<Record> records_;
};

}  // namespace mood::mobility
