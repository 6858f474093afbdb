#include "mobility/trace.h"

#include <algorithm>

#include "support/error.h"

namespace mood::mobility {

Trace::Trace(UserId user, std::vector<Record> records)
    : user_(std::move(user)), records_(std::move(records)) {
  const bool sorted = std::is_sorted(
      records_.begin(), records_.end(),
      [](const Record& a, const Record& b) { return a.time < b.time; });
  if (!sorted) {
    std::stable_sort(
        records_.begin(), records_.end(),
        [](const Record& a, const Record& b) { return a.time < b.time; });
  }
}

const Record& Trace::front() const {
  support::expects(!records_.empty(), "Trace::front on empty trace");
  return records_.front();
}

const Record& Trace::back() const {
  support::expects(!records_.empty(), "Trace::back on empty trace");
  return records_.back();
}

const Record& Trace::at(std::size_t i) const {
  support::expects(i < records_.size(), "Trace::at out of range");
  return records_[i];
}

void Trace::append(const Record& r) {
  support::expects(records_.empty() || r.time >= records_.back().time,
                   "Trace::append would break time ordering");
  records_.push_back(r);
}

std::size_t Trace::slice_count(Timestamp slice) const {
  support::expects(slice > 0, "Trace::slice_count: slice must be > 0");
  if (records_.empty()) return 0;
  // Same cut rule as slices(): a record at or past the current slice's end
  // opens the slice that contains it (empty slices are never counted).
  const Timestamp t0 = records_.front().time;
  std::size_t count = 1;
  Timestamp current_end = t0 + slice;
  for (const Record& r : records_) {
    if (r.time >= current_end) {
      ++count;
      current_end = t0 + ((r.time - t0) / slice + 1) * slice;
    }
  }
  return count;
}

void Trace::drop_front(std::size_t n) {
  n = std::min(n, records_.size());
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(n));
}

Timestamp Trace::duration() const {
  if (records_.size() < 2) return 0;
  return records_.back().time - records_.front().time;
}

Trace Trace::between(Timestamp from, Timestamp to) const {
  std::vector<Record> out;
  const auto lo = std::lower_bound(
      records_.begin(), records_.end(), from,
      [](const Record& r, Timestamp t) { return r.time < t; });
  const auto hi = std::lower_bound(
      lo, records_.end(), to,
      [](const Record& r, Timestamp t) { return r.time < t; });
  out.assign(lo, hi);
  return Trace(user_, std::move(out));
}

std::pair<Trace, Trace> Trace::split_in_half() const {
  if (records_.empty()) return {Trace(user_, {}), Trace(user_, {})};
  const Timestamp mid = records_.front().time + duration() / 2;
  // Guarantee progress even when all records share one timestamp: fall back
  // to splitting by record count.
  Trace left = between(records_.front().time, mid);
  Trace right = between(mid, records_.back().time + 1);
  if (left.empty() || right.empty()) {
    const std::size_t half = records_.size() / 2;
    left = Trace(user_, {records_.begin(), records_.begin() + half});
    right = Trace(user_, {records_.begin() + half, records_.end()});
  }
  return {std::move(left), std::move(right)};
}

std::vector<Trace> Trace::slices(Timestamp slice) const {
  support::expects(slice > 0, "Trace::slices: slice duration must be > 0");
  std::vector<Trace> out;
  if (records_.empty()) return out;
  const Timestamp t0 = records_.front().time;
  std::vector<Record> current;
  Timestamp current_end = t0 + slice;
  for (const Record& r : records_) {
    if (r.time >= current_end) {
      if (!current.empty()) {
        out.emplace_back(user_, std::move(current));
        current = {};
      }
      // Jump directly to the window containing r; stepping one slice at a
      // time is O(gap/slice) across multi-week gaps in sparse traces.
      current_end = t0 + ((r.time - t0) / slice + 1) * slice;
    }
    current.push_back(r);
  }
  if (!current.empty()) out.emplace_back(user_, std::move(current));
  return out;
}

geo::BoundingBox Trace::bounding_box() const {
  geo::BoundingBox box;
  for (const Record& r : records_) box.extend(r.position);
  return box;
}

}  // namespace mood::mobility
