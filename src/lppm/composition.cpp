#include "lppm/composition.h"

#include <algorithm>

#include "support/error.h"

namespace mood::lppm {

support::RngStream stage_stream(const support::RngStream& owner,
                                const mobility::Trace& input,
                                std::string_view prefix) {
  const mobility::Timestamp t0 = input.empty() ? 0 : input.front().time;
  return owner.fork(prefix, static_cast<std::uint64_t>(t0));
}

Composition::Composition(std::vector<const Lppm*> stages)
    : stages_(std::move(stages)) {
  support::expects(!stages_.empty(), "Composition: needs at least one stage");
  std::string prefix;
  for (const Lppm* stage : stages_) {
    support::expects(stage != nullptr, "Composition: null stage");
    if (!prefix.empty()) prefix += '+';
    prefix += stage->name();
    prefix_names_.push_back(prefix);
  }
}

mobility::Trace Composition::apply(const mobility::Trace& trace,
                                   support::RngStream rng) const {
  // The first stage reads the input directly — copying it first would
  // clone the whole record vector just to throw it away.
  mobility::Trace current = apply_stage(0, trace, trace, rng);
  for (std::size_t i = 1; i < stages_.size(); ++i) {
    current = apply_stage(i, current, trace, rng);
  }
  return current;
}

mobility::Trace Composition::apply_stage(
    std::size_t i, const mobility::Trace& previous,
    const mobility::Trace& input, const support::RngStream& owner) const {
  return stages_.at(i)->apply(previous,
                              stage_stream(owner, input, prefix_name(i + 1)));
}

mobility::Trace apply_keyed(const Lppm& mechanism, const mobility::Trace& input,
                            const support::RngStream& owner) {
  if (const auto* composition = dynamic_cast<const Composition*>(&mechanism)) {
    return composition->apply(input, owner);
  }
  return mechanism.apply(input, stage_stream(owner, input, mechanism.name()));
}

namespace {

void enumerate_recursive(const std::vector<const Lppm*>& singles,
                         std::size_t min_length, std::size_t max_length,
                         std::vector<const Lppm*>& current,
                         std::vector<bool>& used,
                         std::vector<Composition>& out) {
  if (current.size() >= min_length) {
    out.emplace_back(current);
  }
  if (current.size() == max_length) return;
  for (std::size_t i = 0; i < singles.size(); ++i) {
    if (used[i]) continue;
    used[i] = true;
    current.push_back(singles[i]);
    enumerate_recursive(singles, min_length, max_length, current, used, out);
    current.pop_back();
    used[i] = false;
  }
}

}  // namespace

std::vector<Composition> enumerate_compositions(
    const std::vector<const Lppm*>& singles, std::size_t min_length,
    std::size_t max_length) {
  support::expects(min_length >= 1, "enumerate_compositions: min_length >= 1");
  support::expects(min_length <= max_length,
                   "enumerate_compositions: min_length <= max_length");
  std::vector<Composition> out;
  std::vector<const Lppm*> current;
  std::vector<bool> used(singles.size(), false);
  // Depth-first enumeration emits shorter prefixes before their extensions;
  // re-sort by length (stable) to get the increasing-length order the
  // engine's "incremental and exhaustive" search expects.
  enumerate_recursive(singles, min_length,
                      std::min(max_length, singles.size()), current, used,
                      out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Composition& a, const Composition& b) {
                     return a.length() < b.length();
                   });
  return out;
}

std::size_t composition_count(std::size_t n, std::size_t min_length,
                              std::size_t max_length) {
  std::size_t total = 0;
  for (std::size_t i = min_length; i <= std::min(max_length, n); ++i) {
    std::size_t arrangements = 1;  // n! / (n-i)!
    for (std::size_t k = 0; k < i; ++k) arrangements *= (n - k);
    total += arrangements;
  }
  return total;
}

}  // namespace mood::lppm
