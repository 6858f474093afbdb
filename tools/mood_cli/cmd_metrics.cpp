// `mood metrics`: render gateway telemetry for humans. Accepts either a
// Prometheus-style exposition written by `mood replay --metrics-out`
// (src/telemetry/exposition.h) or a mood-stream/1 JSON document, sniffed
// by the first non-space byte, and prints an aligned metric/value table.
//
// Exposition histograms are re-derived client-side: cumulative `le`
// bucket lines become nearest-rank p50/p95/p99 reported at the bucket's
// upper bound — the same arithmetic the exposition's writers used, so
// the table agrees with the mood-stream/1 latency block to bucket
// resolution. Per-shard series are summarised only under --per-shard.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mood_cli/cli.h"
#include "report/report.h"
#include "report/table.h"
#include "support/error.h"
#include "support/options.h"

namespace mood::cli {

namespace {

/// One parsed sample line: `name{labels} value` (labels may be empty).
struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  std::string value_text;  // original token, reprinted verbatim
  double value = 0.0;
  std::size_t line = 0;  // 1-based line number in the input
};

/// Rejects the input at `path`:`line` as a usage error (exit 2).
[[noreturn]] void reject(const std::string& path, std::size_t line,
                         const std::string& message) {
  throw support::UsageError("mood metrics: " + path + ":" +
                            std::to_string(line) + ": " + message);
}

/// Parsed exposition: TYPE declarations in file order plus every sample.
struct Exposition {
  std::vector<std::pair<std::string, std::string>> types;  // name -> kind
  std::vector<Sample> samples;
};

bool parse_labels(const std::string& text, std::size_t& pos,
                  std::map<std::string, std::string>& labels) {
  // pos sits on '{'. Grammar (as written by render_exposition):
  //   { key="value" , key="value" }   — '\\' escapes inside the quotes.
  ++pos;
  while (pos < text.size() && text[pos] != '}') {
    while (pos < text.size() && (text[pos] == ',' || text[pos] == ' ')) ++pos;
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos) return false;
    const std::string key = text.substr(pos, eq - pos);
    if (eq + 1 >= text.size() || text[eq + 1] != '"') return false;
    std::string value;
    std::size_t i = eq + 2;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      value.push_back(text[i]);
      ++i;
    }
    if (i >= text.size()) return false;
    labels.emplace(key, std::move(value));
    pos = i + 1;
  }
  if (pos >= text.size()) return false;
  ++pos;  // consume '}'
  return true;
}

Exposition parse_exposition(const std::string& text, const std::string& path) {
  Exposition exposition;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only `# TYPE <name> <kind>` carries structure; other comments
      // (HELP, free-form) pass through unrecorded.
      std::istringstream comment(line);
      std::string hash, keyword, name, kind;
      if (comment >> hash >> keyword >> name >> kind &&
          keyword == "TYPE") {
        exposition.types.emplace_back(name, kind);
      }
      continue;
    }
    Sample sample;
    sample.line = line_number;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) {
      reject(path, line_number, "malformed sample line '" + line + "'");
    }
    sample.name = line.substr(0, pos);
    if (line[pos] == '{' && !parse_labels(line, pos, sample.labels)) {
      reject(path, line_number, "malformed label set in '" + line + "'");
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    sample.value_text = line.substr(pos);
    if (sample.value_text.empty()) {
      reject(path, line_number, "sample line '" + line + "' has no value");
    }
    errno = 0;
    char* end = nullptr;
    sample.value = std::strtod(sample.value_text.c_str(), &end);
    if (end == sample.value_text.c_str() || *end != '\0') {
      reject(path, line_number,
             "non-numeric value '" + sample.value_text + "'");
    }
    exposition.samples.push_back(std::move(sample));
  }
  return exposition;
}

/// Cumulative bucket list of one histogram series (one label group).
struct HistogramSeries {
  std::vector<std::pair<double, std::uint64_t>> buckets;  // (le, cumulative)
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// A histogram bucket's upper bound: its `le` label, +Inf when absent.
/// Anything but a finite number or "+Inf" is rejected — a NaN bound would
/// break the strict weak ordering the bucket sort needs.
double bucket_bound(const Sample& sample, const std::string& path) {
  const auto le = sample.labels.find("le");
  if (le == sample.labels.end() || le->second == "+Inf") {
    return std::numeric_limits<double>::infinity();
  }
  char* end = nullptr;
  const double bound = std::strtod(le->second.c_str(), &end);
  if (end == le->second.c_str() || *end != '\0' || !std::isfinite(bound)) {
    reject(path, sample.line,
           "bucket bound le=\"" + le->second +
               "\" is neither a finite number nor +Inf");
  }
  return bound;
}

/// A histogram bucket or count sample's value as a count. NaN, infinite,
/// negative and out-of-range values (llround cannot represent 2^63 and
/// up) are rejected.
std::uint64_t histogram_count(const Sample& sample, const std::string& path) {
  if (!(sample.value >= 0.0 && sample.value < 0x1p63)) {
    reject(path, sample.line,
           "histogram count '" + sample.value_text +
               "' is not a finite non-negative count");
  }
  return std::uint64_t(std::llround(sample.value));
}

std::string fixed(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

/// Nearest-rank percentile over cumulative buckets, reported at the
/// bucket's `le` bound (what the exposition makes recoverable; the
/// server-side block uses midpoints, so the two agree to one bucket).
double percentile_at_bound(const HistogramSeries& series, double q) {
  if (series.count == 0 || series.buckets.empty()) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, std::uint64_t(std::ceil(q * double(series.count))));
  for (const auto& [le, cumulative] : series.buckets) {
    if (cumulative >= rank) return le;
  }
  return series.buckets.back().first;
}

void append_histogram_rows(std::vector<std::vector<std::string>>& rows,
                           const std::string& prefix,
                           const HistogramSeries& series) {
  rows.push_back({prefix + "_count", std::to_string(series.count)});
  rows.push_back({prefix + "_sum", fixed(series.sum, 6)});
  if (series.count > 0) {
    rows.push_back({prefix + "_p50", fixed(percentile_at_bound(series, 0.50), 6)});
    rows.push_back({prefix + "_p95", fixed(percentile_at_bound(series, 0.95), 6)});
    rows.push_back({prefix + "_p99", fixed(percentile_at_bound(series, 0.99), 6)});
  }
}

std::string render_labels(const std::map<std::string, std::string>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + value + "\"";
  }
  out += "}";
  return out;
}

std::vector<std::vector<std::string>> exposition_rows(
    const Exposition& exposition, const std::string& path, bool per_shard) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "value"});

  std::map<std::string, std::string> kind_of;
  for (const auto& [name, kind] : exposition.types) kind_of[name] = kind;

  // Histogram accumulation: base name -> shard label ("" = merged) ->
  // cumulative buckets. Walk samples once; everything else renders
  // directly in file (i.e. name-sorted) order.
  std::map<std::string, std::map<std::string, HistogramSeries>> histograms;
  for (const Sample& sample : exposition.samples) {
    std::string base;
    enum { kBucket, kSum, kCount, kScalar } part = kScalar;
    if (sample.name.size() > 7 && sample.name.ends_with("_bucket")) {
      base = sample.name.substr(0, sample.name.size() - 7);
      part = kBucket;
    } else if (sample.name.size() > 4 && sample.name.ends_with("_sum")) {
      base = sample.name.substr(0, sample.name.size() - 4);
      part = kSum;
    } else if (sample.name.size() > 6 && sample.name.ends_with("_count")) {
      base = sample.name.substr(0, sample.name.size() - 6);
      part = kCount;
    }
    if (part != kScalar && kind_of.count(base) != 0 &&
        kind_of[base] == "histogram") {
      const auto shard_it = sample.labels.find("shard");
      const std::string shard =
          shard_it == sample.labels.end() ? "" : shard_it->second;
      HistogramSeries& series = histograms[base][shard];
      if (part == kBucket) {
        series.buckets.emplace_back(bucket_bound(sample, path),
                                    histogram_count(sample, path));
      } else if (part == kSum) {
        series.sum = sample.value;
      } else {
        series.count = histogram_count(sample, path);
      }
      continue;
    }
    // Counters and gauges: one row, value verbatim.
    rows.push_back({sample.name + render_labels(sample.labels),
                    sample.value_text});
  }

  for (auto& [base, groups] : histograms) {
    for (auto& [shard, series] : groups) {
      std::sort(series.buckets.begin(), series.buckets.end());
      if (shard.empty()) {
        append_histogram_rows(rows, base, series);
      } else if (per_shard) {
        append_histogram_rows(rows, base + "{shard=\"" + shard + "\"}",
                              series);
      }
    }
  }
  return rows;
}

void print_table(std::ostream& out,
                 const std::vector<std::vector<std::string>>& rows) {
  report::Table table(rows.front());
  for (std::size_t i = 1; i < rows.size(); ++i) table.add_row(rows[i]);
  table.print(out);
}

}  // namespace

int cmd_metrics(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  (void)err;
  support::FlagSet flags(
      "mood metrics <file>...",
      "Render gateway telemetry as an aligned table. Inputs are sniffed:\n"
      "a Prometheus-style exposition (from `mood replay --metrics-out`)\n"
      "lists every counter/gauge plus derived histogram percentiles; a\n"
      "mood-stream/1 JSON document gets the replay summary table.");
  flags.add_bool("per-shard", false,
                 "also summarise per-shard histogram series (exposition "
                 "inputs only)");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    out << flags.help();
    return kExitOk;
  }
  if (flags.positional().empty()) {
    throw support::UsageError(
        "mood metrics: no input files (pass exposition or stream JSON "
        "paths)");
  }

  bool first = true;
  for (const auto& path : flags.positional()) {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      throw support::IoError("mood metrics: cannot open '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string text = buffer.str();

    if (!first) out << '\n';
    first = false;

    const std::size_t head = text.find_first_not_of(" \t\r\n");
    if (head != std::string::npos && text[head] == '{') {
      const report::Json document = report::Json::parse(text);
      const std::string schema = document.string_or("schema", "(missing)");
      if (schema != report::kStreamSchema) {
        throw support::UsageError(
            "mood metrics: " + path + " has schema '" + schema +
            "' (expected " + std::string(report::kStreamSchema) +
            " or a metrics exposition)");
      }
      out << path << " [" << schema << "]\n";
      print_table(out, report::stream_summary_rows(document));
    } else {
      out << path << " [exposition]\n";
      print_table(out, exposition_rows(parse_exposition(text, path), path,
                                       flags.get_bool("per-shard")));
    }
  }
  return kExitOk;
}

}  // namespace mood::cli
