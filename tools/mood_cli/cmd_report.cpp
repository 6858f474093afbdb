// `mood report`: read one or more mood JSON documents and render a
// cross-run comparison — as an aligned table (default), CSV, or a merged
// JSON document for further tooling.
//
// Inputs are dispatched on their top-level "schema": mood-result/1 rows
// feed the cross-run strategy table; mood-stream/1 documents get their
// own summary table. Unknown schemas, the retired mood-bench/1 among
// them, are a typed UsageError (exit 2), not a silent misread; CSV output
// is restricted to mood-result/1 inputs (one uniform row shape).

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mood_cli/cli.h"
#include "report/report.h"
#include "report/table.h"
#include "support/csv.h"
#include "support/error.h"
#include "support/options.h"

namespace mood::cli {

namespace {

/// Last path component without the .json suffix — the "source" column.
std::string source_label(const std::string& path) {
  std::string label = path;
  if (const auto slash = label.find_last_of('/'); slash != std::string::npos) {
    label.erase(0, slash + 1);
  }
  if (label.size() > 5 && label.ends_with(".json")) {
    label.erase(label.size() - 5);
  }
  return label;
}

}  // namespace

int cmd_report(int argc, const char* const* argv, std::ostream& out,
               std::ostream& /*err*/) {
  support::FlagSet flags(
      "mood report <result.json>...",
      "Aggregate mood result documents into a cross-run comparison, one\n"
      "row per (run, strategy). mood-stream/1 documents (from `mood\n"
      "replay`) are summarised with their own table; unknown schemas are\n"
      "rejected.");
  flags.add_string("format", "table", "output format: table, csv or json");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    out << flags.help();
    return kExitOk;
  }
  const std::string format = flags.get_string("format");
  if (format != "table" && format != "csv" && format != "json") {
    throw support::UsageError("mood report: unknown --format '" + format +
                              "' (expected table, csv or json)");
  }
  if (flags.positional().empty()) {
    throw support::UsageError(
        "mood report: no input files (pass one or more result JSON paths)");
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"source", "dataset", "strategy", "users", "non_protected",
                  "data_loss", "bands(l/m/h/x)"});
  /// (heading, rows) blocks for non-result schemas, rendered after the
  /// strategy table.
  std::vector<std::pair<std::string, std::vector<std::vector<std::string>>>>
      extra_tables;
  report::Json merged = report::Json::object();
  merged["schema"] = "mood-report/1";
  report::Json runs = report::Json::array();

  for (const auto& path : flags.positional()) {
    report::Json document = report::read_json_file(path);
    const std::string schema = document.string_or("schema", "(missing)");
    if (schema == report::kResultSchema) {
      auto file_rows = report::strategy_summary_rows(document);
      for (std::size_t i = 1; i < file_rows.size(); ++i) {  // skip header
        std::vector<std::string> row{source_label(path)};
        row.insert(row.end(), file_rows[i].begin(), file_rows[i].end());
        rows.push_back(std::move(row));
      }
    } else if (schema == report::kStreamSchema) {
      if (format == "csv") {
        throw support::UsageError(
            "mood report: " + path + " has schema '" + schema +
            "' — CSV output supports mood-result/1 documents only (use "
            "--format=table or --format=json)");
      }
      const std::string dataset =
          document.find("meta") != nullptr
              ? document.find("meta")->string_or("dataset", "?")
              : "?";
      extra_tables.emplace_back(
          source_label(path) + " [" + schema + ", " + dataset + "]",
          report::stream_summary_rows(document));
    } else {
      throw support::UsageError(
          "mood report: " + path + " has unsupported schema '" + schema +
          "' (expected " + report::kResultSchema + " or " +
          report::kStreamSchema + ")");
    }
    report::Json entry = report::Json::object();
    entry["source"] = path;
    entry["report"] = std::move(document);
    runs.push_back(std::move(entry));
  }
  merged["runs"] = std::move(runs);

  if (format == "json") {
    merged.write(out);
    return kExitOk;
  }
  if (format == "csv") {
    support::write_csv(out, rows);
    return kExitOk;
  }
  if (rows.size() > 1) {
    report::Table table(rows.front());
    for (std::size_t i = 1; i < rows.size(); ++i) table.add_row(rows[i]);
    table.print(out);
  }
  for (const auto& [heading, block] : extra_tables) {
    out << heading << '\n';
    report::Table table(block.front());
    for (std::size_t i = 1; i < block.size(); ++i) table.add_row(block[i]);
    table.print(out);
  }
  return kExitOk;
}

}  // namespace mood::cli
