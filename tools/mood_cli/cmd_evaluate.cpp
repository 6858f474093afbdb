// `mood evaluate`: load a dataset (CSV file or generated preset), build the
// ExperimentHarness, run the requested strategy grid over the requested
// attack subset, and emit one versioned result document (schema
// "mood-result/1", see src/report/report.h) plus optional per-user CSVs.

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiment.h"
#include "mobility/io.h"
#include "mood_cli/cli.h"
#include "report/report.h"
#include "report/table.h"
#include "simulation/presets.h"
#include "support/csv.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/options.h"
#include "support/thread_pool.h"

namespace mood::cli {

namespace {

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(std::tolower(
          static_cast<unsigned char>(c))));
    }
  }
  return parts;
}

/// A --strategies key and the harness's name for that row
/// (ExperimentHarness::evaluate).
using Strategy = std::pair<std::string_view, std::string_view>;

/// Every strategy in "all" order; "singles" is entries 1 to 3.
constexpr std::array<Strategy, 7> kStrategies{{{"no-lppm", "no-LPPM"},
                                               {"geoi", "GeoI"},
                                               {"trl", "TRL"},
                                               {"hmc", "HMC"},
                                               {"hybrid", "HybridLPPM"},
                                               {"mood-search", "MooD"},
                                               {"mood-full", "MooD-full"}}};

/// The requested strategies, expanding the "singles" / "all" shorthands.
std::vector<Strategy> expand_strategies(const std::string& list) {
  std::vector<Strategy> expanded;
  for (const auto& name : split_list(list)) {
    bool known = false;
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      if (name == "all" || name == kStrategies[s].first ||
          (name == "singles" && s >= 1 && s <= 3)) {
        known = true;
        if (std::find(expanded.begin(), expanded.end(), kStrategies[s]) ==
            expanded.end()) {
          expanded.push_back(kStrategies[s]);
        }
      }
    }
    if (!known) {
      throw support::UsageError(
          "mood evaluate: unknown strategy '" + name +
          "' (expected no-lppm, geoi, trl, hmc, singles, hybrid, "
          "mood-search, mood-full or all)");
    }
  }
  if (expanded.empty()) {
    throw support::UsageError("mood evaluate: --strategies is empty");
  }
  return expanded;
}

/// Validates attack shorthands up front (before any expensive work); "all"
/// swallows the rest. Returns the normalized lower-case names.
std::vector<std::string> parse_attack_names(const std::string& list) {
  std::vector<std::string> names;
  for (const auto& name : split_list(list)) {
    if (name == "all") return {};
    if (name != "poi" && name != "pit" && name != "ap") {
      throw support::UsageError("mood evaluate: unknown attack '" + name +
                                "' (expected poi, pit, ap or all)");
    }
    names.push_back(name);
  }
  if (names.empty()) {
    throw support::UsageError("mood evaluate: --attacks is empty");
  }
  return names;
}

/// Maps validated shorthands to indices into harness.attacks() by matching
/// the attack display names ("POI-Attack", ...), case-insensitively.
std::vector<std::size_t> attack_subset(const core::ExperimentHarness& harness,
                                       const std::vector<std::string>& names) {
  std::vector<std::size_t> subset;
  for (const auto& name : names) {
    for (std::size_t i = 0; i < harness.attacks().size(); ++i) {
      std::string attack = harness.attacks()[i]->name();  // e.g. "POI-Attack"
      std::transform(attack.begin(), attack.end(), attack.begin(),
                     [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                     });
      if (attack == name || attack == name + "-attack") {
        subset.push_back(i);
        break;
      }
    }
  }
  support::ensures(subset.size() == names.size(),
                   "attack shorthand missing from the standard suite");
  return subset;
}

std::string csv_path(const std::string& prefix, std::string_view strategy) {
  return prefix + std::string(strategy) + ".csv";
}

}  // namespace

int cmd_evaluate(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err) {
  support::FlagSet flags(
      "mood evaluate",
      "Evaluate protection strategies on a mobility dataset and write a\n"
      "mood-result/1 JSON document (plus optional per-user CSVs).");
  flags.add_string("input", "",
                   "dataset CSV (user,lat,lon,timestamp; '-' = stdin); "
                   "empty: generate --preset instead");
  flags.add_string("preset", "privamov",
                   "preset to generate when --input is empty");
  flags.add_double("scale", 0.25, "record-volume scale for --preset");
  flags.add_string("name", "", "dataset display name (default: input/preset)");
  flags.add_string("strategies", "no-lppm,singles,hybrid",
                   "comma list: no-lppm, geoi, trl, hmc, singles, hybrid, "
                   "mood-search, mood-full, all");
  flags.add_string("attacks", "all", "comma list: poi, pit, ap, all");
  flags.add_int("seed", 7, "harness + LPPM seed");
  flags.add_int("jobs", 0, "worker threads (0 = hardware concurrency)");
  flags.add_string("out", "-", "result JSON path ('-' = stdout)");
  flags.add_string("csv", "",
                   "per-user CSV path prefix (one file per strategy); "
                   "empty: none");
  flags.add_bool("per-user", true, "include per_user arrays in the JSON");
  flags.add_bool("verbose", false, "log at info level instead of warn");
  // Every ExperimentConfig knob, with the paper defaults.
  const core::ExperimentConfig defaults;
  flags.add_double("train-fraction", defaults.train_fraction,
                   "chronological split point");
  flags.add_int("min-records", static_cast<std::int64_t>(defaults.min_records),
                "active-user floor per half");
  flags.add_double("poi-diameter", defaults.attack_params.poi.max_diameter_m,
                   "POI clustering diameter (m)");
  flags.add_int("poi-dwell",
                static_cast<std::int64_t>(defaults.attack_params.poi.min_dwell),
                "POI minimal dwell (s)");
  flags.add_int(
      "poi-min-points",
      static_cast<std::int64_t>(defaults.attack_params.poi.min_points),
      "POI minimal records per stay");
  flags.add_double("heatmap-cell", defaults.attack_params.heatmap_cell_m,
                   "AP-attack heatmap cell size (m)");
  flags.add_double("pit-scale", defaults.attack_params.pit_proximity_scale_m,
                   "PIT-attack proximity scale (m)");
  flags.add_double("geoi-epsilon", defaults.geoi_epsilon,
                   "Geo-I epsilon (per metre)");
  flags.add_double("trl-radius", defaults.trl_radius_m,
                   "trilateration radius (m)");
  flags.add_double("hmc-coverage", defaults.hmc_hot_coverage,
                   "HMC alignment mass coverage");
  flags.add_int("hmc-max-cells",
                static_cast<std::int64_t>(defaults.hmc_max_cells),
                "HMC alignment budget (cells)");
  flags.add_double("hmc-budget", defaults.hmc_budget_m,
                   "HMC relocation budget (m)");
  flags.add_double("mood-delta-hours",
                   static_cast<double>(defaults.mood.delta) / 3600.0,
                   "fine-grained recursion floor (h)");
  flags.add_double("mood-preslice-hours",
                   static_cast<double>(defaults.mood.preslice) / 3600.0,
                   "crowdsensing pre-slice period (h)");
  flags.add_bool("first-hit", defaults.mood.first_hit,
                 "stop the composition pass at the first protective hit "
                 "(ablation, not paper-faithful)");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    out << flags.help();
    return kExitOk;
  }
  flags.reject_positionals();
  support::set_log_level(flags.get_bool("verbose")
                             ? support::LogLevel::kInfo
                             : support::LogLevel::kWarn);
  // Vet the strategy/attack lists before any expensive work so typos fail
  // in milliseconds, not after dataset generation and attack training.
  const std::vector<Strategy> strategies =
      expand_strategies(flags.get_string("strategies"));
  const std::vector<std::string> attack_names =
      parse_attack_names(flags.get_string("attacks"));
  if (const auto jobs = flags.get_int("jobs"); jobs > 0) {
    support::ThreadPool::configure_shared(static_cast<std::size_t>(jobs));
  }

  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  report::RunMetadata meta;
  meta.tool = "mood evaluate";
  meta.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // ---- Dataset --------------------------------------------------------
  const std::string input = flags.get_string("input");
  mobility::Dataset dataset;
  if (input.empty()) {
    dataset = simulation::make_preset_dataset(flags.get_string("preset"),
                                              flags.get_double("scale"),
                                              meta.seed);
  } else if (input == "-") {
    dataset = mobility::read_dataset_csv(std::cin, "stdin");
  } else {
    dataset = mobility::read_dataset_csv_file(input, input);
  }
  if (const std::string name = flags.get_string("name"); !name.empty()) {
    dataset.set_name(name);
  }
  meta.dataset = dataset.name();
  meta.timings.emplace_back("load", elapsed());

  // ---- Harness --------------------------------------------------------
  core::ExperimentConfig config;
  config.train_fraction = flags.get_double("train-fraction");
  config.min_records = static_cast<std::size_t>(flags.get_int("min-records"));
  config.attack_params.poi.max_diameter_m = flags.get_double("poi-diameter");
  config.attack_params.poi.min_dwell =
      static_cast<mobility::Timestamp>(flags.get_int("poi-dwell"));
  config.attack_params.poi.min_points =
      static_cast<std::size_t>(flags.get_int("poi-min-points"));
  config.attack_params.heatmap_cell_m = flags.get_double("heatmap-cell");
  config.attack_params.pit_proximity_scale_m = flags.get_double("pit-scale");
  config.geoi_epsilon = flags.get_double("geoi-epsilon");
  config.trl_radius_m = flags.get_double("trl-radius");
  config.hmc_hot_coverage = flags.get_double("hmc-coverage");
  config.hmc_max_cells =
      static_cast<std::size_t>(flags.get_int("hmc-max-cells"));
  config.hmc_budget_m = flags.get_double("hmc-budget");
  config.mood.delta = static_cast<mobility::Timestamp>(
      flags.get_double("mood-delta-hours") * 3600.0);
  config.mood.preslice = static_cast<mobility::Timestamp>(
      flags.get_double("mood-preslice-hours") * 3600.0);
  config.mood.first_hit = flags.get_bool("first-hit");

  const auto harness_started = elapsed();
  const core::ExperimentHarness harness(dataset, config, meta.seed);
  meta.timings.emplace_back("harness", elapsed() - harness_started);

  const std::vector<std::size_t> attacks =
      attack_subset(harness, attack_names);

  // ---- Strategy grid --------------------------------------------------
  // One harness pass serves every requested row, so it has one timing.
  std::vector<std::string> harness_names;
  for (const auto& [key, harness_name] : strategies) {
    harness_names.emplace_back(harness_name);
  }
  err << "evaluating " << flags.get_string("strategies") << " on "
      << harness.pairs().size() << " users...\n";
  const core::EvaluationGrid grid = harness.evaluate(harness_names, attacks);
  meta.timings.emplace_back("strategies", grid.wall_seconds);

  const bool per_user = flags.get_bool("per-user");
  const std::string csv_prefix = flags.get_string("csv");
  std::vector<report::Json> strategy_docs;
  for (std::size_t r = 0; r < grid.rows.size(); ++r) {
    std::visit(
        [&](const auto& result) {
          strategy_docs.push_back(report::to_json(result, per_user));
          if (!csv_prefix.empty()) {
            support::write_csv_file(csv_path(csv_prefix, strategies[r].first),
                                    report::outcome_rows(result));
          }
        },
        grid.rows[r]);
  }

  // ---- Result document ------------------------------------------------
  meta.wall_seconds = elapsed();
  report::Json dataset_doc = report::dataset_summary(dataset);
  dataset_doc["active_users"] = harness.pairs().size();
  dataset_doc["test_records"] = harness.total_test_records();
  const report::Json document = report::make_report(
      meta, config, std::move(dataset_doc), std::move(strategy_docs));

  const std::string out_path = flags.get_string("out");
  if (out_path == "-") {
    document.write(out);
    return kExitOk;
  }
  report::write_json_file(out_path, document);
  err << "wrote " << out_path << '\n';
  auto rows = report::strategy_summary_rows(document);
  report::Table table(std::move(rows.front()));
  for (std::size_t i = 1; i < rows.size(); ++i) {
    table.add_row(std::move(rows[i]));
  }
  table.print(out);
  return kExitOk;
}

}  // namespace mood::cli
