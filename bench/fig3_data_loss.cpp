// Fig. 3 reproduction: ratio of data loss (records of traces still
// re-identified by at least one attack, Eq. 7) under each single LPPM and
// HybridLPPM, on the four datasets.
//
// Output goes through src/report: the measured-vs-paper comparison renders
// with report::Table, and --json=<path> additionally writes the full
// machine-readable results (a mood-report/1 bundle of one mood-result/1
// document per dataset — the same shape `mood report --format=json` emits).

#include <iostream>

#include "experiment_common.h"
#include "report/report.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace mood;
  const auto ctx = bench::parse_context(argc, argv);
  const support::Options options(argc, argv);
  const std::string json_path = options.get_string("json", "");

  bench::print_header(
      "Fig. 3: ratio of data loss (3 attacks) [measured | paper]");
  report::Table table(
      {"dataset", "users", "Geo-I", "TRL", "HMC", "HybridLPPM"});
  report::Json runs = report::Json::array();

  for (const auto& name : ctx.datasets) {
    const auto dataset =
        simulation::make_preset_dataset(name, ctx.scale, ctx.seed);
    const core::ExperimentHarness harness(dataset, ctx.config, ctx.seed);
    const auto& paper = bench::kPaperFig3.at(name);
    const core::EvaluationGrid grid =
        harness.evaluate({"GeoI", "TRL", "HMC", "HybridLPPM"});
    std::vector<core::StrategyResult> results;
    for (const auto& result : grid.rows) {
      results.push_back(std::get<core::StrategyResult>(result));
    }

    std::vector<std::string> row{name, std::to_string(results[0].user_count())};
    for (std::size_t s = 0; s < results.size(); ++s) {
      row.push_back(report::format_percent(results[s].data_loss()) + " | " +
                    report::format_double(paper[s], 0) + "%");
    }
    table.add_row(std::move(row));

    if (!json_path.empty()) {
      report::RunMetadata meta;
      meta.tool = "bench/fig3_data_loss";
      meta.dataset = harness.dataset_name();
      meta.seed = ctx.seed;
      meta.timings.emplace_back("strategies", grid.wall_seconds);
      meta.wall_seconds = grid.wall_seconds;
      std::vector<report::Json> strategies;
      for (const auto& result : results) {
        strategies.push_back(report::to_json(result, /*include_users=*/false));
      }
      report::Json entry = report::Json::object();
      entry["source"] = name;
      entry["report"] = report::make_report(
          meta, ctx.config, report::dataset_summary(dataset),
          std::move(strategies));
      runs.push_back(std::move(entry));
    }
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    report::Json bundle = report::Json::object();
    bundle["schema"] = "mood-report/1";
    bundle["runs"] = std::move(runs);
    report::write_json_file(json_path, bundle);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
