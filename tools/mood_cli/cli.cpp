#include "mood_cli/cli.h"

#include <ostream>
#include <string>

#include "support/error.h"

namespace mood::cli {

namespace {

constexpr const char* kTopLevelHelp = R"(usage: mood <command> [flags]

MooD mobility-data privacy middleware: generate workloads, evaluate
protection strategies, aggregate results.

Commands:
  simulate   generate a synthetic mobility dataset (CSV) from a preset
  evaluate   run protection strategies over a dataset and emit result JSON
  report     aggregate and compare result JSON files across runs
  replay     replay a dataset through the online gateway, measure it
  metrics    render a metrics exposition or stream JSON as a table

Run `mood <command> --help` for the command's flags. Every flag can also be
set through the MOOD_<FLAG> environment (e.g. MOOD_SCALE=0.5).
)";

}  // namespace

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  if (argc < 2) {
    err << kTopLevelHelp;
    return kExitUsage;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    out << kTopLevelHelp;
    return kExitOk;
  }

  // Shift so each subcommand sees itself as argv[0].
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "simulate") return cmd_simulate(sub_argc, sub_argv, out, err);
    if (command == "evaluate") return cmd_evaluate(sub_argc, sub_argv, out, err);
    if (command == "report") return cmd_report(sub_argc, sub_argv, out, err);
    if (command == "replay") return cmd_replay(sub_argc, sub_argv, out, err);
    if (command == "metrics") return cmd_metrics(sub_argc, sub_argv, out, err);
    err << "mood: unknown command '" << command << "'\n\n" << kTopLevelHelp;
    return kExitUsage;
  } catch (const support::UsageError& error) {
    err << error.what() << '\n';
    return kExitUsage;
  } catch (const support::Error& error) {
    err << "mood " << command << ": " << error.what() << '\n';
    return kExitFailure;
  } catch (const std::exception& error) {
    err << "mood " << command << ": unexpected error: " << error.what()
        << '\n';
    return kExitFailure;
  }
}

}  // namespace mood::cli
