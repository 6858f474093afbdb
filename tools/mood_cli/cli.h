#pragma once

/// \file cli.h
/// Entry points of the `mood` command-line driver.
///
/// The CLI is the scriptable front door to the pipeline:
///
///   mood simulate --preset=privamov --scale=0.1 --out=city.csv
///   mood evaluate --input=city.csv --strategies=hybrid --out=result.json
///   mood report result.json other-run.json
///   mood replay --preset=small --shards=8 --out=stream.json
///
/// Everything lives behind run() — a pure function of argv and two output
/// streams — so the test suite exercises subcommand dispatch, flag errors
/// and exit codes in-process, and main() stays a three-line shim.
///
/// Exit codes: 0 success, 1 runtime failure (I/O, bad data), 2 usage error
/// (unknown subcommand or flag, malformed value).

#include <iosfwd>

namespace mood::cli {

/// Exit codes returned by run() and the subcommands.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;

/// Dispatches argv[1] to a subcommand, mapping exceptions to exit codes.
/// `out` receives results (JSON/CSV/tables), `err` receives diagnostics
/// and progress. argv[0] is the program name, as in main().
int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err);

/// Subcommands. argv[0] is the subcommand name; flags follow. These throw
/// support::UsageError / support::Error — run() translates to exit codes —
/// and return kExitOk on success.
int cmd_simulate(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err);
int cmd_evaluate(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err);
int cmd_report(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err);
int cmd_replay(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err);
int cmd_metrics(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err);

}  // namespace mood::cli
