// Gateway benchmark program: runs ONE workload per process and prints one
// JSON object (metrics with units, exact counts, correctness verdict) as
// the last line of stdout. run_benchmark.py builds and drives it.
//
//   mood_gateway_bench --workload=<name> [--seed=7] [--seconds=25]
//                      [--traced] [--smoke] [--shards=3] [--out=DIR]
//
// Every input is generated in-process from (preset, scale, seed); the
// engine only ever receives the generated events. The program runs its own
// producer loop — ingest and pump_cadences per event, then quiesce, then
// finish — so finish() is inside the throughput clock, unlike run_replay.
//
// End-to-end mode (default). A workload's input is a number of
// independent populations ("units"), each generated from its own seed
// derived from --seed and served by its own fresh gateway. --seconds sets
// how many: round(seconds / unit_seconds), so a run lasts about --seconds
// on the reference host and the same (seed, seconds) always measures the
// same inputs. Many units per run average out how much one small
// population's cost depends on its seed. Each unit is set up, served and
// finished once, and its final decisions are checked against the batch
// reference evaluator. Throughput is over the whole run; set-up and
// finish times are medians over units.
//
// Traced mode (--traced): the per-layer breakdown of unit 0, every layer
// timed from outside through its public functions. One untraced serve
// gives the stream-layer numbers; then a TraceSession records the coarse
// phases (setup, serve, finish, verify, snapshot, kernel, attacks, lppm) into
// <out>/<workload>.trace.json while per-call timings go into bench-owned
// histograms.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "simulation/presets.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/snapshot.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using namespace mood;
using Clock = std::chrono::steady_clock;

/// Shard workers. With the producer thread that makes four busy threads,
/// the core count of the reference host; the count is fixed, never
/// derived from the machine, so results stay comparable across hosts.
constexpr std::size_t kShards = 3;
/// Shared-pool size for attack training and the reference evaluator.
/// The pool is idle while the gateway serves.
constexpr std::size_t kSetupThreads = 4;
/// Users the attack and LPPM passes sample (every ceil(n/512)-th by id).
constexpr std::size_t kSampleUsers = 512;

/// One population ("unit") of a workload: the preset's record-volume
/// scale, and its user count and days (0 = the preset's own).
struct Shape {
  double scale;
  std::size_t users;
  int days;
};

struct Workload {
  const char* name;
  const char* preset;
  Shape shape;         ///< graded runs
  Shape smoke;         ///< --smoke: same kind of input, about a second
  double rate;         ///< open-loop events/s; 0 = unpaced
  mobility::Timestamp window_seconds;  ///< 0 = full history
  std::uint64_t checkpoint_every;      ///< events; 0 = no checkpoints
  /// Wall seconds one unit costs on the reference host (set-up, serve,
  /// finish, reference check); sets the unit count per run.
  double unit_seconds;
};

// Why each workload exists, and why its units are the size they are, is
// documented in README.md. BENCHMARK.json grades all but city-finish,
// which run_benchmark.py runs ungraded.
constexpr Workload kWorkloads[] = {
    {"privamov-burst", "privamov", {0.05, 0, 0}, {0.02, 0, 0}, 0.0, 0, 0, 0.62},
    {"privamov-paced", "privamov", {0.05, 0, 0}, {0.02, 0, 0}, 20000.0, 0, 0,
     1.56},
    {"city-finish", "city-small", {0.1, 2500, 0}, {0.1, 1000, 0}, 0.0, 0, 0,
     1.6},
    {"cabspotting-window", "cabspotting", {0.05, 0, 15}, {0.01, 0, 0}, 0.0,
     24 * mobility::kHour, 50000, 2.4},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 7;
  double seconds = 25.0;
  bool traced = false;
  bool smoke = false;
  std::size_t shards = kShards;
  std::string out = "bench/gateway/out";
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "mood_gateway_bench: %s\nusage: mood_gateway_bench "
               "--workload=NAME [--seed=N] [--seconds=S] [--traced] "
               "[--smoke] [--shards=N] [--out=DIR]\nworkloads:",
               message.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    usage("--" + flag + " expects a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (key == "--seed") {
      args.seed = parse_count("seed", value);
    } else if (key == "--seconds") {
      args.seconds = static_cast<double>(parse_count("seconds", value));
    } else if (key == "--shards") {
      args.shards = static_cast<std::size_t>(parse_count("shards", value));
      if (args.shards == 0) usage("--shards must be > 0");
    } else if (key == "--out" && !value.empty()) {
      args.out = value;
    } else if (arg == "--traced") {
      args.traced = true;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Percentile of a log-bucketed histogram, interpolated linearly inside
/// its bucket. HistogramSnapshot::percentile reports the bucket midpoint,
/// which can read exactly the same on every run; interpolation keeps the
/// measured variation (the bucket bounds the error either way).
double percentile(const telemetry::HistogramSnapshot& histogram, double q) {
  if (histogram.empty()) return 0.0;
  const double rank = q * static_cast<double>(histogram.count);
  double below = 0.0;
  for (const auto& bucket : histogram.buckets) {
    const double count = static_cast<double>(bucket.count);
    const double lower = telemetry::Histogram::bucket_lower_bound(bucket.index);
    const double upper = telemetry::Histogram::bucket_upper_bound(bucket.index);
    if (below + count >= rank) {
      if (!std::isfinite(upper)) return lower;
      return lower + (upper - lower) * (rank - below) / count;
    }
    below += count;
  }
  return telemetry::Histogram::bucket_lower_bound(
      histogram.buckets.back().index);
}

/// Adds `from`'s samples into `into` (bucket lists stay sorted by index).
void merge_into(telemetry::HistogramSnapshot& into,
                const telemetry::HistogramSnapshot& from) {
  std::map<std::uint32_t, std::uint64_t> buckets;
  for (const auto& b : into.buckets) buckets[b.index] += b.count;
  for (const auto& b : from.buckets) buckets[b.index] += b.count;
  into.buckets.clear();
  for (const auto& [index, count] : buckets) into.buckets.push_back({index, count});
  into.count += from.count;
  into.sum += from.sum;
}

/// Process high-water resident set size, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics and exact counts of one run, serialized as the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A count is a metric too, and must repeat exactly across runs of one
  /// seed (run_benchmark.py gates on that).
  void count(const std::string& name, std::uint64_t value,
             const char* unit = "count") {
    metric(name, static_cast<double>(value), unit);
    counts_.emplace_back(name, value);
  }

  void print(const Args& args, std::size_t units, std::size_t users,
             std::uint64_t events, std::uint64_t attempted,
             std::uint64_t failed, bool correct) const {
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"shards\":%zu,"
        "\"nproc\":%u,\"traced\":%s,\"smoke\":%s,\"units\":%zu,"
        "\"users\":%zu,\"events\":%llu,\"attempted\":%llu,\"failed\":%llu,"
        "\"correct\":%s,\"metrics\":{",
        args.workload->name, static_cast<unsigned long long>(args.seed),
        args.seconds, args.shards, std::thread::hardware_concurrency(),
        args.traced ? "true" : "false", args.smoke ? "true" : "false", units,
        users, static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), correct ? "true" : "false");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("},\"counts\":{");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      std::printf("%s\"%s\":%llu", i == 0 ? "" : ",",
                  counts_[i].first.c_str(),
                  static_cast<unsigned long long>(counts_[i].second));
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
};

// ---------------------------------------------------------------------------
// Setup: preset generation, harness (split + attack training + LPPMs),
// event stream, engine construction.

/// Populations served by one end-to-end run.
std::size_t unit_count(const Args& args) {
  if (args.smoke) return 1;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(args.seconds / args.workload->unit_seconds)));
}

/// Seed of unit j; unit 0 uses --seed itself.
std::uint64_t unit_seed(const Args& args, std::size_t unit) {
  return args.seed + 1000003ULL * unit;
}

stream::StreamConfig engine_config(const Args& args) {
  stream::StreamConfig config;
  config.engine = stream::EngineMode::kLoop;
  config.shards = args.shards;
  config.window_seconds = args.workload->window_seconds;
  return config;
}

struct Setup {
  std::uint64_t seed = 0;
  std::unique_ptr<core::ExperimentHarness> harness;
  std::vector<stream::StreamEvent> events;
  double generate_s = 0.0;  ///< preset generation
  double harness_s = 0.0;   ///< harness construction + event stream
  double engine_s = 0.0;    ///< StreamEngine construction
  [[nodiscard]] double total() const {
    return generate_s + harness_s + engine_s;
  }
};

std::unique_ptr<stream::StreamEngine> make_engine(const Args& args,
                                                  const Setup& setup) {
  auto engine = std::make_unique<stream::StreamEngine>(
      setup.harness->make_engine(), engine_config(args));
  if (args.workload->checkpoint_every > 0) {
    const std::string dir =
        args.out + "/" + args.workload->name + ".checkpoints";
    std::filesystem::remove_all(dir);
    engine->configure_checkpoints(
        {dir, args.workload->checkpoint_every},
        {setup.seed, setup.harness->dataset_name(), setup.events.size(), 0});
  }
  return engine;
}

Setup set_up(const Args& args, std::uint64_t seed) {
  const Workload& w = *args.workload;
  Setup setup;
  setup.seed = seed;
  Clock::time_point t0 = Clock::now();
  const Shape& shape = args.smoke ? w.smoke : w.shape;
  simulation::GeneratorParams params =
      simulation::preset_params(w.preset, shape.scale, seed);
  if (shape.users > 0) params.users = shape.users;
  if (shape.days > 0) params.days = shape.days;
  const mobility::Dataset dataset = simulation::generate(params);
  setup.generate_s = seconds_since(t0);

  t0 = Clock::now();
  setup.harness = std::make_unique<core::ExperimentHarness>(
      dataset, core::ExperimentConfig{}, seed);
  setup.events = stream::make_event_stream(setup.harness->pairs());
  setup.harness_s = seconds_since(t0);

  t0 = Clock::now();
  const auto engine = make_engine(args, setup);
  setup.engine_s = seconds_since(t0);
  return setup;
}

// ---------------------------------------------------------------------------
// Serving: the producer loop and the reference check.

struct Serve {
  double serve_s = 0.0;  ///< first ingest -> quiesce returned
  double quiesce_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t refused = 0;  ///< ingests not admitted on the fast path
  stream::StreamStats stats;
  std::vector<stream::UserDecision> decisions;
  telemetry::HistogramSnapshot latency;
};

/// Traced runs time the producer side of every ingest.
struct ProducerTimers {
  telemetry::Histogram* ingest;  ///< each ingest call, incl. a full ring
  telemetry::Histogram* lag;     ///< ingest start minus the event's due time
};

/// Open loop when rate > 0: event i is due i/rate seconds after the start,
/// whatever the gateway does. Unpaced, every event is due at the start (a
/// burst) and the producer pushes as fast as the rings accept.
Serve serve(stream::StreamEngine& engine,
            const std::vector<stream::StreamEvent>& events, double rate,
            const ProducerTimers* timers = nullptr) {
  Serve out;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    Clock::time_point due = start;
    if (rate > 0.0) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(double(i) / rate));
      std::this_thread::sleep_until(due);
    }
    const Clock::time_point t0 =
        timers != nullptr ? Clock::now() : Clock::time_point{};
    const stream::IngestStatus status = engine.ingest(events[i]);
    if (timers != nullptr) {
      timers->lag->record(std::chrono::duration<double>(t0 - due).count());
      timers->ingest->record(seconds_since(t0));
    }
    if (status != stream::IngestStatus::kAdmitted) ++out.refused;
    engine.pump_cadences();
  }
  const Clock::time_point q0 = Clock::now();
  engine.quiesce();
  out.quiesce_s = seconds_since(q0);
  out.serve_s = seconds_since(start);
  return out;
}

/// The canonical final pass, timed, then the gateway's final state.
void finish(stream::StreamEngine& engine, Serve& run) {
  const Clock::time_point f0 = Clock::now();
  engine.finish();
  run.finish_s = seconds_since(f0);
  run.stats = engine.stats();
  run.decisions = engine.decisions();
  run.latency = engine.replay_latency();
}

struct Expected {
  decision::Verdict verdict;
  std::size_t events = 0;  ///< the user's test records
};
using Reference = std::map<mobility::UserId, Expected>;

/// The batch oracle: evaluate_gateway() for full-history workloads, the
/// same kernel with the workload's window over each whole test trace
/// otherwise.
Reference reference_verdicts(const Args& args,
                             const core::ExperimentHarness& harness) {
  const auto& pairs = harness.pairs();
  std::vector<decision::Verdict> verdicts(pairs.size());
  if (args.workload->window_seconds == 0) {
    const core::GatewayResult result = harness.evaluate_gateway();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      verdicts[i] = {result.users[i].decision, result.users[i].winner};
    }
  } else {
    const decision::DecisionKernel kernel = harness.make_kernel(
        {}, decision::KernelConfig{args.workload->window_seconds, 0, 0});
    support::parallel_for(pairs.size(), [&](std::size_t i) {
      verdicts[i] = kernel.decide_trace(pairs[i].test);
    });
  }
  Reference reference;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    reference.emplace(pairs[i].test.user(),
                      Expected{verdicts[i], pairs[i].test.size()});
  }
  return reference;
}

/// Failed events of one serve: events refused or dead-lettered, plus every
/// event of a user whose final decision or winner differs from the
/// reference, or who got no decision at all.
std::uint64_t failed_events(const Serve& run, const Reference& reference) {
  std::uint64_t failed =
      run.refused + run.stats.bad_records + run.stats.dead_letters;
  std::map<mobility::UserId, const stream::UserDecision*> decided;
  for (const stream::UserDecision& d : run.decisions) decided[d.user] = &d;
  for (const auto& [user, expected] : reference) {
    const auto it = decided.find(user);
    if (it == decided.end() ||
        it->second->decision != expected.verdict.decision ||
        it->second->winner != expected.verdict.winner) {
      failed += expected.events;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// End-to-end mode.

int run_end_to_end(const Args& args) {
  const std::size_t units = unit_count(args);
  std::vector<double> setup_s, finish_s;
  double rss_mb = 0.0;
  double busy_s = 0.0;  // serve + finish, summed over units
  std::uint64_t events = 0, failed = 0, searches = 0, rechecks = 0,
                checkpoints = 0, checkpoint_failures = 0;
  std::size_t users = 0;
  telemetry::HistogramSnapshot latency;
  for (std::size_t unit = 0; unit < units; ++unit) {
    const Setup setup = set_up(args, unit_seed(args, unit));
    setup_s.push_back(setup.total());

    const auto engine = make_engine(args, setup);
    Serve run = serve(*engine, setup.events, args.workload->rate);
    finish(*engine, run);
    if (unit == 0) rss_mb = peak_rss_mb();
    busy_s += run.serve_s + run.finish_s;
    finish_s.push_back(run.finish_s);
    merge_into(latency, run.latency);
    events += setup.events.size();
    users += setup.harness->pairs().size();
    searches += run.stats.searches;
    rechecks += run.stats.rechecks;
    checkpoints += run.stats.checkpoints;
    checkpoint_failures += run.stats.checkpoint_failures;
    failed += failed_events(run, reference_verdicts(args, *setup.harness));
  }

  // Throughput is over the whole run: every unit's events over every
  // unit's busy time. The host's speed drifts over minutes, often flipping
  // between a fast and a slow state from one unit to the next; this total
  // moves in proportion to the share of slow units, where a median over
  // units jumps between the two states. Set-up and finish, which are
  // reported per unit, are medians over units.
  Report report;
  report.metric("setup_s", median(setup_s), "s");
  report.metric("events_per_s", ratio(static_cast<double>(events), busy_s),
                "ev/s");
  report.metric("finish_s", median(finish_s), "s");
  report.metric("latency_p50_ms", percentile(latency, 0.50) * 1e3, "ms");
  report.metric("latency_p99_ms", percentile(latency, 0.99) * 1e3, "ms");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.metric("failed_frac",
                ratio(static_cast<double>(failed), static_cast<double>(events)),
                "ratio");
  report.count("stream.searches", searches);
  report.count("stream.rechecks", rechecks);
  report.count("stream.checkpoints", checkpoints);
  report.print(args, units, users, events, events, failed,
               failed == 0 && checkpoint_failures == 0);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced mode: the per-layer breakdown.

/// Runs `fn` and records its elapsed seconds into `histogram`.
template <typename Fn>
auto timed(telemetry::Histogram& histogram, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    histogram.record(seconds_since(t0));
  } else {
    auto result = fn();
    histogram.record(seconds_since(t0));
    return result;
  }
}

/// Serial single-threaded drive of the decision kernel over the same
/// stream with the loop engine's tier rule, then finalize on every user —
/// the per-layer split of the gateway's decision work and its
/// single-threaded baseline.
struct KernelPass {
  std::unordered_map<mobility::UserId, decision::UserKernelState> states;
  std::map<mobility::UserId, std::string> held_winners;  ///< before finalize
  decision::KernelStats stats;
};

KernelPass kernel_pass(const Args& args, const Setup& setup,
                       const std::vector<mobility::UserId>& sample,
                       telemetry::MetricsRegistry& timers, Report& report) {
  const stream::StreamConfig loop = engine_config(args);
  const decision::DecisionKernel kernel = setup.harness->make_kernel(
      {}, decision::KernelConfig{loop.window_seconds, loop.max_points,
                                 loop.staleness_points});
  telemetry::Histogram& fold = timers.histogram("decision_fold");
  telemetry::Histogram& decide = timers.histogram("decision_decide");
  telemetry::Histogram& recheck = timers.histogram("decision_recheck");
  telemetry::Histogram& held = timers.histogram("decision_held");
  telemetry::Histogram& finalize = timers.histogram("decision_finalize");

  KernelPass pass;
  pass.states.reserve(setup.harness->pairs().size());
  std::vector<mobility::Record> one(1);
  const Clock::time_point start = Clock::now();
  for (const stream::StreamEvent& event : setup.events) {
    auto [it, fresh] = pass.states.try_emplace(event.user);
    decision::UserKernelState& k = it->second;
    if (fresh) k.window.set_user(event.user);
    one[0] = event.record;
    timed(fold, [&] { kernel.fold(k, one); });
    if (!k.has_decision || loop.loop_slack == 0 ||
        k.events % loop.loop_slack == 0) {
      timed(decide, [&] { kernel.decide(k, 1); });
    } else if (loop.loop_recheck > 0 && k.events % loop.loop_recheck == 0) {
      timed(recheck, [&] { kernel.decide_recheck(k, 1); });
    } else {
      timed(held, [&] { kernel.decide_held(k, 1); });
    }
  }
  for (const mobility::UserId& user : sample) {
    pass.held_winners[user] = pass.states.at(user).winner;
  }
  for (auto& [user, k] : pass.states) {
    timed(finalize, [&] { kernel.finalize(k, 0); });
  }
  const double wall_s = seconds_since(start);

  double covered = 0.0;
  const std::pair<const char*, telemetry::Histogram*> tiers[] = {
      {"fold", &fold}, {"decide", &decide}, {"recheck", &recheck},
      {"held", &held}, {"finalize", &finalize}};
  for (const auto& [name, histogram] : tiers) {
    const telemetry::HistogramSnapshot s = histogram->snapshot();
    report.metric(std::string("decision.") + name + "_s", s.sum, "s");
    report.count(std::string("decision.") + name + "_calls", s.count);
    covered += s.sum;
  }
  report.metric("decision.coverage", ratio(covered, wall_s), "ratio");
  report.metric("decision.pass_s", wall_s, "s");
  pass.stats = kernel.stats();
  const decision::KernelStats& stats = pass.stats;
  report.count("decision.searches", stats.searches);
  report.count("decision.rechecks", stats.rechecks);
  report.count("decision.profile_refreshes", stats.profile_refreshes);
  report.count("decision.stay_rebuilds", stats.stay_rebuilds);
  report.count("decision.evicted_points", stats.evicted_points);
  report.count("decision.lppm_applications", stats.lppm_applications);
  report.count("decision.attack_invocations", stats.attack_invocations);
  return pass;
}

/// Users the attack and LPPM passes measure: every ceil(n/512)-th by id.
std::vector<mobility::UserId> sample_users(
    const core::ExperimentHarness& harness) {
  std::vector<mobility::UserId> users;
  for (const auto& pair : harness.pairs()) users.push_back(pair.test.user());
  std::sort(users.begin(), users.end());
  const std::size_t stride = (users.size() + kSampleUsers - 1) / kSampleUsers;
  std::vector<mobility::UserId> sample;
  for (std::size_t i = 0; i < users.size(); i += stride) {
    sample.push_back(users[i]);
  }
  return sample;
}

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

/// Targeted risk query of each attack on every sampled user's final
/// window, with the population-index work it did.
void attack_pass(const core::ExperimentHarness& harness,
                 const KernelPass& pass,
                 const std::vector<mobility::UserId>& sample, telemetry::MetricsRegistry& timers,
                 Report& report) {
  std::map<mobility::UserId, bool> caught;
  for (const auto& attack : harness.attacks()) {
    // "AP-Attack" -> "ap"
    const std::string key =
        lowercase(attack->name().substr(0, attack->name().find('-')));
    telemetry::Histogram& timer = timers.histogram("attack_" + key);
    const attacks::IndexStats before = attack->index_stats();
    for (const mobility::UserId& user : sample) {
      const mobility::Trace& window = pass.states.at(user).window;
      const bool hit = timed(
          timer, [&] { return attack->reidentifies_target(window, user); });
      caught[user] = caught[user] || hit;
    }
    const attacks::IndexStats after = attack->index_stats();
    const double queries = static_cast<double>(after.queries - before.queries);
    const double exact =
        static_cast<double>(after.exact_evaluations - before.exact_evaluations);
    const double pruned =
        static_cast<double>(after.pruned_candidates - before.pruned_candidates);
    const telemetry::HistogramSnapshot s = timer.snapshot();
    const std::string prefix = "attacks." + key;
    report.metric(prefix + ".query_us_p50", percentile(s, 0.50) * 1e6, "us");
    report.metric(prefix + ".query_us_p99", percentile(s, 0.99) * 1e6, "us");
    report.metric(prefix + ".exact_per_query", ratio(exact, queries),
                  "ratio");
    report.metric(prefix + ".pruned_frac", ratio(pruned, pruned + exact),
                  "ratio");
  }
  std::size_t reidentified = 0;
  for (const auto& [user, hit] : caught) reidentified += hit ? 1 : 0;
  report.metric("attacks.reid_frac",
                ratio(static_cast<double>(reidentified),
                      static_cast<double>(sample.size())),
                "ratio");
}

/// Mechanism search on every sampled at-risk user's final window, the
/// recheck of the winner held before finalize, and each single LPPM's
/// apply.
void lppm_pass(const Setup& setup, const KernelPass& pass,
               const std::vector<mobility::UserId>& sample, telemetry::MetricsRegistry& timers,
               Report& report) {
  const core::ExperimentHarness& harness = *setup.harness;
  const decision::MoodEngine engine = harness.make_engine();
  telemetry::Histogram& search = timers.histogram("lppm_search");
  telemetry::Histogram& recheck = timers.histogram("lppm_recheck");
  std::uint64_t applications = 0, attack_calls = 0, holds = 0;
  for (const mobility::UserId& user : sample) {
    const decision::UserKernelState& k = pass.states.at(user);
    if (k.decision == decision::Decision::kProtect) {
      decision::ProtectionResult cost;
      (void)timed(search, [&] { return engine.search(k.window, &cost); });
      applications += cost.lppm_applications;
      attack_calls += cost.attack_invocations;
    }
    const std::string& held = pass.held_winners.at(user);
    if (!held.empty()) {
      const bool hold = timed(
          recheck, [&] { return engine.recheck(held, k.window).has_value(); });
      holds += hold ? 1 : 0;
    }
  }
  const telemetry::HistogramSnapshot s = search.snapshot();
  const telemetry::HistogramSnapshot r = recheck.snapshot();
  const double searches = static_cast<double>(s.count);
  report.metric("lppm.search_ms_p50", percentile(s, 0.50) * 1e3, "ms");
  report.metric("lppm.search_ms_p99", percentile(s, 0.99) * 1e3, "ms");
  report.metric("lppm.applications_per_search",
                ratio(static_cast<double>(applications), searches), "ratio");
  report.metric("lppm.attack_calls_per_search",
                ratio(static_cast<double>(attack_calls), searches), "ratio");
  report.metric("lppm.recheck_ms_p50", percentile(r, 0.50) * 1e3, "ms");
  report.metric("lppm.recheck_hold_frac",
                ratio(static_cast<double>(holds), static_cast<double>(r.count)),
                "ratio");

  for (const lppm::Lppm* mechanism : harness.registry().singles()) {
    const std::string key = lowercase(mechanism->name());
    telemetry::Histogram& timer = timers.histogram("lppm_apply_" + key);
    for (const mobility::UserId& user : sample) {
      const mobility::Trace& window = pass.states.at(user).window;
      const support::RngStream rng =
          support::RngStream(setup.seed).fork(user).fork(mechanism->name());
      (void)timed(timer, [&] { return mechanism->apply(window, rng); });
    }
    report.metric("lppm.apply_ms." + key, percentile(timer.snapshot(), 0.50) * 1e3,
                  "ms");
  }
}

/// One capture / encode / commit / decode of the post-finish state.
void snapshot_pass(const Args& args, const stream::StreamEngine& engine,
                   const Serve& run, Report& report) {
  Clock::time_point t0 = Clock::now();
  const stream::SnapshotData data = engine.capture_snapshot();
  report.metric("stream.snapshot_capture_ms", seconds_since(t0) * 1e3, "ms");
  t0 = Clock::now();
  const std::string bytes = stream::encode_snapshot(data);
  report.metric("stream.snapshot_encode_ms", seconds_since(t0) * 1e3, "ms");
  const std::string dir = args.out + "/" + args.workload->name + ".snapshot";
  std::filesystem::remove_all(dir);
  t0 = Clock::now();
  (void)stream::write_snapshot_file(dir, bytes);
  report.metric("stream.snapshot_commit_ms", seconds_since(t0) * 1e3, "ms");
  t0 = Clock::now();
  const stream::SnapshotData decoded = stream::decode_snapshot(bytes);
  report.metric("stream.snapshot_decode_ms", seconds_since(t0) * 1e3, "ms");
  std::filesystem::remove_all(dir);
  if (decoded.users.size() != data.users.size()) {
    throw std::runtime_error("snapshot round trip lost users");
  }
  report.count("stream.snapshot_bytes", bytes.size(), "bytes");
  report.count("stream.checkpoints", run.stats.checkpoints);
}

/// Users whose final verdict differs between the serial kernel pass and
/// the gateway, plus one if their search or recheck counts differ (both
/// apply the same tier rule to the same stream, so they must not).
std::uint64_t kernel_mismatches(const KernelPass& pass, const Serve& run) {
  std::uint64_t mismatches =
      pass.stats.searches != run.stats.searches ||
              pass.stats.rechecks != run.stats.rechecks
          ? 1
          : 0;
  for (const stream::UserDecision& d : run.decisions) {
    const auto it = pass.states.find(d.user);
    if (it == pass.states.end() || it->second.decision != d.decision ||
        it->second.winner != d.winner) {
      ++mismatches;
    }
  }
  if (pass.states.size() > run.decisions.size()) {
    mismatches += pass.states.size() - run.decisions.size();
  }
  return mismatches;
}

const telemetry::HistogramSnapshot& engine_histogram(
    const telemetry::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& entry : snapshot.histograms) {
    if (entry.name == name) return entry.merged;
  }
  throw std::runtime_error("engine registry has no histogram " + name);
}

int run_traced(const Args& args) {
  const double rate = args.workload->rate;
  Report report;
  telemetry::MetricsRegistry timers;  // per-call timers, apart from the engine's
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::size_t users = 0;

  // 1. Untraced serve: the stream layers under end-to-end conditions.
  double busy_off_s = 0.0;
  {
    const Setup setup = set_up(args, args.seed);
    users = setup.harness->pairs().size();
    events = setup.events.size();
    const ProducerTimers producer{&timers.histogram("stream_ingest"),
                                  &timers.histogram("stream_lag")};
    const auto engine = make_engine(args, setup);
    Serve run = serve(*engine, setup.events, rate, &producer);
    finish(*engine, run);
    busy_off_s = run.serve_s + run.finish_s;
    const Clock::time_point m0 = Clock::now();
    const telemetry::MetricsSnapshot metrics = engine->metrics_snapshot();
    report.metric("telemetry.metrics_snapshot_ms", seconds_since(m0) * 1e3,
                  "ms");
    const telemetry::HistogramSnapshot in = producer.ingest->snapshot();
    report.metric("stream.ingest_us_p50", percentile(in, 0.50) * 1e6, "us");
    report.metric("stream.ingest_us_p99", percentile(in, 0.99) * 1e6, "us");
    const auto& ring = engine_histogram(metrics, "mood_stage_dequeue_seconds");
    report.metric("stream.ring_wait_ms_p50", percentile(ring, 0.50) * 1e3,
                  "ms");
    report.metric("stream.ring_wait_ms_p99", percentile(ring, 0.99) * 1e3,
                  "ms");
    const auto& service = engine_histogram(metrics, "mood_stage_decide_seconds");
    report.metric("stream.service_ms_p50", percentile(service, 0.50) * 1e3,
                  "ms");
    report.metric("stream.service_ms_p99", percentile(service, 0.99) * 1e3,
                  "ms");
    report.metric("stream.latency_ms_p50", percentile(run.latency, 0.50) * 1e3,
                  "ms");
    report.metric("stream.latency_ms_p99", percentile(run.latency, 0.99) * 1e3,
                  "ms");
    report.metric("stream.generator_lag_ms_p99",
                  percentile(producer.lag->snapshot(), 0.99) * 1e3, "ms");
    report.metric("stream.serve_s", run.serve_s, "s");
    report.metric("stream.finish_s", run.finish_s, "s");
    report.metric("stream.quiesce_s", run.quiesce_s, "s");
    failed += failed_events(run, reference_verdicts(args, *setup.harness));
  }

  // 2. Traced phases. The ring holds one span per event of the traced
  // serve (the engine's own per-decision spans) plus the coarse phases.
  telemetry::TraceSession& session = telemetry::TraceSession::instance();
  session.start(events + 4096);
  std::uint64_t kernel_diff = 0;
  {
    std::optional<Setup> setup;
    {
      MOOD_TRACE("bench.setup");
      setup.emplace(set_up(args, args.seed));
    }
    report.metric("simulation.generate_s", setup->generate_s, "s");
    report.metric("core.harness_s", setup->harness_s, "s");
    report.metric("stream.engine_init_s", setup->engine_s, "s");

    // Same producer instrumentation as the untraced serve, so the overhead
    // below is the tracing alone.
    const ProducerTimers producer{&timers.histogram("traced_ingest"),
                                  &timers.histogram("traced_lag")};
    const auto engine = make_engine(args, *setup);
    Serve run = [&] {
      MOOD_TRACE("bench.serve");
      return serve(*engine, setup->events, rate, &producer);
    }();
    {
      MOOD_TRACE("bench.finish");
      finish(*engine, run);
    }
    report.metric("telemetry.trace_overhead_frac",
                  ratio(run.serve_s + run.finish_s - busy_off_s, busy_off_s),
                  "ratio");
    {
      MOOD_TRACE("bench.verify");
      failed += failed_events(run, reference_verdicts(args, *setup->harness));
    }
    {
      MOOD_TRACE("bench.snapshot");
      snapshot_pass(args, *engine, run, report);
    }

    const std::vector<mobility::UserId> sample =
        sample_users(*setup->harness);
    const KernelPass pass = [&] {
      MOOD_TRACE("bench.kernel");
      return kernel_pass(args, *setup, sample, timers, report);
    }();
    kernel_diff = kernel_mismatches(pass, run);
    {
      MOOD_TRACE("bench.attacks");
      attack_pass(*setup->harness, pass, sample, timers, report);
    }
    {
      MOOD_TRACE("bench.lppm");
      lppm_pass(*setup, pass, sample, timers, report);
    }
  }
  session.stop();
  const std::string trace_path =
      args.out + "/" + args.workload->name + ".trace.json";
  std::ofstream trace(trace_path);
  session.dump_chrome_json(trace);
  trace.close();
  if (!trace) throw std::runtime_error("could not write " + trace_path);

  report.print(args, 1, users, events, 2 * events, failed,
               failed == 0 && kernel_diff == 0 && session.dropped() == 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    support::set_log_level(support::LogLevel::kWarn);
    support::ThreadPool::configure_shared(kSetupThreads);
    std::filesystem::create_directories(args.out);
    return args.traced ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mood_gateway_bench: %s\n", e.what());
    return 1;
  }
}
