#!/usr/bin/env python3
"""Build and run the gateway benchmark (python3 standard library only).

Run from the repository root:

  python3 bench/gateway/run_benchmark.py [--repeats N] [--results F] [--append]
      The whole benchmark: every workload (BENCHMARK.json's and UNGRADED)
      --repeats times (5), each run in a fresh process with the workload
      order rotated between repeats, then one traced run per workload.
      Prints every metric with its median,
      quartiles and spread, writes --results (bench/gateway/out/results.json)
      and exits 1 if any event failed or a count differed between repeats.
      --append adds the repeats to an existing --results file instead (and
      skips the traced runs), so two checkouts can alternate one repeat at
      a time before they are compared.

  python3 bench/gateway/run_benchmark.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is one JSON object:
      {"correct", "attempted", "failed", "metrics"} with the end-to-end
      metrics of BENCHMARK.json (--trace 0) or its per-layer ones (--trace 1).

  python3 bench/gateway/run_benchmark.py --smoke
      Every workload at reduced size through the same correctness gates.

  python3 bench/gateway/run_benchmark.py --sweep-shards=1,2,3,4,6,8
      privamov-burst at each shard count (a one-off study, not graded).

  python3 bench/gateway/run_benchmark.py compare PARENT.json CHANGE.json
      Gains and regressions between two results files, one row per
      BENCHMARK.json workload: a gain needs >= 10 pairs, >= 9 in 10 won and
      medians further apart than the parent's quartile distance.

Every call first builds bench/gateway (a standalone CMake project that
pulls in the library sources) into bench/gateway/build; once built, that
is only an up-to-date check. README.md documents the workloads and metrics.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "mood_gateway_bench")
# Coarse phases every traced run must leave in <workload>.trace.json.
PHASES = ["bench.setup", "bench.serve", "bench.finish", "bench.verify",
          "bench.snapshot", "bench.kernel", "bench.attacks", "bench.lppm"]
MIN_PAIRS = 10
WIN_SHARE = 0.9
# Run by the whole benchmark and --smoke and printed like the others, but
# not declared in BENCHMARK.json, so no bound applies: city-finish's time is
# almost all the serial finish() pass, whose speed on a shared host drifts
# further between runs minutes apart than a bound can allow (README.md,
# "Limits").
UNGRADED = ["city-finish"]


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (a no-op on an up-to-date tree) and brings the benchmark
    program up to date. Build output goes to stderr so stdout stays the
    result channel."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target",
           "mood_gateway_bench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def missing_phases(workload):
    path = os.path.join(OUT, workload + ".trace.json")
    try:
        with open(path) as f:
            names = {event["name"] for event in json.load(f)["traceEvents"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return ["unreadable trace %s: %s" % (path, e)]
    return [phase for phase in PHASES if phase not in names]


def run_binary(workload, seed, seconds, traced=False, smoke=False,
               shards=None):
    """One benchmark process; returns its result object. A traced run is only
    correct if its Chrome trace parses and holds every coarse phase."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--out=" + OUT]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    if shards is not None:
        cmd.append("--shards=%d" % shards)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if traced:
        missing = missing_phases(workload)
        if missing:
            print("%s: trace is missing %s" % (workload, ", ".join(missing)),
                  file=sys.stderr)
            result["correct"] = False
    return result


def contract_result(spec, result, trace):
    """The one-run result line: exactly the declared metrics, with units."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise BenchError("metric %s missing or not in %s"
                             % (metric["name"], metric["unit"]))
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    return {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def host_metadata(args):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        except OSError:
            return None
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else None

    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    revision = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    dirty = None
    if revision is not None:
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                stdout=subprocess.PIPE, text=True)
        dirty = bool(status.stdout.strip())
    compiler = cache.get("CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_revision": revision,
        "git_dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def print_summary(workloads):
    """Every metric of the end-to-end runs (BENCHMARK.json's bounded ones
    and the rest) over the repeats, then the traced run's per-layer ones."""
    print("%-20s %-34s %14s %14s %14s %8s %s"
          % ("workload", "metric", "median", "q1", "q3", "spread", "unit"))
    for name, data in workloads.items():
        for metric, got in data["runs"][0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in data["runs"]]
            med, q1, q3, rel = spread(values)
            print("%-20s %-34s %14.6g %14.6g %14.6g %8.3f %s"
                  % (name, metric, med, q1, q3, rel, got["unit"]))
        traced = data.get("traced")
        if traced is not None:
            for metric, got in traced["metrics"].items():
                print("%-20s %-34s %14.6g %14s %14s %8s %s"
                      % (name, metric, got["value"], "", "", "traced",
                         got["unit"]))


def gate(workloads):
    """Problems that make the whole run fail: failed events, incorrect
    runs, and counts that did not repeat exactly between repeats."""
    problems = []
    for name, data in workloads.items():
        runs = data["runs"] + ([data["traced"]] if data.get("traced") else [])
        for run in runs:
            if run["failed"] > 0 or not run["correct"]:
                problems.append("%s: %d failed events (correct=%s)"
                                % (name, run["failed"], run["correct"]))
        counts = [run["counts"] for run in data["runs"]]
        if any(c != counts[0] for c in counts):
            problems.append("%s: counts differ between repeats: %s"
                            % (name, counts))
    return problems


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + UNGRADED


def run_suite(spec, args):
    names = workload_names(spec)
    results = {"schema": "mood-gateway-bench/1",
               "host": host_metadata(args),
               "workloads": {name: {"runs": []} for name in names}}
    appending = args.append and os.path.exists(args.results)
    if appending:
        with open(args.results) as f:
            previous = json.load(f)
        if (previous["host"]["seed"], previous["host"]["seconds"]) != (
                args.seed, args.seconds):
            raise BenchError("%s was measured with another seed or length"
                             % args.results)
        for name in names:
            results["workloads"][name] = previous["workloads"][name]
    done = len(results["workloads"][names[0]]["runs"])
    for repeat in range(done, done + args.repeats):
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            print("repeat %d: %s" % (repeat + 1, name), file=sys.stderr,
                  flush=True)
            results["workloads"][name]["runs"].append(
                run_binary(name, args.seed, args.seconds))
    results["host"]["repeats"] = done + args.repeats
    if not appending:
        for name in names:
            print("traced: %s" % name, file=sys.stderr, flush=True)
            results["workloads"][name]["traced"] = run_binary(
                name, args.seed, args.seconds, traced=True)
    print_summary(results["workloads"])
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "w") as f:
        json.dump(results, f, indent=1)
    print("wrote %s" % args.results)
    problems = gate(results["workloads"])
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


def run_smoke(spec):
    problems = []
    for name in workload_names(spec):
        for traced in (False, True):
            result = run_binary(name, 1, 1, traced=traced, smoke=True)
            status = "ok" if result["correct"] and result["failed"] == 0 \
                else "FAIL"
            print("smoke %-20s %-6s %s (%d events)"
                  % (name, "traced" if traced else "e2e", status,
                     result["events"]))
            if status != "ok":
                problems.append(name)
    return 1 if problems else 0


def run_sweep(args, shard_counts):
    rows = []
    print("%6s %12s %10s %14s %14s %s" % ("shards", "events_per_s",
                                          "finish_s", "latency_p50_ms",
                                          "latency_p99_ms", "correct"))
    for shards in shard_counts:
        result = run_binary("privamov-burst", args.seed, args.seconds,
                            shards=shards)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print("%6d %12.0f %10.3f %14.2f %14.2f %s"
              % (shards, m["events_per_s"], m["finish_s"],
                 m["latency_p50_ms"], m["latency_p99_ms"],
                 result["correct"] and result["failed"] == 0))
        rows.append({"shards": shards, "result": result})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "sweep.json")
    with open(path, "w") as f:
        json.dump({"host": host_metadata(args), "runs": rows}, f, indent=1)
    print("wrote %s" % path)
    return 0 if all(r["result"]["correct"] for r in rows) else 1


def compare(spec, parent_path, change_path):
    """Per workload and end-to-end metric: a gain needs >= 90% pair wins
    over >= 10 pairs and medians further apart than the parent's IQR; a
    metric worse by more than its bound is a regression, or unresolved
    when either side's spread exceeds the bound (unless every change run
    beats every parent run)."""
    with open(parent_path) as f:
        parent = json.load(f)["workloads"]
    with open(change_path) as f:
        change = json.load(f)["workloads"]
    metrics = spec["end_to_end"]
    regressions = 0
    print("%-20s %s" % ("workload", "  ".join(
        "%-26s" % m["name"] for m in metrics)))
    for workload in spec["workloads"]:
        name = workload["name"]
        cells = []
        for metric in metrics:
            before = [r["metrics"][metric["name"]]["value"]
                      for r in parent[name]["runs"]]
            after = [r["metrics"][metric["name"]]["value"]
                     for r in change[name]["runs"]]
            lower = metric["better"] == "lower"
            pairs = min(len(before), len(after))
            wins = sum(1 for b, a in zip(before, after)
                       if (a < b if lower else a > b))
            p_med, p_q1, p_q3, p_spread = spread(before)
            c_med, _, _, c_spread = spread(after)
            worse = ((c_med - p_med) if lower else (p_med - c_med)) / p_med
            all_better = (max(after) < min(before) if lower
                          else min(after) > max(before))
            if pairs < MIN_PAIRS:
                verdict = "pairs<%d" % MIN_PAIRS
            elif (worse < 0 and wins >= WIN_SHARE * pairs
                  and abs(c_med - p_med) > p_q3 - p_q1):
                verdict = "gain"
            elif max(p_spread, c_spread) > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "within"
            cells.append("%+7.1f%% %2d/%-2d %-10s"
                         % (-100 * worse, wins, pairs, verdict))
        print("%-20s %s" % (name, "  ".join(cells)))
    print("cells: change vs parent median (+ = better), pairs won, verdict")
    return 1 if regressions else 0


def main(argv):
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run_benchmark.py compare PARENT.json CHANGE.json",
                  file=sys.stderr)
            return 2
        return compare(spec, argv[1], argv[2])

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--results", default=os.path.join(OUT, "results.json"))
    parser.add_argument("--append", action="store_true",
                        help="add this call's repeats to an existing "
                        "--results, keeping its traced runs")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sweep-shards",
                        help="comma list of shard counts for privamov-burst")
    args = parser.parse_args(argv)
    names = workload_names(spec)
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %s (known: %s)"
                     % (args.workload, ", ".join(names)))

    build()
    if args.workload is not None:
        result = run_binary(args.workload, args.seed, args.seconds,
                            traced=args.trace == 1)
        print(json.dumps(contract_result(spec, result, args.trace == 1)))
        return 0
    if args.smoke:
        return run_smoke(spec)
    if args.sweep_shards:
        counts = [int(s) for s in args.sweep_shards.split(",") if s]
        return run_sweep(args, counts)
    return run_suite(spec, args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print("run_benchmark: %s" % e, file=sys.stderr)
        sys.exit(1)
