"""Cold-process benchmark of slcob.  Standard library only.

One run of one workload, as BENCHMARK.json declares it:

    python3 perfbench/run.py --workload cf-cold-t12 --seed 1 --seconds 38 --trace 0

prints a short report on stderr and, as the last line of stdout, a JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, measured with no tracing.
With `--trace 1` they are the per-layer ones: the run makes one pass under
perfbench/tracer.py (self time per layer, call counts, matrix sizes), with
each command also run untraced just before and just after its traced run,
and one pass that only counts the hottest calls.

The children run with PYTHONHASHSEED set from `--seed`, so the runs over
many seeds cover the string-hash orders too.

    python3 perfbench/run.py --all [--seed 1] [--out results.json]

runs every workload with seeds seed..seed+9 untraced, then once traced, and
prints every metric with its unit, each layer's share of the traced
`wall_s` and the unaccounted remainder.

    python3 perfbench/run.py --compare OLD.json NEW.json

compares two result files (written with `--out`) metric by metric.
perfbench/baseline.json holds the runs of the seed commit: seeds 1-10 and
11-20 of every workload and one traced run per set.

Per-layer metrics are totals over the pass's processes.  `*_s` are self
times of tracer.py's layers, except `cli.import_s` (the time of
`import slcob.cli`), `cli.fixtures_s` (time inside
`cli.fixtures`, callees included) and `intmat.kernel_max_call_s` (the
longest single `kernel_basis` call); `*_calls` count calls; `*_bits` are the
largest matrix entries seen; `trace.overhead_s` is the sum over the
commands of the traced time minus the mean of the two untraced times around
it, which cancels most of the host's drift, and `trace.unaccounted_s` the
traced wall time no layer or import explains (mostly interpreter start and
exit).

`--truncation N` shrinks every workload to truncation N (at least 6) for a
smoke run that takes seconds; the benchmark's own tests use it.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time

import compare
import harness
import tracer
import workloads as wl

BENCHMARK_JSON = os.path.join(harness.ROOT, "BENCHMARK.json")
SETUP_REPEATS = 2     # set-up probes before each command of a pass
DEADLINE_S = 170
RUNS = 10             # seeds per workload in `--all`
SETUP_CODE = "import slcob.cli, time; print(time.monotonic_ns())"

# Per-layer metric -> the layer whose self time it reports (see tracer.py).
SELF_TIMES = {
    "fgl.context_s": "fgl.context",
    "fgl.op_class_s": "fgl.op_class",
    "symfun.m_to_e_s": "symfun.m_to_e",
    "mu.reciprocal_s": "mu.reciprocal",
    "mu.generators_s": "mu.generators",
    "mu.coords_s": "mu.coords",
    "operations.apply_s": "operations.apply",
    "intmat.kernel_s": "intmat.kernel",
    "intmat.solver_s": "intmat.solver",
    "intmat.snf_s": "intmat.snf",
    "abelian.cokernel_s": "abelian.cokernel",
    "conner_floyd.opmat_s": "conner_floyd.opmat",
    "conner_floyd.w_lattice_s": "conner_floyd.w_lattice",
    "conner_floyd.differential_s": "conner_floyd.differential",
    "conner_floyd.homology_s": "conner_floyd.homology",
    "msl.table_s": "msl.table",
    "witt.data_s": "witt.data",
    "kq.table_s": "kq.table",
    "charnum.class_s": "charnum.class",
    "charnum.verdict_s": "charnum.verdict",
    "verify.leibniz_s": "verify.leibniz",
}
# Per-layer metric -> the wrapped function whose calls it counts.
CALLS = {
    "mu.coords_calls": "mu.MUBasis.to_coordinates",
    "operations.apply_calls": "operations.apply_operation",
    "intmat.kernel_calls": "intmat.kernel_basis",
    "intmat.solve_calls": "intmat.HNFSolver.solve",
}
HOT_CALLS = {"bpoly.mul_calls": "bpoly.mul"}


def spec():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class Tally:
    """Operations attempted and failed over a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, gate):
        attempted, failed, messages = gate
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


class Job:
    """One command of a pass and the gate that checks its answer."""

    def __init__(self, argv, heavy, gate):
        self.argv = argv
        self.heavy = heavy
        self.gate = gate


def pass_jobs(workload, seed, truncation, expected):
    flag = [] if truncation == wl.TRUNCATION else ["--truncation",
                                                   str(truncation)]
    if workload == "cf-cold-t12":
        return [Job(flag + ["cf", "homology", "--json"], True,
                    lambda rc, out: wl.gate_cf_homology(rc, out, truncation))]
    if workload == "leibniz-t12":
        return [Job(flag + ["verify", "--suite", "leibniz"], True,
                    lambda rc, out: wl.gate_leibniz(rc, out, truncation))]
    return [command_job(cmd, expected)
            for cmd in wl.cli_mix_commands(seed, truncation)]


def command_job(cmd, expected):
    return Job(cmd.argv, cmd.heavy,
               lambda rc, out: wl.gate_command(cmd, rc, out, expected))


def check(job, proc, tally):
    attempted, failed, messages = job.gate(proc.rc, proc.stdout)
    if failed and proc.stderr:
        messages = messages + ["stderr: " + proc.stderr.strip()[-300:]]
    tally.add((attempted, failed, messages))


def run_jobs(box, jobs, tally, mode=None):
    """Run each job, under the tracer in `mode` if one is given.  Returns
    [(job, proc, trace)] for the jobs that ran; a job the deadline leaves
    no time for fails without running."""
    done = []
    for job in jobs:
        if box.expired():
            attempted, failed, _ = job.gate(-1, "")
            tally.add((attempted, failed, ["not run: deadline passed"]))
            continue
        trace = None
        if mode:
            proc, path = box.traced(mode, job.argv)
            trace = load_trace(path)
        else:
            proc = box.slcob(job.argv)
        check(job, proc, tally)
        done.append((job, proc, trace))
    return done


def measure_setup(box, tally, repeats):
    """Spawn-to-`import slcob.cli`-returned times of fresh interpreters."""
    out = []
    for _ in range(repeats):
        if box.expired():
            tally.add((1, 1, ["setup probe not run: deadline passed"]))
            continue
        proc = box.spawn(["-c", SETUP_CODE])
        try:
            out.append((int(proc.stdout) - proc.started_ns) / 1e9)
            tally.add((1, 0 if proc.rc == 0 else 1, []))
        except ValueError:
            tally.add((1, 1, ["setup probe: exit code %d, %r"
                              % (proc.rc, proc.stderr[-200:])]))
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(box, workload, seed, seconds, truncation, expected, tally):
    """End-to-end metrics.  Passes repeat while the next one still fits in
    `seconds`; there is always at least one.

    The host's speed drifts by up to half over spans of seconds, so the
    short measurements are spread over the whole run rather than taken in
    one burst: set-up probes before every command of a pass (and the light
    probes of the t12 workloads before every pass), and once more at the
    end."""
    start = time.monotonic()
    jobs = pass_jobs(workload, seed, truncation, expected)
    probes = [] if workload == "cli-mix" else [
        command_job(c, expected) for c in wl.light_probe_commands()]
    samples = {"setup_s": [], "light_cmd_s": [], "heavy_cmd_s": [],
               "wall_s": [], "peak_rss_mb": []}

    def record(done, kind):
        for job, proc, _ in done:
            samples[kind or ("heavy_cmd_s" if job.heavy else "light_cmd_s")] \
                .append(proc.wall_s)
            samples["peak_rss_mb"].append(proc.rss_mb)

    def short_probes():
        samples["setup_s"] += measure_setup(box, tally, SETUP_REPEATS)
        record(run_jobs(box, probes, tally), "light_cmd_s")

    while True:
        began = time.monotonic()
        wall = 0.0
        for job in jobs:
            short_probes()
            done = run_jobs(box, [job], tally)
            record(done, None)
            wall += sum(proc.wall_s for _, proc, _ in done)
        samples["wall_s"].append(wall)
        now = time.monotonic()
        if now - start + (now - began) > seconds or box.expired():
            break
    short_probes()
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = max(samples["peak_rss_mb"], default=0.0)
    return metrics, samples


def load_trace(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def merge_traces(traces):
    """Sum the traces of a pass's processes (maxima for sizes and maxima)."""
    agg = {"import_s": 0.0, "self_s": {}, "calls": {}, "inclusive": {},
           "bits": {}, "hits": 0, "misses": 0}
    for tr in traces:
        if tr is None:
            continue
        agg["import_s"] += tr["import_s"]
        for key, value in tr["self_s"].items():
            agg["self_s"][key] = agg["self_s"].get(key, 0.0) + value
        for key, value in tr["calls"].items():
            agg["calls"][key] = agg["calls"].get(key, 0) + value
        for key, (total, longest) in tr["inclusive"].items():
            old = agg["inclusive"].get(key, (0.0, 0.0))
            agg["inclusive"][key] = (old[0] + total, max(old[1], longest))
        for key, value in tr["bits"].items():
            agg["bits"][key] = max(agg["bits"].get(key, 0), value)
        agg["hits"] += tr["distribute_count_cache"]["hits"]
        agg["misses"] += tr["distribute_count_cache"]["misses"]
    return agg


def sandwiched_pass(box, jobs, tally):
    """Run each job untraced, traced and untraced again, back to back, so
    that the host's drift over the pass cancels from the overhead.
    Returns (traced wall, untraced wall, merged trace); the untraced wall
    of a job is the mean of its two untraced runs."""
    wall = untraced = 0.0
    traces = []
    for job in jobs:
        runs = [run_jobs(box, [job], tally, mode)
                for mode in (None, "layers", None)]
        if not all(runs):
            continue
        (_, before, _), (_, traced, trace), (_, after, _) = \
            (done[0] for done in runs)
        wall += traced.wall_s
        untraced += (before.wall_s + after.wall_s) / 2
        traces.append(trace)
    return wall, untraced, merge_traces(traces)


def run_traced(box, workload, seed, truncation, expected, tally):
    """Per-layer metrics from one traced pass, with untraced runs around
    each command, and one counting pass over the same commands."""
    jobs = pass_jobs(workload, seed, truncation, expected)
    wall, untraced_wall, agg = sandwiched_pass(box, jobs, tally)
    counts = merge_traces(trace for _, _, trace
                          in run_jobs(box, jobs, tally, "counts"))
    self_s, calls, incl = agg["self_s"], agg["calls"], agg["inclusive"]
    metrics = {
        "cli.import_s": agg["import_s"],
        "cli.fixtures_s": incl.get("cli.fixtures", (0.0, 0.0))[0],
        "intmat.kernel_max_call_s": incl.get("intmat.kernel_basis",
                                             (0.0, 0.0))[1],
        "symfun.cache_hit_ratio": (agg["hits"] / (agg["hits"] + agg["misses"])
                                   if agg["hits"] + agg["misses"] else 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.unaccounted_s": wall - agg["import_s"] - sum(self_s.values()),
    }
    metrics.update({m: self_s.get(layer, 0.0)
                    for m, layer in SELF_TIMES.items()})
    metrics.update({m: calls.get(key, 0) for m, key in CALLS.items()})
    metrics.update({m: counts["calls"].get(key, 0)
                    for m, key in HOT_CALLS.items()})
    metrics.update({m: agg["bits"].get(m, 0) for m in tracer.BITS.values()})
    breakdown = {"wall_s": wall, "untraced_wall_s": untraced_wall,
                 "import_s": agg["import_s"], "self_s": self_s,
                 "calls": calls, "hot_calls": counts["calls"]}
    return metrics, breakdown


def run_one(workload, seed, seconds, trace, truncation, expected=None):
    """One run of one workload; returns the full result record."""
    expected = wl.load_expected() if expected is None else expected
    tally = Tally()
    box = harness.Sandbox(DEADLINE_S, seed)
    try:
        if trace:
            values, detail = run_traced(box, workload, seed, truncation,
                                        expected, tally)
        else:
            values, detail = run_untraced(box, workload, seed, seconds,
                                          truncation, expected, tally)
    finally:
        box.close()
    if trace:
        values["error_rate"] = tally.failed / max(tally.attempted, 1)
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "truncation": truncation,
        "meta": harness.run_meta(seed),
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": detail, "failures": tally.messages[:50],
    }


def summary_line(record):
    return json.dumps({k: record[k] for k in ("correct", "attempted",
                                               "failed", "metrics")})


def format_run(record, out):
    print("%s seed %d trace %d: %d/%d operations failed (harness peak RSS "
          "%.1f MB)" % (record["workload"], record["seed"], record["trace"],
                        record["failed"], record["attempted"],
                        record["meta"]["harness_peak_rss_mb"]), file=out)
    for msg in record["failures"][:10]:
        print("  FAIL %s" % msg, file=out)
    for name, m in record["metrics"].items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]), file=out)
    if record["trace"]:
        format_breakdown(record["detail"], out)


def format_breakdown(detail, out):
    """Each layer's self time as a share of the traced wall time."""
    wall = detail["wall_s"]
    rows = [("process start and import", detail["import_s"])]
    rows += sorted(detail["self_s"].items(), key=lambda kv: -kv[1])
    rows.append(("unaccounted", wall - sum(v for _, v in rows)))
    print("  traced wall %.3f s, untraced %.3f s:"
          % (wall, detail["untraced_wall_s"]), file=out)
    for name, value in rows:
        if value or name == "unaccounted":
            print("    %-30s %10.4f s %6.1f%%"
                  % (name, value, 100.0 * value / wall if wall else 0.0),
                  file=out)


def append_results(path, records):
    data = {"format": "perfbench-results-1", "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["runs"] += records
    with open(path + ".tmp", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def run_all(args):
    records = []
    seeds = range(args.seed, args.seed + RUNS)
    for seed in seeds:
        for workload in wl.WORKLOADS:
            records.append(run_one(workload, seed, args.seconds, 0,
                                   args.truncation))
            format_run(records[-1], sys.stderr)
    for workload in wl.WORKLOADS:
        records.append(run_one(workload, args.seed, args.seconds, 1,
                               args.truncation))
    if args.out:
        append_results(args.out, records)
    compare.print_summary(records, sys.stdout)
    for record in records:
        if record["trace"]:
            format_run(record, sys.stdout)
    return 0 if all(r["correct"] for r in records) else 3


def main(argv=None):
    # Turn SIGTERM into SystemExit, so that the running child is killed
    # and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--truncation", type=int, default=wl.TRUNCATION)
    parser.add_argument("--out", help="append the run record(s) to this file")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], BENCHMARK_JSON)
    if not os.path.isfile(os.path.join(harness.SRC, "slcob", "cli.py")):
        print("error: no slcob sources at %s" % harness.SRC, file=sys.stderr)
        return 2
    if not 6 <= args.truncation <= wl.TRUNCATION or args.seconds < 1:
        parser.error("--truncation must be 6..%d and --seconds at least 1"
                     % wl.TRUNCATION)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload, --all or --compare")
    record = run_one(args.workload, args.seed, args.seconds, args.trace,
                     args.truncation)
    format_run(record, sys.stderr)
    if args.out:
        append_results(args.out, [record])
    print(summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
