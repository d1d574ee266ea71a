"""Summaries of result files and the comparison of two of them.

For every workload and metric each side shows its median and quartiles
over its runs.  An end-to-end metric is flagged `worse` when the new median
is worse than the old by more than the metric's bound in BENCHMARK.json,
and `unresolved` when either side's spread between quartiles, as a share of
its median, exceeds the bound, unless every new run beats every old run.
Per-layer metrics have no bound and are listed without a flag.
"""

import json
import statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def collect(records):
    """{(workload, trace): {metric: ([values], unit)}}"""
    out = {}
    for rec in records:
        table = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            table.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return out


def print_summary(records, out):
    """Every metric of every workload: median, quartiles, spread, runs."""
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print("%d runs, %d of %d operations failed" % (len(records), failed,
                                                  attempted), file=out)
    for (workload, trace), table in sorted(collect(records).items()):
        print("%s (%s)" % (workload, "traced" if trace else "end to end"),
              file=out)
        for name, (values, unit) in table.items():
            q1, med, q3 = quartiles(values)
            print("  %-30s %12.6g %-6s [%.6g .. %.6g] spread %5.1f%% n=%d"
                  % (name, med, unit, q1, q3, 100 * spread(values),
                     len(values)), file=out)


def verdict(old, new, bound, lower_is_better):
    if max(spread(old), spread(new)) > bound:
        beats = max(new) < min(old) if lower_is_better else min(new) > max(old)
        return "better" if beats else "unresolved"
    before, after = quartiles(old)[1], quartiles(new)[1]
    if not before:
        return "ok"
    change = (after - before) / before
    if not lower_is_better:
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "ok"


def main(old_path, new_path, benchmark_path):
    with open(benchmark_path) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    sides = []
    for path in (old_path, new_path):
        with open(path) as fh:
            sides.append(collect(json.load(fh)["runs"]))
    old, new = sides
    worse = 0
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        print("%s (%s)" % (workload, "traced" if trace else "end to end"))
        for name in sorted(set(old.get(key, {})) | set(new.get(key, {}))):
            a, unit = old.get(key, {}).get(name, ([], ""))
            b, unit = new.get(key, {}).get(name, ([], unit))
            flag = ""
            if not a or not b:
                flag = "missing"
            elif not trace and name in bounds:
                flag = verdict(a, b, *bounds[name])
                worse += flag == "worse"
            print("  %-30s old %s  new %s %-6s %s"
                  % (name, _fmt(a), _fmt(b), unit, flag))
    return 1 if worse else 0


def _fmt(values):
    if not values:
        return "%34s" % "-"
    q1, med, q3 = quartiles(values)
    return "%10.5g [%9.5g..%9.5g]" % (med, q1, q3)
