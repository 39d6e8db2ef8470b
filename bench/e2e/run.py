#!/usr/bin/env python3
"""End-to-end benchmark driver for psc (see README.md in this directory).

One workload (the last stdout line is the JSON result; --trace 1 reports
the per-layer metrics of a traced run instead of the end-to-end ones):

    python3 bench/e2e/run.py --workload gs-wavefront --seed 1 --seconds 20 --trace 0

Other modes:

    python3 bench/e2e/run.py                      # every workload, untraced + traced
    python3 bench/e2e/run.py --smoke              # tiny sizes, references, injected fault
    python3 bench/e2e/run.py --record FILE --runs 10   # append a set of runs to FILE
    python3 bench/e2e/run.py --compare A.json [B.json]  # medians, delta, bound

The harness is built from source into .bench_build at the repository root
on first use; traces, work directories and temp files live under
.bench_out. Nothing is read or written outside the repository.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as error:
        die(f"cannot read {BENCHMARK}: {error}")


# BENCHMARK.json declares the workloads, the run length and every metric
# with its unit; this driver computes the values.
CONFIG = load_benchmark()
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
DEFAULT_SECONDS = CONFIG["run_seconds"]
END_TO_END = [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in CONFIG["per_layer"]]

# Per-layer metrics come from the traced run. Span-derived ones are
# computed from the trace file; the rest are values the program's calls
# returned, summed by the harness over the measured ops.
MEAN_SPAN_MS = {  # metric -> span whose mean duration it reports
    "driver.compile_ms": "driver.compile",
    "frontend.parse_ms": "frontend.parse",
    "frontend.sema_ms": "frontend.sema",
    "graph.depgraph_ms": "graph.depgraph",
    "core.schedule_ms": "core.schedule",
    "codegen.c_emit_ms": "codegen.c_emit",
}
SHARE_OF_OP = {  # metric -> spans whose time is reported as % of op wall
    "driver.compile_pct": ("driver.compile", "total"),
    "native.cc_pct": ("native.cc", "total"),
    "runtime.engine_select_pct": ("runtime.engine_select", "self"),
    "runtime.input_copy_pct": ("runtime.input_copy", "total"),
    "wavefront.run_pct": ("wavefront.run", "total"),
    "interpreter.run_pct": ("interpreter.run", "total"),
    "runtime.output_read_pct": ("runtime.output_read", "total"),
    "runtime.release_pct": ("runtime.release", "total"),
    "service.request_pct": ("service.request", "total"),
    "service.render_pct": ("service.render", "total"),
}
COVERAGE_FLOOR_PCT = 95.0
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configure (once) and build the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no psc source tree at {ROOT} (run from a full checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            die(f"build failed: {error}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(step)}")
    return BUILD / "bench_e2e"


def _out():
    OUT.mkdir(exist_ok=True)
    return OUT


def run_harness(binary, args, timeout=RUN_TIMEOUT_S):
    """Run the harness in a fresh work directory (also its TMPDIR, so the
    native tier's cc scratch stays inside the repository); returns
    (exit code, stdout lines)."""
    with tempfile.TemporaryDirectory(dir=_out(), prefix="work-") as work:
        tmp = Path(work) / "tmp"
        tmp.mkdir()
        env = dict(os.environ, TMPDIR=str(tmp))
        try:
            done = subprocess.run([str(binary), *args, "--work-dir", work],
                                  cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            die(f"bench_e2e {' '.join(args)} timed out after {timeout} s")
        return done.returncode, done.stdout.splitlines()


def run_workload(binary, workload, seed, seconds, trace_file=None):
    """One harness run; returns its result object (exits on failure)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace_file is not None:
        args += ["--trace-out", str(trace_file)]
    code, lines = run_harness(binary, args)
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        die(f"bench_e2e exited with {code} on {workload}", code or 1)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"bench_e2e printed no result for {workload}")


# -- traced-run analysis ------------------------------------------------------

def analyse_trace(path):
    """Self times, shares of op wall and coverage from the bench spans."""
    with open(path) as f:
        doc = json.load(f)
    spans = [e for e in doc["traceEvents"]
             if e.get("ph") == "X" and e.get("pid") == 2]
    if not any(e["name"] == "op" for e in spans):
        die(f"{path}: no op spans")
    children = defaultdict(float)
    for e in spans:
        if e["args"]["parent"] >= 0:
            children[e["args"]["parent"]] += e["dur"]
    rows = defaultdict(lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0})
    all_durations = defaultdict(list)
    op_wall_us = 0.0
    covered_us = 0.0
    ops = 0
    for e in spans:
        all_durations[e["name"]].append(e["dur"])
        if e["args"]["op"] < 0:
            continue
        self_us = max(0.0, e["dur"] - children[e["args"]["id"]])
        if e["name"] == "op":
            ops += 1
            op_wall_us += e["dur"]
            covered_us += min(e["dur"], children[e["args"]["id"]])
            continue
        row = rows[e["name"]]
        row["count"] += 1
        row["total_us"] += e["dur"]
        row["self_us"] += self_us
    return {
        "ops": ops,
        "op_wall_us": op_wall_us,
        "coverage_pct": 100.0 * covered_us / op_wall_us,
        "rows": dict(rows),
        # Over all spans, set-up and verification included.
        "mean_ms": {name: statistics.fmean(d) / 1000
                    for name, d in all_durations.items()},
        "total_ms": {name: sum(d) / 1000 for name, d in all_durations.items()},
    }


def layer_metrics(result, analysis):
    """Every per-layer metric, by name."""
    values = dict(result["layers"])
    for metric, span in MEAN_SPAN_MS.items():
        values[metric] = analysis["mean_ms"].get(span, 0.0)
    wall = analysis["op_wall_us"]
    rows = analysis["rows"]
    for metric, (span, kind) in SHARE_OF_OP.items():
        row = rows.get(span)
        values[metric] = 100.0 * row[kind + "_us"] / wall if row else 0.0
    values["bench.span_coverage_pct"] = analysis["coverage_pct"]
    # Over every compile of the run: the solve workloads compile in set-up.
    totals = analysis["total_ms"]
    compile_ms = totals.get("driver.compile", 0.0)
    transform_ms = (totals.get("transform.hyperplane", 0.0) +
                    totals.get("transform.exact_bounds", 0.0))
    values["transform.compile_share_pct"] = (
        100.0 * transform_ms / compile_ms if compile_ms else 0.0)
    return values


def print_layer_table(analysis):
    ops = analysis["ops"]
    wall = analysis["op_wall_us"]
    print(f"per-layer self time over {ops} traced ops "
          f"({wall / ops / 1000:.3f} ms/op):")
    print(f"  {'span':28} {'count':>8} {'self ms/op':>11} {'share':>8}")
    for name, row in sorted(analysis["rows"].items(),
                            key=lambda kv: -kv[1]["self_us"]):
        print(f"  {name:28} {row['count']:8d} "
              f"{row['self_us'] / ops / 1000:11.4f} "
              f"{100.0 * row['self_us'] / wall:7.2f}%")
    gap = 100.0 - analysis["coverage_pct"]
    print(f"  {'(op, uncovered by spans)':28} {'':8} "
          f"{gap * wall / 100 / ops / 1000:11.4f} {gap:7.2f}%")


# -- modes ----------------------------------------------------------------------

def workload_run(args):
    binary = build()
    traced = args.trace == 1
    keep = Path(args.trace_dir).resolve() if args.trace_dir else None
    with tempfile.TemporaryDirectory(dir=_out(), prefix="trace-") as scratch:
        trace_file = None
        if traced:
            folder = keep or Path(scratch)
            folder.mkdir(parents=True, exist_ok=True)
            trace_file = folder / f"{args.workload}-seed{args.seed}.trace.json"
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              trace_file)
        if traced:
            analysis = analyse_trace(trace_file)
            print_layer_table(analysis)
            if analysis["coverage_pct"] < COVERAGE_FLOOR_PCT:
                die(f"bench spans cover {analysis['coverage_pct']:.2f}% of "
                    f"op wall time (< {COVERAGE_FLOOR_PCT}%)", 1)
            values = layer_metrics(result, analysis)
            chosen = PER_LAYER
        else:
            values = result["metrics"]
            chosen = END_TO_END
    print(f"samples {result['samples']}, tail p{result['tail_percentile']:g} "
          f"with {result['beyond_tail']} beyond, digest {result['digest']}")
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen},
    }
    print(json.dumps(out))


def full_run(args):
    """Every workload untraced, then traced: the metric table, the tracing
    overhead and the per-layer tables."""
    binary = build()
    trace_dir = Path(args.trace_dir or OUT / "traces").resolve()
    trace_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for workload in WORKLOADS:
        print(f"== {workload} (untraced)")
        plain = run_workload(binary, workload, args.seed, args.seconds)
        print(f"== {workload} (traced)")
        trace_file = trace_dir / f"{workload}-seed{args.seed}.trace.json"
        traced = run_workload(binary, workload, args.seed, args.seconds,
                              trace_file)
        analysis = analyse_trace(trace_file)
        print_layer_table(analysis)
        layers = layer_metrics(traced, analysis)
        rows.append((workload, plain, traced, layers, analysis))
        print(f"trace written to {trace_file}")

    print("\nend-to-end metrics (tracing off):")
    for workload, plain, _, _, _ in rows:
        print(f"{workload}: {plain['samples']} samples, "
              f"failed {plain['failed']}/{plain['attempted']}, "
              f"tail = p{plain['tail_percentile']:g} "
              f"({plain['beyond_tail']} beyond), digest {plain['digest']}")
        for name, unit in END_TO_END:
            print(f"  {name:14} {plain['metrics'][name]:14.6g} {unit}")
        ratio = plain["failed"] / plain["attempted"]
        print(f"  {'failed_ratio':14} {ratio:14.6g} fraction")
    print("\ntracing overhead (op_ms_p50):")
    ok = True
    for workload, plain, traced, layers, analysis in rows:
        untraced_p50 = plain["metrics"]["op_ms_p50"]
        traced_p50 = traced["metrics"]["op_ms_p50"]
        print(f"  {workload:17} untraced run {untraced_p50:10.4f} ms, "
              f"traced run {traced_p50:10.4f} ms "
              f"({100 * (traced_p50 / untraced_p50 - 1):+6.2f}%); "
              f"within the traced run {layers['trace.overhead_pct']:+6.2f}%; "
              f"span coverage {analysis['coverage_pct']:.2f}%")
        ok = ok and analysis["coverage_pct"] >= COVERAGE_FLOOR_PCT
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
    sys.exit(0 if ok else 1)


def smoke(_args):
    binary = build()
    code, lines = run_harness(binary, ["--smoke"])
    print("\n".join(lines))
    sys.exit(code)


def bounds():
    return {m["name"]: m for m in CONFIG["end_to_end"]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def record(args):
    """Run every workload --runs times with seeds seed..seed+runs-1 and
    append the set (values, medians, spreads) to the record file."""
    binary = build()
    code, lines = run_harness(binary, ["--info"])
    if code != 0:
        die("bench_e2e --info failed")
    info = json.loads(lines[-1])
    values = {w: defaultdict(list) for w in WORKLOADS}
    for run in range(args.runs):
        for workload in WORKLOADS:
            seed = args.seed + run
            result = run_workload(binary, workload, seed, args.seconds)
            if result["failed"]:
                die(f"{workload} seed {seed}: {result['failed']} failed ops", 1)
            for name, _ in END_TO_END:
                values[workload][name].append(result["metrics"][name])
            print(f"[{run + 1}/{args.runs}] {workload} seed {seed}: " +
                  ", ".join(f"{n}={result['metrics'][n]:.5g}"
                            for n, _ in END_TO_END), flush=True)
    entry = {
        "date": datetime.date.today().isoformat(),
        "nproc": info["nproc"],
        "lanes": info["lanes"],
        "cc_fingerprint": info["cc_fingerprint"],
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.runs - 1],
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry["workloads"][workload] = {
            name: {"values": vals, "median": statistics.median(vals),
                   "spread": spread(vals)}
            for name, vals in values[workload].items()}
    path = Path(args.record)
    doc = json.loads(path.read_text()) if path.exists() else {"sets": []}
    doc["sets"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print_spreads(entry)


def print_spreads(entry):
    limits = bounds()
    print(f"\nrun-to-run spread (IQR / median) over seeds {entry['seeds']}:")
    for workload, metrics in entry["workloads"].items():
        for name, m in metrics.items():
            print(f"  {workload:17} {name:12} median {m['median']:12.6g} "
                  f"spread {m['spread']:.4f}  bound {limits[name]['bound']:.2f}")


def compare(args):
    """Both medians, the delta and the verdict for each (workload, metric):
    the last set of A against the last set of B, or the first two sets of A
    when B is omitted."""
    sets_a = json.loads(Path(args.compare[0]).read_text())["sets"]
    if len(args.compare) > 1:
        a = sets_a[-1]
        b = json.loads(Path(args.compare[1]).read_text())["sets"][-1]
    elif len(sets_a) >= 2:
        a, b = sets_a[0], sets_a[1]
    else:
        die("--compare needs two record files or one with two sets")
    limits = bounds()
    worse = 0
    print(f"{'workload':17} {'metric':12} {'A median':>12} {'B median':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        for name, _ in END_TO_END:
            ma = a["workloads"].get(workload, {}).get(name)
            mb = b["workloads"].get(workload, {}).get(name)
            if ma is None or mb is None:
                print(f"{workload:17} {name:12} missing from set "
                      f"{'A' if ma is None else 'B'}")
                worse += 1
                continue
            base, new = ma["median"], mb["median"]
            delta = (new - base) / base if base else 0.0
            limit = limits[name]
            regress = -delta if limit["better"] == "higher" else delta
            verdict = "within bound" if regress <= limit["bound"] else "WORSE"
            worse += verdict == "WORSE"
            print(f"{workload:17} {name:12} {base:12.6g} {new:12.6g} "
                  f"{100 * delta:+7.2f}% {limit['bound']:6.2f}  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--trace-dir",
                        help="keep trace files here (default: discarded in "
                             "single-workload mode, .bench_out/traces otherwise)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    args = parser.parse_args()
    if args.smoke:
        smoke(args)
    elif args.compare:
        compare(args)
    elif args.record:
        record(args)
    elif args.workload:
        workload_run(args)
    else:
        full_run(args)


if __name__ == "__main__":
    main()
