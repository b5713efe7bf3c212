#!/usr/bin/env python3
"""RIPQ benchmark runner.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload query-fanout --seed 1 --seconds 40 --trace 0

builds `perfbench/` (a Cargo package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and relays its output:
one `metric` line per metric, one `detail` JSON line, and last the result
object `{"correct", "attempted", "failed", "metrics"}`. The exit code is
non-zero when the build fails or an output check fails.

Other commands:

    python3 perfbench/run.py sweep --runs 10 --out A.jsonl
        runs every workload of BENCHMARK.json (or --workloads ...) for its
        run_seconds (or --seconds) on seeds 1..runs, appends
        the detail and result lines to A.jsonl and prints each metric's
        median, quartiles and spread against its bound;

    python3 perfbench/run.py compare A.jsonl B.jsonl
        compares two such result sets metric by metric, per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["paper-batch", "query-fanout", "stream-ingest"]
# The default seed, and a second seed held out for confirming claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# Per-run wall limit, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = target_dir()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "ripq-perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--scratch", os.path.join(target_dir(), "perfbench-scratch"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        metrics[m["name"]] = m
    return metrics


def read_results(path):
    """(workload, trace) -> (list of metric dicts, list of detail dicts),
    from the detail and result lines of a result set."""
    groups = {}
    detail = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "detail" in doc:
                detail = doc["detail"]
            elif "metrics" in doc and detail is not None:
                key = (detail["workload"], int(detail["trace"]))
                values = {k: v["value"] for k, v in doc["metrics"].items()}
                runs, details = groups.setdefault(key, ([], []))
                runs.append(values)
                details.append(detail)
                detail = None
    return groups


def run_mismatches(details_a, details_b):
    """Warnings for runs of A and B that did not measure the same thing:
    one seed with two input digests, or differing episode counts."""
    warnings = []
    digests_a = {d.get("seed"): d.get("input_digest") for d in details_a}
    for d in details_b:
        seed = d.get("seed")
        if seed in digests_a and digests_a[seed] != d.get("input_digest"):
            warnings.append(f"seed {seed}: input digests differ, "
                            f"{digests_a[seed]} in A and {d.get('input_digest')} in B")
    episodes_a = sorted({d["episodes"] for d in details_a if "episodes" in d})
    episodes_b = sorted({d["episodes"] for d in details_b if "episodes" in d})
    if episodes_a != episodes_b or len(episodes_a) > 1:
        warnings.append(f"episode counts differ: A ran {episodes_a}, B ran {episodes_b}")
    return warnings


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summarize(groups, bounds):
    ok = True
    for (workload, trace), (runs, _) in sorted(groups.items()):
        print(f"\n{workload} (trace {trace}, {len(runs)} runs)")
        print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]:
            values = [r[name] for r in runs if name in r]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                if s > bound:
                    flag, ok = "OVER BOUND", False
                elif s > bound / 3:
                    flag = "over bound/3"
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {shown:>6} {flag}")
    return ok


def compare(path_a, path_b, bounds):
    a, b = read_results(path_a), read_results(path_b)
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        (runs_a, details_a), (runs_b, details_b) = a[key], b[key]
        print(f"\n{workload} (trace {trace}): A {len(runs_a)} runs, B {len(runs_b)} runs")
        for warning in run_mismatches(details_a, details_b):
            print(f"  WARNING: {warning}")
        print(f"  {'metric':<32} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} {'change':>8}  verdict")
        for name in runs_a[0]:
            va = [r[name] for r in runs_a if name in r]
            vb = [r[name] for r in runs_b if name in r]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spec = bounds.get(name, {})
            bound, better = spec.get("bound"), spec.get("better", "lower")
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse = change > 0 if better == "lower" else change < 0
            if bound is None:
                verdict = "no bound"
            elif max(spread(va), spread(vb)) > bound:
                verdict = "unresolved (spread wider than bound)"
            elif abs(change) <= bound:
                verdict = "within bound"
            else:
                verdict = "REGRESSION" if worse else "improvement"
            fa = f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            fb = f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
            print(f"  {name:<32} {fa:>36} {fb:>36} {100 * change:>7.2f}%  {verdict}")
    for key in sorted(set(a) ^ set(b)):
        print(f"\n{key[0]} (trace {key[1]}): only in one result set")


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        compare(args.a, args.b, load_bounds())
        return 0
    if argv and argv[0] == "sweep":
        p = argparse.ArgumentParser(prog="run.py sweep")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trace", type=int, default=0, choices=[0, 1])
        p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                       help="default: the workloads BENCHMARK.json lists")
        p.add_argument("--out", required=True)
        args = p.parse_args(argv[1:])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = args.seconds or spec["run_seconds"]
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        binary = build()
        if binary is None:
            return 1
        failed = False
        for workload in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                code, out = run_once(binary, workload, seed, seconds, args.trace)
                lines = [l for l in out.splitlines() if l.startswith("{")]
                with open(args.out, "a") as f:
                    f.write("\n".join(lines) + "\n")
                print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
                failed |= code != 0
        ok = summarize(read_results(args.out), load_bounds())
        return 1 if failed or not ok else 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args(argv)
    binary = build()
    if binary is None:
        return 1
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
