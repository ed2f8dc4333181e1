#!/usr/bin/env python3
"""Builds and runs the FALCC benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fit_adult --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --steady 10 --workload serve_adult # spread check

A single-workload run prints an `env` line, the benchmark's own lines, and
as its last line the result object {"correct", "attempted", "failed",
"metrics"}. Builds go to $CARGO_TARGET_DIR (default `.bench_build`);
scratch files and traces go under `.bench_build/perfbench/`.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fit_adult", "serve_adult"]
RUN_TIMEOUT_S = 175
# Counts that must repeat bit for bit when a seed is run twice.
EXACT = [
    "models.splits_evaluated",
    "clustering.lloyd_iterations",
    "clustering.logmeans_probes",
    "core.combinations",
    "core.regions",
    "models.pool_members",
    "serve.compiled_members",
    "serve.flat_nodes",
    "artifact.bytes",
    "quality.global_bias",
]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path) or not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("run from a full checkout: BENCHMARK.json and the workspace Cargo.toml are needed")
    with open(path) as f:
        return json.load(f)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the `falcc` binary and the benchmark; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "falcc-cli", "--bin", "falcc"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "falcc"), os.path.join(release, "falcc-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", ".cargo", "crates", "src", "vendor", "perfbench"]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name != "Cargo.lock":
                    files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    target_cpu = "default"
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            m = re.search(r"target-cpu=([\w.-]+)", f.read())
            target_cpu = m.group(1) if m else target_cpu
    except OSError:
        pass
    git_rev, dirty = None, None
    if command_output(["git", "rev-parse", "--show-toplevel"]) == ROOT:
        git_rev = command_output(["git", "rev-parse", "HEAD"])
        status = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = bool(status) if status is not None else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "target_cpu": target_cpu,
        "git_rev": git_rev or "none (not a git checkout)",
        "git_dirty": dirty,
        "source_digest": source_digest(),
    }


def run_once(bins, spec, workload, seed, seconds, trace, quiet=False):
    """One benchmark run; returns (exit code, result object or None, its
    other output lines)."""
    falcc, bench = bins
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--falcc", falcc,
        "--work", os.path.join(out_dir, f"work-{workload}-{os.getpid()}"),
        "--trace-out", os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.jsonl"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None, []
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode or 1, None, lines
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    code = done.returncode
    if result["correct"] and reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}",
              file=sys.stderr)
        result["correct"] = False
        code = code or 1
    if not quiet:
        for line in lines[:-1]:
            print(line)
    return code, result, lines[:-1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(bins, spec, workloads, runs, seed, seconds):
    """Repeats each workload over `runs` seeds and reports every end-to-end
    metric's median, quartiles and spread against its bound; then runs one
    seed traced twice and checks that exact counts repeat."""
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w in workloads:
        values, global_bias = {}, []
        for i in range(runs):
            code, result, lines = run_once(bins, spec, w, seed + i, seconds, 0, quiet=True)
            if code != 0 or not result or not result["correct"]:
                print(f"{w} seed {seed + i}: run failed (exit {code})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            global_bias += [float(l.split()[2]) for l in lines if l.startswith("note test_global_bias ")]
            print(f"{w} seed {seed + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{w}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[name]["bound"]
            verdict = "exempt" if name == "setup_s" else (
                "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER"))
            ok &= verdict != "OVER"
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6} {verdict}")
        if global_bias:
            q1, med, q3 = quartiles(global_bias)
            print(f"  (test_global_bias, per layer: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"min {min(global_bias):.6g}, max {max(global_bias):.6g})")
        counts = []
        for _ in range(2):
            code, result, _ = run_once(bins, spec, w, seed, seconds, 1, quiet=True)
            if code != 0 or not result or not result["correct"]:
                print(f"  traced run failed (exit {code})")
                ok = False
                break
            counts.append({k: result["metrics"][k]["value"] for k in EXACT})
        if len(counts) == 2:
            same = counts[0] == counts[1]
            ok &= same
            print(f"  exact counts {'repeat' if same else 'DIFFER'}: {counts[0]}"
                  + ("" if same else f" vs {counts[1]}"))
        print(flush=True)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="RUNS",
                   help="repeat each workload over RUNS seeds and check the spreads")
    args = p.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bins = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.steady:
        sys.exit(0 if steady(bins, spec, workloads, args.steady, args.seed, seconds) else 1)

    env = dict(environment(), seed=args.seed, seconds=seconds, trace=args.trace)
    results, code = {}, 0
    for w in workloads:
        print("env " + json.dumps(dict(env, workload=w)), flush=True)
        started = time.monotonic()
        rc, result, _ = run_once(bins, spec, w, args.seed, seconds, args.trace)
        print(f"wall {w} {time.monotonic() - started:.1f} s", flush=True)
        code = code or rc
        if result is None:
            sys.exit(rc or 1)
        results[w] = result
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()
