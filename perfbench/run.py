#!/usr/bin/env python3
"""Entry point of the gf-serve benchmark.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the release `gf-serve` binary and the `perfbench` load generator
from source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
it. Its last stdout line is the run's JSON result.

Steadiness report:
    python3 perfbench/run.py --steadiness N [--workloads a,b] [--seconds S]
                             [--seed-base B] [--trace 0|1]

runs each workload N times with seeds B, B+1, ... and prints, for every
metric, its median, quartiles, (q3-q1)/median and (max-min)/median, plus
the machine-speed probe of every run and `nproc`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rate_stream", "read_mix", "write_mix"]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "gf-serve", "--bin", "gf-serve"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def run_once(target, workload, seed, seconds, trace, capture):
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--server", os.path.join(target, "release", "gf-serve"),
        "--run-root", os.path.join(target, "perfbench-runs"),
    ]
    if not capture:
        return subprocess.run(cmd).returncode, None
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def steadiness(target, args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    print(f"nproc {os.cpu_count()}")
    for wl in workloads:
        values = {}
        units = {}
        for k in range(args.steadiness):
            seed = args.seed_base + k
            code, out = run_once(target, wl, seed, args.seconds, args.trace, True)
            lines = out.strip().splitlines()
            probe = next((l for l in lines if l.startswith("probe_ms")), "probe_ms ?")
            if code != 0 or not lines:
                print(f"{wl} seed {seed}: exit {code}")
                print(out)
                sys.exit(1)
            result = json.loads(lines[-1])
            print(f"{wl} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {probe}", flush=True)
            # Every metric line, gated in BENCHMARK.json or not.
            for line in lines:
                if line.startswith("metric "):
                    _, name, value, unit, _ = line.split()
                    values.setdefault(name, []).append(float(value))
                    units[name] = unit
        print(f"\n{wl}: {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            scale = abs(med) if med else 1.0
            print(f"{wl}: {name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{(q3 - q1) / scale:>8.3f} {(max(xs) - min(xs)) / scale:>9.3f} {units[name]}")
            print(f"{wl}:   runs " + " ".join(f"{x:.4g}" for x in xs))
        print(flush=True)


def main():
    p = argparse.ArgumentParser(description="gf-serve benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N")
    p.add_argument("--workloads", default="")
    p.add_argument("--seed-base", type=int, default=1)
    args = p.parse_args()
    if not args.steadiness and not args.workload:
        p.error("--workload is required")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target)
    if args.steadiness:
        steadiness(target, args)
        return
    code, _ = run_once(target, args.workload, args.seed, args.seconds, args.trace, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
