#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout. It builds the Go program in
perfbench/ (its own module, which imports the simulator from the checkout)
into .bench_build/, runs one workload in a process of its own with
GOMAXPROCS=1, checks that the result carries exactly the metrics
BENCHMARK.json names, and prints the program's output. The last line is the
JSON result. A traced run (--trace 1) also writes a CPU profile to
.bench_out/. Everything the build and the run write stays inside the
checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("suite-quick", "daint-halo3d", "daint-openstream")

BUILD_TIMEOUT_S = 840  # a first build compiles the standard library too
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def go_env():
    """The environment of the go command: caches, temporary files and the
    go configuration directory all live under .bench_build."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def describe():
    """git describe of the checkout, or "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 and res.stdout.strip() else "unknown"


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("go.mod", "internal", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail(f"{os.path.join(ROOT, need)} not found: run from a full source checkout")

    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."],
                               cwd=HERE, env=go_env(), timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build: {e}")
    if build.returncode != 0:
        return fail("build failed")

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-describe", describe()]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["-cpuprofile", os.path.join(OUT, f"{args.workload}-seed{args.seed}.cpu.pprof")]
    env = dict(os.environ, GOMAXPROCS="1")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        return fail(f"{args.workload} exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail("the last output line is not a JSON result")
    want = expected_metrics(args.trace)
    if set(result.get("metrics", {})) != want:
        return fail(f"metrics differ from BENCHMARK.json: got {sorted(result.get('metrics', {}))}, "
                    f"want {sorted(want)}")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
