#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload ea_bus --seed 1 --seconds 20 --trace 0

The build goes to .bench_build at the checkout root ($CARGO_TARGET_DIR when
set); the first call configures and compiles, later calls only check that
the build is current. With --trace 1 the run prints the per-layer metrics
and writes its spans to <build>/traces/<workload>-<seed>.jsonl.

The last line printed is the run's result object. When BENCHMARK.json is
present its metric names and units are checked against that line. Exits
non-zero, without a result line, when the build, the run or that check
fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "bench_e2e",
                "pconn_shardd", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")


def check_against_manifest(result, traced):
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(manifest_path):
        return
    with open(manifest_path) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    command = [os.path.join(build_dir, "bench_e2e"),
               "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command.append("--trace=" + os.path.join(
            trace_dir, "%s-%d.jsonl" % (args.workload, args.seed)))
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("bench_e2e exited with %d" % run.returncode)
    result = json.loads(lines[-1])
    check_against_manifest(result, bool(args.trace))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
