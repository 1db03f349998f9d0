#!/usr/bin/env python3
"""Builds bench_e2e and runs the end-to-end reconciliation benchmark.

One workload, as the command in BENCHMARK.json runs it:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  The last line of standard output is the run's JSON result. Spans of a
  traced run go to .bench_build/trace-NAME-sN.json.

The whole suite (smoke pass, each workload untraced in its own process,
then the traced pass), writing bench/e2e/results/<commit>-s<seed>.json:

  python3 bench/e2e/run.py [--seed S] [--workloads a,b] [--seconds S]
                           [--no-trace] [--smoke] [--out FILE]

  --smoke runs only the smoke pass: every workload at reduced size for about
  a second, checking correctness and replay identity.

Runs from the repository root or anywhere else; builds into .bench_build/ at
the root (Release, via bench/e2e/CMakeLists.txt). Pure standard library.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ["emd_wide_prior", "emd_large_diff", "serve_churn", "gap_hamming"]
RUN_TIMEOUT_S = 175  # one workload run; the binary caps its own window at 150 s


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds bench_e2e; the library comes from src/."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found under " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; full log in " + log_path)


def benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


def run_binary(args):
    """Runs bench_e2e; returns (exit code, stdout lines, parsed last line)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e %s timed out" % " ".join(args), 1)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def run_one(opts):
    """One workload: the binary's output, its metric names checked against
    BENCHMARK.json."""
    if opts.workload not in WORKLOADS:
        fail("unknown workload " + opts.workload)
    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace == 1:
        args += ["--trace-out", os.path.join(
            BUILD, "trace-%s-s%d.json" % (opts.workload, opts.seed))]
    code, lines, result = run_binary(args)
    print("\n".join(lines))
    if result is None:
        fail("bench_e2e printed no result", 1)
    expected = benchmark_names("per_layer" if opts.trace else "end_to_end")
    if list(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json", 1)
    sys.exit(code)


def commit_name():
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, text=True, capture_output=True)
        return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(opts):
    workloads = opts.workloads.split(",") if opts.workloads else WORKLOADS
    for name in workloads:
        if name not in WORKLOADS:
            fail("unknown workload " + name)
    build()
    ok = True
    for name in workloads:
        code, _, result = run_binary(["--workload", name, "--smoke",
                                      "--trace", "1"])
        print("smoke %s: %s" % (name, "ok" if code == 0 else "FAILED"))
        ok = ok and code == 0 and result is not None
    if not ok or opts.smoke:
        sys.exit(0 if ok else 1)

    commit = commit_name()
    report = {"commit": commit, "seed": opts.seed, "seconds": opts.seconds,
              "host": None, "workloads": {}}
    passes = [("untraced", 0)] + ([] if opts.no_trace else [("traced", 1)])
    for label, trace in passes:
        for name in workloads:
            out = os.path.join(BUILD, "result-%s-%s.json" % (name, label))
            code, lines, _ = run_binary([
                "--workload", name, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(trace),
                "--out", out,
                "--trace-out", os.path.join(BUILD, "trace-%s.json" % name)])
            print("\n".join(line for line in lines[:-1]))
            with open(out) as f:
                result = json.load(f)
            config = result.pop("config")
            report["host"] = report["host"] or {
                k: config[k] for k in ("nproc", "cpu_features",
                                       "batch_kernel", "build_type")}
            result["config"] = config
            report["workloads"].setdefault(name, {})[label] = result
            if code != 0:
                print("%s %s: FAILED: %s" % (name, label,
                                             "; ".join(result["errors"])))
                ok = False

    path = opts.out or os.path.join(RESULTS, "%s-s%d.json" % (commit,
                                                              opts.seed))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(path, os.getcwd()))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", help="suite: comma-separated subset")
    ap.add_argument("--no-trace", action="store_true",
                    help="suite: skip the traced pass")
    ap.add_argument("--smoke", action="store_true",
                    help="suite: run only the smoke pass")
    ap.add_argument("--out", help="suite: result file path")
    opts = ap.parse_args()
    if opts.seconds < 1:
        fail("--seconds must be at least 1")
    if opts.workload:
        run_one(opts)
    else:
        run_suite(opts)


if __name__ == "__main__":
    main()
