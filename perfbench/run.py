#!/usr/bin/env python3
"""Run one workload of the Nepal benchmark.

    python3 perfbench/run.py --workload virt-read --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/nepal_perf.exe from
source with dune (into $CARGO_TARGET_DIR, default .bench_build), then
runs it with the same arguments. The last stdout line is the result
JSON; the exit code is non-zero on any wrong answer or failure. With
--trace 1 the traced run's spans go to <build dir>/spans/.
"""
import os
import subprocess
import sys

WORKLOADS = ("virt-read", "legacy-read", "virt-churn", "virt-targets")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    opts = {}
    it = iter(argv)
    for key in it:
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %r" % key)
        opts[key] = next(it, None)
    if any(opts.get(k) is None for k in ("--workload", "--seed", "--seconds", "--trace")):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (opts["--workload"], ", ".join(WORKLOADS)))
    return opts


def main():
    opts = parse(sys.argv[1:])
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("%s not found: run from the repository root" % needed)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/nepal_perf.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "nepal_perf.exe")
    args = [exe]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        args += [key, opts[key]]
    if opts["--trace"] == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(
            spans_dir, "%s-seed%s.jsonl" % (opts["--workload"], opts["--seed"]))]
    proc = subprocess.Popen(args)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
