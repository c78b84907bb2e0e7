#!/usr/bin/env python3
"""Builds the groupform benchmark runner and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library, groupform_serverd, groupform_brokerd and the runner (Release)
into .bench_build; later runs only re-check the configuration and the
build. Build output
goes to stderr, so the last line of stdout is the runner's JSON result.
--selftest runs every workload at the smallest scale, checks every metric
of BENCHMARK.json is reported with its unit, and checks that a corrupted
reference byte fails the run.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(seconds):
    """Wall-time limit of one runner process. A run spends the window plus
    phases that scale with it (warm-up, traced slices, replay, each at most
    one window) and a fixed part (five set-ups, reference, probes); with
    --seconds 20 the limit is 170 s."""
    return 110 + 3 * seconds


def build():
    """Configures (once) and builds; returns the build directory."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("run.py: %s is missing from %s; the benchmark builds the "
                     "program from the repository's sources" % (needed, ROOT))
    out = os.path.join(ROOT, ".bench_build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target",
              "perfbench_runner", "groupform_serverd", "groupform_brokerd"]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))
    return out


def runner_command(out, args):
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    return [os.path.join(out, "perfbench_runner"),
            "--bin-dir", os.path.join(out, "groupform", "tools"),
            "--run-dir", run_dir] + args


def run_benchmark(out, args, seconds, capture):
    """Runs perfbench_runner; returns (exit code, stdout or None). A runner
    that overruns its time limit is killed and reported as a set-up error
    (exit 2), not as a correctness failure."""
    timeout = run_timeout_s(seconds)
    # The runner leads its own process group, which also holds every
    # server it spawns and the workers groupform_brokerd forks. Killing the
    # group afterwards leaves nothing behind even when the runner itself
    # was killed, and as the subreaper this script waits for all of them.
    proc = subprocess.Popen(runner_command(out, args),
                            stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
        return proc.returncode, stdout
    except subprocess.TimeoutExpired:
        print("run.py: the runner exceeded %.0f s" % timeout, file=sys.stderr)
        return 2, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def selftest(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            code, stdout = run_benchmark(out, args, 1, capture=True)
            result = last_json(stdout)
            where = "%s --trace %s" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                failures.append("%s: exit %d, result %r" %
                                (where, code, result))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in bench[key]}
            if got != want:
                failures.append("%s: metrics differ: missing %s, extra %s, "
                                "unit mismatches %s" % (
                                    where, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(n for n in got.keys() & want.keys()
                                           if got[n] != want[n])))
            print("selftest: %s ok (%d metrics, %d requests)" %
                  (where, len(got), result["attempted"]))
    # The gate must catch a single corrupted reference byte.
    code, stdout = run_benchmark(out, ["--workload", "wire_churn",
                                       "--seed", "1", "--seconds", "1",
                                       "--trace", "0", "--smoke",
                                       "--corrupt-reference"],
                                 1, capture=True)
    result = last_json(stdout)
    if code == 0 or result is None or result.get("correct") is not False \
            or result.get("failed", 0) < 1:
        failures.append("a corrupted reference byte was not caught: exit "
                        "%d, result %r" % (code, result))
    else:
        print("selftest: corrupted reference byte caught (%d failed)" %
              result["failed"])
    for failure in failures:
        print("selftest FAILED: " + failure)
    print("selftest: %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # Orphaned descendants are re-parented here, so run_benchmark can reap
    # them; SIGTERM unwinds through its clean-up like a timeout.
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = build()
    if args.selftest:
        return selftest(out)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_benchmark(out, ["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", args.trace], args.seconds,
                          capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
