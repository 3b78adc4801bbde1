#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the C++ program from the repository sources into
.bench_build/perfbench (CMake, Release) and runs one workload (--trace 0:
in PROCESSES processes, each metric the median over them); the last
line of stdout is the JSON result.  --self-test runs the program's unit
checks, then every workload tiny (--smoke) in both trace modes, and
asserts that each metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A run that has not finished by now is hung: stop it, fail, and stay
# inside three minutes in total.
RUN_TIMEOUT_S = 170
# End-to-end program processes per run.  Each process lands on its own
# physical pages and CPUs, and on this 4-vCPU KVM guest that moved the
# set-up and read-phase medians of one process by up to 25% from the
# next, while passes within a process agreed within a few percent; the
# median over several processes averages that out.
PROCESSES = 5


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to " + HERE + "; run from a full checkout")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--parallel", jobs, "--target"] + targets]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, configure)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 1)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True)
    return result.stdout.strip() or "none"


def source_digest():
    """sha256 over the sources the program is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def fixed_layout():
    """Turn address-space randomisation off for the program (and the
    dls_sweep workers it starts).  With it on, where the heap and stack
    land differs from process to process, and the set-up and read-phase
    timings moved by up to 40% between runs of the same code; with it
    off they stay within about 5%.  Best effort: the program's machine
    stamp says aslr=on if the kernel refused."""
    addr_no_randomize = 0x0040000
    personality = ctypes.CDLL(None, use_errno=True).personality
    current = personality(0xffffffff)
    if current != -1:
        personality(current | addr_no_randomize)


def run_once(command, deadline, workload):
    try:
        return subprocess.run(command, timeout=max(deadline - time.monotonic(), 1), text=True,
                              stdout=subprocess.PIPE, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish within %d s" % RUN_TIMEOUT_S, 1)


def run_program(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit status, stdout).

    The traced run is one process.  An end-to-end run splits --seconds
    over PROCESSES processes and reports, for each metric, the median
    over them (see PROCESSES)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--dir", os.path.join(BUILD, "run-" + workload),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if smoke:
        command.append("--smoke")
    if trace:
        result = run_once(command + ["--seconds", str(seconds)], deadline, workload)
        return result.returncode, result.stdout
    lines, results, status = [], [], 0
    for _ in range(PROCESSES):
        run = run_once(command + ["--seconds", str(seconds / PROCESSES)], deadline, workload)
        output = run.stdout.splitlines()
        try:
            results.append(json.loads(output[-1]))
        except (IndexError, ValueError):
            fail(workload + " printed no result (exit %d)" % run.returncode, 1)
        lines += output[:-1]
        status = max(status, run.returncode)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    lines.append("perfbench: result: each metric is the median over %d processes" % PROCESSES)
    lines.append(json.dumps({"correct": all(result["correct"] for result in results),
                             "attempted": sum(result["attempted"] for result in results),
                             "failed": sum(result["failed"] for result in results),
                             "metrics": metrics}))
    return status, "\n".join(lines) + "\n"


def self_test():
    build(["perfbench", "perfbench_selftest"])
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            status, stdout = run_program(workload, 1, 0.1, trace, smoke=True)
            label = "%s --trace %d" % (workload, trace)
            known = len(problems)
            if status != 0:
                problems.append(label + ": exit %d" % status)
                continue
            last = json.loads(stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"] != 0 or last["attempted"] < 1:
                problems.append(label + ": outputs not correct")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != want:
                problems.append(label + ": metrics %s, expected %s" % (got, want))
            for name in want:
                if ("metric %s = " % name) not in stdout:
                    problems.append(label + ": no report line for " + name)
            if len(problems) == known:
                print("perfbench self-test: %s ok (%d metrics)" % (label, len(got)))
    if problems:
        fail("self-test failed:\n  " + "\n  ".join(problems), 1)
    print("perfbench self-test: all workloads ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    build(["perfbench"])
    status, stdout = run_program(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
