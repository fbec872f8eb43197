#!/usr/bin/env python3
"""End-to-end campaign benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]   # every metric, every workload
    python3 perfbench/run.py --smoke                        # reduced-size self-test

Run from the repository root. The first call builds perfbench/ (and the
nocbt libraries under it) into .bench_build/perfbench with CMake. A run
prints every metric by name with its unit, the deterministic counters, the
environment stamp, and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The same record is written to
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nocbt_perfbench")
STORE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-store")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then bring the binary up to date. Build output goes
    to stderr so stdout stays the benchmark's own."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "nocbt_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def binary_args(workload, seed, small):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--store", STORE_DIR]
    return args + (["--small"] if small else [])


def setup_seconds(workload, seed, small):
    """Median wall time from process start to the first timed call, over
    several set-up-only processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(binary_args(workload, seed, small) +
                              ["--setup-only"], stdout=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            return None
    return statistics.median(times)


def run_binary(workload, seed, seconds, trace, small, expect_digest):
    cmd = binary_args(workload, seed, small) + [
        "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode, None


def filesystem_of(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(binary_stamp):
    os.makedirs(STORE_DIR, exist_ok=True)
    s = {"nproc": os.cpu_count()}
    s.update(binary_stamp)
    s["store_filesystem"] = filesystem_of(STORE_DIR)
    s["commit"] = commit()
    return s


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_one(spec, workload, seed, seconds, trace, small=False,
            expect_digest=None):
    """Run one workload; returns (exit code, contract record or None)."""
    digests = load_json(os.path.join(BENCH_DIR, "digests.json"))
    if expect_digest is None and seed == digests["seed"]:
        expect_digest = digests["small" if small else "full"].get(workload)
    setup_s = None
    if not trace:
        setup_s = setup_seconds(workload, seed, small)
        if setup_s is None:
            log("perfbench: set-up probe failed")
            return 1, None
    code, out = run_binary(workload, seed, seconds, trace, small,
                           expect_digest)
    if out is None:
        log("perfbench: %s produced no result (exit %d)" % (workload, code))
        return code or 1, None

    metrics = dict(out["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    failures = list(out["failures"])
    ordered = {}
    for m in expected_metrics(spec, trace):
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append("metric %s missing or not in %s" %
                            (m["name"], m["unit"]))
        else:
            ordered[m["name"]] = got
    extra = sorted(set(metrics) - set(ordered))
    if extra:
        failures.append("metrics not in BENCHMARK.json: " + ", ".join(extra))

    record = {"correct": not failures, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": ordered}
    full = dict(record, workload=workload, seed=seed, trace=trace,
                small=small, seconds=seconds, passes=out["passes"],
                digest=out["digest"], expected_digest=expect_digest,
                failures=failures, counters=out["counters"],
                stamp=stamp(out["stamp"]))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (workload, seed, int(trace),
                                         "-small" if small else "")
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(full, f, indent=1)
        f.write("\n")

    print("workload %s  seed %d  trace %d  passes %d  attempted %d  "
          "failed %d  correct %s" % (workload, seed, int(trace),
                                     out["passes"], out["attempted"],
                                     out["failed"], record["correct"]))
    for f in failures:
        print("  FAILED CHECK: " + f)
    print("  metrics:")
    for name, m in ordered.items():
        print("    %-38s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  deterministic counters:")
    for name, value in out["counters"].items():
        print("    %-38s %16.10g" % (name, value))
    print("  digest %s (expected %s)" % (out["digest"], expect_digest))
    print("  stamp " + json.dumps(full["stamp"], sort_keys=True))
    return (0 if record["correct"] else 1), record


def smoke(spec):
    """Reduced-size end-to-end run of every workload in both modes."""
    seed = load_json(os.path.join(BENCH_DIR, "digests.json"))["seed"]
    problems = []
    for w in spec["workloads"]:
        counters = []
        for trace in (False, True):
            code, rec = run_one(spec, w["name"], seed, 1, trace, small=True)
            if code != 0 or rec is None or not rec["correct"]:
                problems.append("%s trace %d failed" % (w["name"], trace))
                continue
            path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d-small.json" %
                                (w["name"], seed, int(trace)))
            counters.append(load_json(path)["counters"])
        if len(counters) == 2:
            shared = set(counters[0]) & set(counters[1])
            if any(counters[0][k] != counters[1][k] for k in shared):
                problems.append("%s counters differ between two processes"
                                % w["name"])
    name = spec["workloads"][0]["name"]
    code, rec = run_one(spec, name, seed, 1, False, small=True,
                        expect_digest="0" * 32)
    if code == 0 or rec is None or rec["correct"]:
        problems.append("a wrong expected digest did not fail the run")
    print("smoke: " + ("FAILED: " + "; ".join(problems) if problems
                       else "all workloads ran, every metric present with "
                       "its unit, a wrong digest fails"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expect-digest",
                        help="fail unless the report digest equals this")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if not build():
        log("perfbench: build failed")
        return 1
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        parser.error("--workload or --smoke is required")
    seed = args.seed
    if seed is None:
        seed = load_json(os.path.join(BENCH_DIR, "digests.json"))["seed"]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload == "all":
        worst = 0
        for w in spec["workloads"]:
            for trace in (False, True):
                code, _ = run_one(spec, w["name"], seed, seconds, trace,
                                  expect_digest=args.expect_digest)
                worst = max(worst, code)
        return worst
    code, record = run_one(spec, args.workload, seed, seconds,
                           bool(args.trace), expect_digest=args.expect_digest)
    if record is not None:
        print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
