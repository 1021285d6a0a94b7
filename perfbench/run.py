#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload grid|fleet|crowd --seed N \
                             --seconds S --trace 0|1

Run from anywhere; paths resolve against the repository that holds this
file. The first call configures and builds the simulator libraries and
the perfbench program into .bench_build/perfbench (later calls rebuild
incrementally). The program's last stdout line is passed through as this
script's last line: one JSON object with correct, attempted, failed and
metrics. For the golden seed, the run's digest must also match the
golden in perfbench/golden.json, or every task counts as failed.

Each run appends a record with provenance (CPU, cores, compiler, build
type, LTO, git sha and dirty flag, seed) to
.bench_build/perfbench/records.jsonl.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("grid", "fleet", "crowd")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def _int_at_least(lo):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}: {text!r}")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                description="Run one perfbench workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_int_at_least(0))
    p.add_argument("--seconds", required=True, type=_int_at_least(1))
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def run_in_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (compilers under cmake included) is killed and reaped."""
    env = dict(os.environ, TMPDIR=TMP_DIR)  # Keep temporaries in the checkout.
    proc = subprocess.Popen(cmd, start_new_session=True, env=env, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    return proc.returncode, out


def ensure_built():
    """Configures (once) and builds the perfbench program; returns its path."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise BenchError(f"simulator sources missing: {required}")
    os.makedirs(TMP_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            rc, _ = run_in_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                 stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"build step {cmd[:2]} exited {rc}; "
                                 f"see {log_path}")
    return BINARY


def golden_digest(workload, seed):
    with open(GOLDEN) as f:
        golden = json.load(f)
    if seed != golden["seed"]:
        return None
    return golden["digests"][workload]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_state():
    """(sha, dirty) of the repository, or (None, None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0 or status.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def run(args):
    binary = ensure_built()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "work")]
    expected = golden_digest(args.workload, args.seed)
    if expected is not None:
        cmd += ["--expect-digest", expected]
    rc, stdout = run_in_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    if rc != 0:
        raise BenchError(f"perfbench exited {rc}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise BenchError(f"unexpected result keys: {sorted(result)}")

    record = {}
    for line in lines[:-1]:
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
    sha, dirty = git_state()
    record.update({"cpu": cpu_model(), "nproc": os.cpu_count(),
                   "git_sha": sha, "git_dirty": dirty, "seed": args.seed,
                   "seconds": args.seconds, "golden_checked": expected is not None,
                   "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    with open(os.path.join(BUILD_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": record, "result": result}) + "\n")

    for line in lines[:-1]:
        print(line)
    print("perfbench-provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv):
    args = parse_args(argv)
    try:
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
