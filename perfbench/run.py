#!/usr/bin/env python3
"""Build and run the Tangram benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: edge_fig12, city_provisioned, city_saturated, pools_step, or
"all" to run each in turn (exit status non-zero if any fails).

Builds the library (with the repo's own CMake build) and the benchmark into
.bench_build/perfbench, runs the metric self-test, then the workload.  The
last line of standard output is the result object; build output goes to
standard error.  With --trace 1 the spans of the last traced run are written
as Chrome trace-event JSON to
.bench_build/perfbench/trace-<workload>-seed<n>.json.
Exits non-zero, printing no result, when the build, the self-test or any
correctness gate fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("edge_fig12", "city_provisioned", "city_saturated", "pools_step")


def step(cmd):
    """Run a build step with its output on stderr; exit 1 if it fails."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: step failed ({done.returncode}): "
                 + " ".join(map(str, cmd)))


def build():
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
          "--target", "perfbench", "perfbench_selftest"])


def source_digest():
    """SHA-256 over the library and benchmark sources, for the metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += (p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        sys.exit("perfbench: metric self-test failed")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    meta = ["--commit", git_commit(), "--source-digest", source_digest()]
    status = 0
    for name in names:
        cmd = [str(BUILD_DIR / "perfbench"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + meta
        if args.trace:
            cmd += ["--trace-file",
                    str(BUILD_DIR / f"trace-{name}-seed{args.seed}.json")]
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s")
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
