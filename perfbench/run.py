#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload massive-x1 --seed 1 --seconds 10 --trace 0

Run from the root of a pagen checkout. The first run configures and builds
perfbench/ (its own CMake project over ../src) into $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs rebuild incrementally. The
last line of standard output is the result JSON
({"correct", "attempted", "failed", "metrics"}); the line before it is the
run record (workload, seed, nproc, build type, commit, parameters). Both
are also saved under <build root>/perfbench-results/. A traced run
(--trace 1) writes its spans to <build root>/perfbench-traces/, a Chrome
trace-event JSON file that ui.perfetto.dev opens.

Exits non-zero without a result when the checkout has no src/ to build.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("massive-x1", "paper-x6", "svc-closed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configure (once) and build the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes that finish in seconds")
    ap.add_argument("--wrong", default="",
                    help="give this output check a wrong expected value")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt next to perfbench/; "
            "run from a pagen checkout")
        return 2

    out_root = build_root()
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(out_root, "perfbench-work", f"{tag}-{os.getpid()}")
    results = os.path.join(out_root, "perfbench-results")
    traces = os.path.join(out_root, "perfbench-traces")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}", f"--commit={commit()}"]
    if args.trace:
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace-out={os.path.join(traces, tag + '.json')}")
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong:
        cmd.append(f"--wrong={args.wrong}")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log(f"perfbench: {args.workload} printed no result "
            f"(exit {proc.returncode})")
        return proc.returncode or 3
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 3
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({**record, "result": result}, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
