#!/usr/bin/env python3
"""Run one workload of the NeuSpin repository benchmark.

    python3 perfbench/run.py --workload serve-mlp --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and with it the neuspin library from this checkout's
src/) in Release under $CARGO_TARGET_DIR (default .bench_build), runs the
workload, validates the traced run's Chrome traces with
tools/check_trace.py, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.

Exit status: 0 when every check passed, 1 when a check failed (the result
line then says "correct": false), 2 when the benchmark cannot be built or
run here (no result line).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    log = build_root / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "neuspin_perfbench"])
    with open(log, "w", encoding="utf-8") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(encoding="utf-8", errors="replace")[-4000:]
                die(f"build failed ({' '.join(step)}):\n{tail}")
    return build_dir / "neuspin_perfbench"


def check_traces(lines) -> bool:
    """Validate every trace the run announced with a 'TRACE path names...' line."""
    ok = True
    for line in lines:
        if not line.startswith("TRACE "):
            continue
        path, *required = line.split()[1:]
        check = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_trace.py"), path,
             "--require", *required],
            capture_output=True, text=True)
        print((check.stdout + check.stderr).strip())
        ok = ok and check.returncode == 0
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay-seed-offset", type=int, default=0,
                        help="test hook: replay answers under wrong seeds")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/check_trace.py"):
        if not (ROOT / needed).is_file():
            die(f"{needed} is missing: run from a full checkout of the repository")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(build_root / "traces"),
               "--replay-seed-offset", str(args.replay_seed_offset)]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        die(f"{args.workload} aborted with status {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("the run printed no result line")
    for line in lines[:-1]:
        print(line)
    if args.trace and not check_traces(lines):
        result["correct"] = False
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
