#!/usr/bin/env python3
"""Build this checkout's program and run one toolchain benchmark workload.

Usage (from the root of a checkout):

    python3 toolbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 toolbench/run.py --selftest

The program's libraries are compiled from ../src into a build tree of
the benchmark's own (.bench_build/toolbench, or $CARGO_TARGET_DIR/toolbench
when that is set); nothing built elsewhere is used. The benchmark binary
prints the result line on stdout; build output goes to stderr. Traced runs
also write their spans to .bench_build/traces/<workload>-seed<n>.json.
Exits non-zero, before any result, when the program's sources are missing,
the build fails or a correctness check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message, code=2):
    print(f"toolbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configure (once) and build @p target; return the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"the program's sources are missing: no {ROOT / 'src' / 'CMakeLists.txt'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "toolbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quietly(configure, "configure")
    run_quietly(["cmake", "--build", str(build_dir), "-j", jobs, "--target", target],
                "build")
    return build_dir


def run_quietly(cmd, what):
    """Run a build step with its output on stderr, failing on error."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"{what} failed (exit {done.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("toolbench_tests")
        sys.exit(subprocess.run([str(build_dir / "toolbench_tests")]).returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    build_dir = build("toolbench")
    cmd = [str(build_dir / "toolbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
