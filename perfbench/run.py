#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <serve-paper|sim-engine> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `femux-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), runs it once, and
prints its human-readable lines followed by one JSON result line. With
`--trace 0` the result carries every end-to-end metric; this script adds
`peak_rss_mb`, the benchmark process's peak resident memory as the
kernel reports it for that one child. Exits nonzero without a result
when the build or the run fails, and with the result but nonzero when a
correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "femux-perfbench")


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines, peak RSS in MB)."""
    child = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE,
    )
    out = child.stdout.read().decode()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux, and wait4 reports this child alone.
    return child.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-paper", "sim-engine"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    code, lines, peak_rss_mb = run(build(), args)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        sys.exit(f"perfbench: the run exited {code} without a result line")
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        metrics = {"setup_s": result["metrics"].pop("setup_s")}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
