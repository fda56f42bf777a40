#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <flat_local|tree_cross|zipf_durable> \
        --seed <n> --seconds <s> --trace <0|1>

The binary prints `metric <name> <value> <unit>` lines and, last, one JSON
object. This launcher forwards them, adding `peak_rss_mb` (the binary's
peak resident memory, from wait4) to the end-to-end metrics. Build output
goes to stderr so the JSON stays the last line of stdout. The exit code
is the binary's, or non-zero when the build fails.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# A run is cut well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    binary = build()
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        lines = proc.stdout.read().splitlines()
    finally:
        # wait4 reaps the child and reports its own peak RSS (KiB on
        # Linux), unlike RUSAGE_CHILDREN, which would include cargo.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if not trace:
        rss = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        result["metrics"]["peak_rss_mb"] = rss
        lines.insert(-1, f"metric peak_rss_mb {rss['value']} MB")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
