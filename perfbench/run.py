#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload read_serving --seed 1 --seconds 15 --trace 0

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the write_mix data directories
live there too and are removed after each run. Build output goes to
stderr, so the last line on stdout is always the benchmark's result. A
failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    args = [binary] + sys.argv[1:] + [
        "--config", os.path.join(HERE, "workloads.json"),
        "--data-dir", os.path.join(base, "perfbench-data"),
        "--source-id", source_id(),
    ]
    sys.stdout.flush()
    os.execv(binary, args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
