#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload slide|read|mixed --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (its own
Cargo package under perfbench/, built against the crates by path) into
$CARGO_TARGET_DIR (default .bench_build), then runs it with the given
arguments. The program's last stdout line is the result JSON; a failed
build or an invalid run exits non-zero without printing one.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """Identifies the code under test: the git commit when there is one,
    else a digest of the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    # Cargo resolves a relative target dir against its working directory,
    # which is the repository root here.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(ROOT, ".bench_work")
    cmd = [binary, *sys.argv[1:], "--work-dir", work, "--commit", source_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
