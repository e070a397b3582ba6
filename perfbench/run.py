#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload queue-pair --seed 1 --seconds 30 --trace 0

It builds perfbench/ (a Go module of its own that uses the library
from the repository root) with every build output under .bench_build/
in the current directory, then runs the binary and passes its output
through. The binary's last line is the JSON result. The exit code is
the binary's: 0 when every transfer was correct, 1 when one failed,
2 when the run could not be made.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("queue-pair", "chan-rpc", "unbounded-burst")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 100


def source_digest(root):
    """Digest of the Go sources and module files under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod here; run from the repository root", file=sys.stderr)
        return 2
    build = os.path.join(root, BUILD_DIR)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTELEMETRY="off",
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=sys.stderr,
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit(root),
        "--source-digest", source_digest(root),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=args.seconds + RUN_GRACE_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
