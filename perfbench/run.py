#!/usr/bin/env python3
"""Build and run the host-time benchmark of the odenet-suite simulator.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, their rationale, the layers each one loads and the recorded
virtual-time fingerprints live in perfbench/workloads.json. The script
builds perfbench/harness in release mode (into $CARGO_TARGET_DIR, by
default .bench_build), runs it once in its own process, and passes the
fingerprint when --seed is the workload's recorded seed. The harness
prints the result object as the last line of standard output; traced
runs also write their per-layer metrics and Chrome traces to .bench_out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The sources whose digest stands in for the commit outside a git checkout.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, names in os.walk(path)
            if "__pycache__" not in d
            for f in names
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return "sources-sha256:" + h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)["workloads"]
    if args.workload not in spec:
        sys.exit(f"run.py: unknown workload {args.workload!r} (known: {', '.join(spec)})")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: building the harness failed ({build.returncode})")

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    # Only a repository rooted here names this tree's commit.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    in_git = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    env["PERFBENCH_COMMIT"] = (
        in_git and command_output(["git", "rev-parse", "HEAD"])
    ) or source_digest()
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    # Pinned to one core, so the reference runs that bracket each timed
    # call share the core with it (see "reference_speed" in workloads.json).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env["PERFBENCH_HOST_CPUS"] = str(os.cpu_count())
    fingerprint = spec[args.workload]["fingerprint"]
    if args.seed == fingerprint["seed"]:
        for name, value in fingerprint["values"].items():
            cmd += ["--expect", f"{name}={float(value)!r}"]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
