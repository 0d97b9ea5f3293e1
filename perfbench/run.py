#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `insane-perfbench` and the `insaned` daemon from source (offline,
into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload, checks
that the printed metrics are exactly the ones BENCHMARK.json lists for the
mode, and passes the benchmark's output through: its last line is the
result object.  Exits non-zero, without a result line, when the
repository's sources are missing or anything fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    for extra in (["--bin", "insane-perfbench"], ["-p", "insane-ipc", "--bin", "insaned"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST] + extra
        try:
            done = subprocess.run(cmd, cwd=REPO, env=env, timeout=BUILD_TIMEOUT_S,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail(f"build failed: {' '.join(cmd)}")


def source_id():
    """The git commit if there is one, plus a digest of the sources built."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor",
            os.path.join("perfbench", "src"), MANIFEST]
    for top in tops:
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, REPO).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return f"{commit} (sources {digest.hexdigest()[:16]})"


def expected_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(REPO, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout")
    expected = expected_metrics(args.trace)

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    build(env)
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(REPO, target),
                          "release", "insane-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join("perfbench", "out"), "--commit", source_id()]
    # Its own process group, so nothing it starts can outlive the run.
    proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if out is None:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with {proc.returncode}")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    # A failed run may end early with metrics missing; its result line
    # (correct: false) is still the answer.
    if result["correct"] and got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {units}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
