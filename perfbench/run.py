#!/usr/bin/env python3
"""Build and run the MarQSim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick

The first form builds the `perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), prints a host record, and runs
one workload. The binary's last output line is the JSON result.

`--quick` runs every workload at a small scale, traced and untraced, and
checks each result against the schema in BENCHMARK.json and the
`trace.coverage` floor. It exits 0 only if every check passes.

Run from the repository root.
"""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 175
COVERAGE_FLOOR = 0.95
COVERAGE_WORKLOADS = ("fidelity_sweep", "gate_compile")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The environment for cargo and the benchmark, with no MARQSIM_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MARQSIM_")}
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    return env


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None
    except (OSError, subprocess.SubprocessError):
        return None


def host_record():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    rustc = first_line(["rustc", "--version"]) or "unknown"
    commit = first_line(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    return (f"# host: nproc={usable} cpu={cpu!r} kernel={platform.release()} "
            f"rustc={rustc!r} commit={commit}")


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"run.py: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("run.py: build failed")
        return None
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    return binary if binary.is_file() else None


def run_binary(binary, env, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(binary), *args], env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: benchmark exceeded {CHILD_TIMEOUT_S} s")
        return 1, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def check_result(result, spec, workload, trace):
    """Schema problems with one JSON result, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            problems.append(f"{name}: {m}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
        elif not trace and m["value"] == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    if trace and workload in COVERAGE_WORKLOADS:
        coverage = got.get("trace.coverage", {}).get("value", 0)
        if coverage < COVERAGE_FLOOR:
            problems.append(f"trace.coverage {coverage} < {COVERAGE_FLOOR}")
    return problems


def quick(binary, env):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace), "--quick"]
            code, lines = run_binary(binary, env, args)
            problems = [] if code == 0 else [f"exit code {code}"]
            if lines:
                try:
                    problems += check_result(json.loads(lines[-1]), spec, workload, trace)
                except json.JSONDecodeError:
                    problems.append("last line is not JSON")
            else:
                problems.append("no output")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"quick {workload} trace={trace}: {status}", flush=True)
            if problems:
                failures += 1
                print("\n".join(lines[-60:]))
    print("quick: all checks passed" if failures == 0 else f"quick: {failures} failed")
    return 0 if failures == 0 else 1


def main(argv):
    env = child_env()
    binary = build(env)
    if binary is None:
        return 1
    if argv == ["--quick"]:
        return quick(binary, env)
    print(host_record(), flush=True)
    code, lines = run_binary(binary, env, argv)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
