#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first form builds
perfbench/perfbench.exe with dune and runs one workload; the benchmark's
last line of standard output is its result as one JSON object.  The
second form runs every workload's code path on the tiny tiers (A and
OCS-LITE) and checks the output against BENCHMARK.json: every declared
metric is printed with its unit, the pinned counts repeat between
passes, and the traced stages add up to the traced pass.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark links the repository's own libraries, so it can only
    # build inside a full checkout.
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def commit():
    # Only this checkout's own history: git would otherwise search the
    # parent directories for a repository.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bench_env():
    # KLOTSKI_* variables change planner defaults; the benchmark runs the
    # defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLOTSKI_")}
    env["PERFBENCH_COMMIT"] = commit()
    return env


def run(args, capture=False):
    return subprocess.run([EXE] + args, cwd=ROOT, env=bench_env(),
                          capture_output=capture, text=True)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_declared(result, declared, where):
    errors = []
    got = result["metrics"]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in got:
            errors.append(f"{where}: {name} not printed")
        elif got[name].get("unit") != unit:
            errors.append(f"{where}: {name} unit {got[name].get('unit')!r}, "
                          f"declared {unit!r}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        errors.append(f"{where}: undeclared metrics {sorted(extra)}")
    return errors


def check_trace(path, result, where):
    """Every traced pass's stages and unattributed time add up to it."""
    errors = []
    spans = json.load(open(path))
    by_id = {s["id"]: s for s in spans}
    dur = lambda s: s["end"] - s["start"]
    roots = [s for s in spans if s["name"] == "pass"]
    if not roots:
        return [f"{where}: no traced pass in {path}"]
    for root in roots:
        members = [s for s in spans if s["pass"] == root["pass"]]
        for s in members:
            if s["parent"] >= 0:
                p = by_id[s["parent"]]
                if s["start"] < p["start"] or s["end"] > p["end"]:
                    errors.append(f"{where}: span {s['name']} leaves its parent")
        stages = [s for s in members if s["parent"] == root["id"]]
        if sum(dur(s) for s in stages) > dur(root):
            errors.append(f"{where}: stages exceed pass {root['pass']}")
    m = result["metrics"]
    reported = [r for r in roots
                if abs(dur(r) - m["trace.pass_s"]["value"]) < 1e-9]
    if not reported:
        return errors + [f"{where}: trace.pass_s is no traced pass"]
    root = reported[0]
    stages = [s for s in spans if s["parent"] == root["id"]]
    left = dur(root) - sum(dur(s) for s in stages)
    if abs(left - m["unattributed_s"]["value"]) > 1e-9:
        errors.append(f"{where}: unattributed_s is not the pass's remainder")
    return errors


def self_test():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    errors = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{name} trace {trace}"
            done = run(["--self-test", "--workload", name, "--seed", "42",
                        "--seconds", "0", "--trace", str(trace)], capture=True)
            result = last_json(done.stdout) if done.returncode == 0 else None
            if result is None:
                errors.append(f"{where}: exit {done.returncode}, no result")
                continue
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{where}: not correct: " + " | ".join(
                    l for l in done.stdout.splitlines() if "FAILED" in l))
            passes = sum(1 for l in done.stdout.splitlines()
                         if l.startswith("# pass "))
            if passes < 2:
                errors.append(f"{where}: only {passes} passes")
            errors += check_declared(result, declared, where)
            if trace:
                path = os.path.join(TRACE_DIR, f"trace-{name}-42.json")
                errors += check_trace(path, result, where)
            print(f"self-test {where}: {len(errors)} error(s) so far")
    for e in errors:
        print(f"FAIL {e}")
    print("self-test:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 0 if not errors else 1


def main(argv):
    build()
    if argv == ["--self-test"]:
        return self_test()
    return run(argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
