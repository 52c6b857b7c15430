#!/usr/bin/env python3
"""Smoke test of the time-to-solution harness at tiny sizes.

    python3 tts_bench/smoke_test.py

Runs every workload with --small, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that the answer
check passes, and that it fails when the reference is wrong. Takes about a
minute after the build.
"""
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py"), "--small",
       "--seconds", "1"]


def run(*args):
    p = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"run.py {' '.join(args)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def expect(cond, msg):
    if not cond:
        sys.exit("FAIL: " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines, out = run("--workload", "all", "--seed", "0",
                         "--trace", str(trace))
        expect(out["correct"] and out["failed"] == 0,
               f"trace {trace}: answer check did not pass: {out}")
        for w in workloads:
            expect(any(l.startswith("provenance: ") and f'"{w}"' in l
                       for l in lines), f"{w}: no provenance line")
            for m in bench[kind]:
                got = out["metrics"].get(f"{w}/{m['name']}")
                expect(got is not None, f"{w}: metric {m['name']} missing")
                expect(got["unit"] == m["unit"],
                       f"{w}: {m['name']} unit {got['unit']} != {m['unit']}")
                expect(isinstance(got["value"], (int, float))
                       and math.isfinite(got["value"]),
                       f"{w}: {m['name']} value {got['value']} not a number")
        expect(sum(l.startswith("answer check: PASS") for l in lines)
               == len(workloads), f"trace {trace}: answer-check lines missing")

    # The check must reject a wrong answer: shift the wing's reference CL.
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    ref["small"]["wing_rans"]["cl"] += 1.0
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False,
                                     dir=os.path.join(ROOT, bdir)) as f:
        json.dump(ref, f)
    try:
        lines, out = run("--workload", "wing_rans", "--seed", "0",
                         "--trace", "0", "--reference", f.name)
    finally:
        os.unlink(f.name)
    expect(not out["correct"] and out["failed"] >= 1,
           f"a wrong reference CL was not flagged: {out}")
    expect(any(l.startswith("  check failed: cl=") for l in lines),
           "the failed check is not reported by name")
    print("smoke test: OK")


if __name__ == "__main__":
    main()
