#!/usr/bin/env python3
"""Time-to-solution benchmark for the NSU3D and Cart3D solvers.

    python3 tts_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository (Release, into $CARGO_TARGET_DIR or .bench_build),
runs one workload for about S seconds and prints, as the last stdout line,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. `--workload all` runs every workload in
turn. Workloads, metrics and the layer -> end-to-end mapping are described
in tts_bench/README.md.
"""
import argparse
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wing_rans", "sphere_sweep", "wing_shm_2rank")

# Seed 0 is the nominal input set; any other seed jitters every solve's
# flow conditions by up to these amounts.
DEFAULT_SEED = 0
JITTER_ALPHA_DEG = 0.05
JITTER_MACH = 0.002

WING_MACH, WING_ALPHA = 0.75, 0.0
WING_ORDERS = 3.0  # the harness's default --orders target
SWEEP_MACHS, SWEEP_ALPHAS = (0.3, 0.5), (0.0, 2.0, 4.0)
SWEEP_ORDERS = 4.0
SHM_CYCLES = 150
SHM_ORDERS = 3.0  # distributed_solve's default --orders target
# Set-up-only operations at the start of every untraced run; set-up is
# short, so its median needs more samples than the solves give.
SETUP_RUNS = {"wing_rans": 10, "sphere_sweep": 15, "wing_shm_2rank": 3}
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# Tiny sizes for the smoke test (--small): same code paths, a second's work.
SMALL_WING = ["--n-wrap", "24", "--n-span", "4", "--n-normal", "10",
              "--mg-levels", "3", "--max-cycles", "30"]
SMALL_SWEEP = ["--base-n", "4", "--max-level", "1", "--max-cycles", "40"]
SMALL_SWEEP_MACHS, SMALL_SWEEP_ALPHAS = (0.5,), (2.0,)
SMALL_SHM_CYCLES = 10

# Rank x thread layout of each workload, stamped into the provenance line.
LAYOUT = {
    "wing_rans": "1 rank x 4 pool threads",
    "sphere_sweep": "1 rank x 4 simultaneous cases x 1 pool thread",
    "wing_shm_2rank": "2 ranks (shm) x 2 pool threads",
}


class BenchError(Exception):
    """The benchmark cannot run at all (no sources, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    """Median of the finite values in xs (NaN when there are none)."""
    xs = [x for x in xs if finite(x)]
    return statistics.median(xs) if xs else float("nan")


def finite(*xs):
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


# --- Build ----------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the harness and distributed_solve."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("repository sources not found beside tts_bench/")
    bdir = os.path.join(build_dir(), "cmake")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "inject.cmake")]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs,
           "--target", "tts_harness", "distributed_solve"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return (os.path.join(bdir, "tts_bench", "tts_harness"),
            os.path.join(bdir, "examples", "distributed_solve"))



# --- Child processes --------------------------------------------------------------

class Child:
    """Result of one child process: wall time, peak RSS, exit code, output."""

    def __init__(self, wall_s, rss_mb, code, out, err):
        self.wall_s, self.rss_mb, self.code = wall_s, rss_mb, code
        self.out, self.err = out, err

    def last_json(self):
        for line in reversed(self.out.splitlines()):
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except ValueError:
                    return None
        return None


def run_child(harness, args, env_extra=None):
    """Runs args through `tts_harness spawn` in a session of its own and
    waits for it; the whole session is killed if it outlives
    CHILD_TIMEOUT_S. Wall time and peak RSS (the child and every descendant
    it reaped) are measured by the spawner."""
    env = dict(os.environ)
    env.pop("COLUMBIA_TRACE", None)
    env.update(env_extra or {})
    tmp = build_dir()
    with tempfile.TemporaryFile(dir=tmp) as out, \
            tempfile.TemporaryFile(dir=tmp) as err, \
            tempfile.NamedTemporaryFile(dir=tmp, suffix=".json") as res:
        p = subprocess.Popen([harness, "spawn", "--out", res.name, "--"] + args,
                             stdout=out, stderr=err, env=env, cwd=ROOT,
                             start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S,
                                lambda: os.killpg(p.pid, signal.SIGKILL))
        timer.start()
        try:
            p.wait()
        finally:
            timer.cancel()
        # Nothing the child started may outlive it.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out.seek(0)
        err.seek(0)
        try:
            r = json.load(res)
        except ValueError:
            r = {"wall_s": float("nan"), "peak_rss_mb": float("nan"),
                 "exit_code": p.returncode or 1}
        return Child(r["wall_s"], r["peak_rss_mb"], int(r["exit_code"]),
                     out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"))


# --- Inputs -------------------------------------------------------------------------

def jitter(rng, seed):
    if seed == DEFAULT_SEED:
        return 0.0, 0.0
    return (rng.uniform(-JITTER_MACH, JITTER_MACH),
            rng.uniform(-JITTER_ALPHA_DEG, JITTER_ALPHA_DEG))


class Inputs:
    """Deterministic stream of per-solve flow conditions for one seed: the
    k-th operation of a run always gets the same conditions."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def wing(self):
        dm, da = jitter(self.rng, self.seed)
        return WING_MACH + dm, WING_ALPHA + da

    def sweep(self, machs, alphas):
        return ([m + jitter(self.rng, self.seed)[0] for m in machs],
                [a + jitter(self.rng, self.seed)[1] for a in alphas])


# --- Answer checks ------------------------------------------------------------------

def within(name, got, ref, tol, why):
    if not finite(got) or abs(got - ref) > tol:
        why.append(f"{name}={got} outside {ref}+-{tol}")


def check_forces(got, ref, tol, why):
    for key in ("cl", "cd", "orders"):
        within(key, got.get(key), ref[key], tol[key], why)


def orders_from_drop(drop):
    return -math.log10(drop) if finite(drop) and drop > 0 else float("nan")


# --- Workload operations -------------------------------------------------------------
# Each op returns a dict with the quantities the metrics are made of, plus
# "ops" (operations attempted), "failed" and "why" (answer-check failures).

class Bench:
    def __init__(self, harness, dsolve, reference, small):
        self.harness, self.dsolve = harness, dsolve
        self.small = small
        self.ref = reference["small" if small else "full"]

    def child(self, args, env_extra=None):
        return run_child(self.harness, args, env_extra)

    # wing_rans: one NSU3D RANS solve to 3 orders.
    def wing(self, inputs, traced=False):
        mach, alpha = inputs.wing()
        args = [self.harness, "wing", "--mach", repr(mach), "--alpha",
                repr(alpha), "--trace", "1" if traced else "0"]
        c = self.child(args + (SMALL_WING if self.small else []))
        d, why = c.last_json(), []
        if c.code != 0 or d is None:
            why.append(f"harness exit {c.code}: {c.err.strip()[-300:]}")
        else:
            if not d.get("history_finite"):
                why.append("non-finite residual history")
            check_forces(d, self.ref["wing_rans"], self.ref["tol"]["wing_rans"], why)
        d = d or {}
        return dict(ops=1, failed=1 if why else 0, why=why, wall=c.wall_s,
                    tts=d.get("tts_s"), setup=[d.get("setup_s")],
                    cycles=d.get("cycles"), orders=d.get("orders"),
                    abs_cd=abs(d.get("cd") or 0), rss=c.rss_mb,
                    unconverged=0 if (d.get("orders") or 0) >= WING_ORDERS else 1,
                    raw=d)

    # sphere_sweep: one DatabaseFill over the wind space.
    def sweep(self, inputs, traced=False):
        machs, alphas = ((SMALL_SWEEP_MACHS, SMALL_SWEEP_ALPHAS) if self.small
                         else (SWEEP_MACHS, SWEEP_ALPHAS))
        jm, ja = inputs.sweep(machs, alphas)
        args = [self.harness, "sweep",
                "--machs", ",".join(repr(m) for m in jm),
                "--alphas", ",".join(repr(a) for a in ja),
                "--orders", repr(SWEEP_ORDERS), "--trace", "1" if traced else "0"]
        c = self.child(args + (SMALL_SWEEP if self.small else []))
        d, why = c.last_json(), []
        ncases = len(machs) * len(alphas)
        refs = self.ref["sphere_sweep"]["cases"]
        tol = self.ref["tol"]["sphere_sweep"]
        failed = 0
        cases = (d or {}).get("cases", [])
        if c.code != 0 or d is None or len(cases) != ncases:
            why.append(f"harness exit {c.code}: {c.err.strip()[-300:]}")
            failed = ncases
        else:
            for case, ref in zip(cases, refs):
                cwhy = []
                if case["status"] in ("degraded", "failed"):
                    cwhy.append("status " + case["status"])
                case["orders"] = orders_from_drop(case["residual_drop"])
                check_forces(case, ref, tol, cwhy)
                if cwhy:
                    failed += 1
                    why.append(f"case M{ref['mach']}/a{ref['alpha']}: "
                               + "; ".join(cwhy))
        d = d or {}
        cds = [abs(x["cd"]) for x in cases if finite(x.get("cd"))]
        orders = [x["orders"] for x in cases if "orders" in x]
        target = 10.0 ** -SWEEP_ORDERS
        return dict(ops=ncases, failed=failed, why=why, wall=c.wall_s,
                    tts=d.get("tts_s"), setup=[d.get("mesh_s")],
                    cycles=sum(x["cycles"] for x in cases),
                    orders=min(orders) if orders else None,
                    abs_cd=statistics.fmean(cds) if cds else None,
                    rss=c.rss_mb,
                    unconverged=sum(1 for x in cases
                                    if x["residual_drop"] > target),
                    raw=d)

    # wing_shm_2rank: examples/distributed_solve as a user runs it.
    def shm_run(self, cycles, backend="shm", ranks=2, traced=False):
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            hist = os.path.join(tmp, "history.txt")
            extra = ["--history", hist]
            if traced:
                extra += ["--trace", os.path.join(tmp, "trace.json")]
            c = self.child([self.dsolve, "--backend", backend, "--ranks",
                            str(ranks), "--cycles", str(cycles)] + extra,
                           {"COLUMBIA_THREADS": "2"})
            lines = []
            if os.path.isfile(hist):
                with open(hist) as f:
                    lines = f.read().split()
        why = []
        if c.code != 0:
            why.append(f"exit {c.code}: {c.err.strip()[-300:]}")
        if not re.search(r"^status: ok \(relaunches=0\)$", c.out, re.M):
            why.append("group status not ok or relaunched")
        for m in re.finditer(r"^\[rank (\d+)\] (\w+) exit=(-?\d+)", c.out, re.M):
            if m.group(2) != "exited" or m.group(3) != "0":
                why.append(f"rank {m.group(1)} {m.group(2)} exit={m.group(3)}")
        res = dict(wall=c.wall_s, rss=c.rss_mb, why=why)
        try:
            i = lines.index("CL")
            hist_vals = [float(x) for x in lines[:i]]
            res.update(history=hist_vals, cl=float(lines[i + 1]),
                       cd=float(lines[i + 3]), cycles=len(hist_vals) - 1)
            res["orders"] = (-math.log10(hist_vals[-1] / hist_vals[0])
                             if finite(*hist_vals) and hist_vals[-1] > 0
                             else float("nan"))
            if not finite(*hist_vals):
                why.append("non-finite residual history")
        except (ValueError, IndexError):
            why.append("history artifact missing or malformed")
        return res

    def shm(self, inputs, traced=False, backend="shm", ranks=2):
        """The history artifact is bit-identical across backends and rank
        counts, so every layout is checked against the same reference."""
        cycles = SMALL_SHM_CYCLES if self.small else SHM_CYCLES
        r = self.shm_run(cycles, backend, ranks, traced)
        why = list(r["why"])
        if not why:
            if r["cycles"] != cycles:
                why.append(f"ran {r['cycles']} cycles, expected {cycles}")
            check_forces(r, self.ref["wing_shm_2rank"],
                         self.ref["tol"]["wing_shm_2rank"], why)
        return dict(ops=1, failed=1 if why else 0, why=why, wall=r["wall"],
                    tts=r["wall"], setup=[], cycles=r.get("cycles"),
                    orders=r.get("orders"), abs_cd=abs(r.get("cd") or 0),
                    rss=r["rss"], raw=r,
                    unconverged=0 if r.get("orders", 0) >= SHM_ORDERS else 1)

    def setup(self, workload):
        """One set-up-only operation: mesh generation plus solver (or group
        and plan) construction, with no multigrid cycle."""
        why = []
        if workload == "wing_shm_2rank":
            r = self.shm_run(0)
            why, value = r["why"], r["wall"]
        else:
            args = ([self.harness, "wing"] + (SMALL_WING if self.small else [])
                    if workload == "wing_rans" else
                    [self.harness, "sweep", "--machs", "0.5", "--alphas", "2"]
                    + (SMALL_SWEEP if self.small else []))
            c = self.child(args + ["--max-cycles", "0"])
            d = c.last_json() or {}
            value = d.get("setup_s" if workload == "wing_rans" else "mesh_s")
            if c.code != 0 or not finite(value):
                why.append(f"set-up run exit {c.code}: {c.err.strip()[-300:]}")
        return dict(ops=1, failed=1 if why else 0, why=why, setup=[value])

    def op(self, workload):
        return {"wing_rans": self.wing, "sphere_sweep": self.sweep,
                "wing_shm_2rank": self.shm}[workload]


# --- Untraced run: end-to-end metrics ----------------------------------------------

def run_untraced(bench, workload, seed, seconds):
    inputs = Inputs(seed)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    attempted = failed = 0
    whys, setup, results = [], [], []
    for _ in range(1 if bench.small else SETUP_RUNS[workload]):
        s = bench.setup(workload)
        attempted += s["ops"]
        failed += s["failed"]
        whys += s["why"]
        if not s["failed"]:
            setup += s["setup"]
    durations = []
    while True:
        r = bench.op(workload)(inputs)
        attempted += r["ops"]
        failed += r["failed"]
        whys += r["why"]
        durations.append(r["wall"])
        if not r["failed"]:
            results.append(r)
            setup += r["setup"]
        # At least MIN_SAMPLES operations, so that the median rejects one
        # slow outlier; more while at least half of the next one is
        # expected to fall inside the measured window.
        if (len(durations) >= MIN_SAMPLES
                and time.perf_counter() + 0.5 * median(durations) > deadline):
            break
    ok = results  # a failed operation contributes no timing
    metrics = {
        "time_to_solution_s": median([r["tts"] for r in ok]),
        "setup_s": median(setup),
        "mg_cycles": median([r["cycles"] for r in ok]),
        "orders": median([r["orders"] for r in ok]),
        "abs_cd": median([r["abs_cd"] for r in ok]),
        "peak_rss_mb": median([r["rss"] for r in ok]),
    }
    extra = {
        "unconverged_cases": median([r["unconverged"] for r in ok]),
        "failed_frac": failed / attempted,
        "samples": len(results),
        "time_to_solution_samples_s": [round(r["tts"], 4) for r in ok],
        "setup_samples_s": [round(x, 4) for x in setup],
    }
    return dict(correct=failed == 0 and bool(results), attempted=attempted,
                failed=failed, why=whys, metrics=metrics, extra=extra)


# --- Traced run: per-layer metrics ---------------------------------------------------

def run_traced(bench, workload, seed, names):
    """Every per-layer metric, whatever the workload: the workload's own
    operation untraced then traced (trace.overhead_frac), the layer probes,
    a traced sweep (driver.*) and the distributed CLI probes (dist.*,
    obs.*)."""
    attempted = failed = 0
    whys = []

    def tally(r):
        nonlocal attempted, failed, whys
        attempted += r["ops"]
        failed += r["failed"]
        whys += r["why"]
        return r

    op = bench.op(workload)
    plain = tally(op(Inputs(seed)))
    traced = tally(op(Inputs(seed), traced=True))
    m = {"trace.overhead_frac": traced["wall"] / plain["wall"] - 1.0}

    c = bench.child([bench.harness, "layers", "--small",
                     "1" if bench.small else "0"])
    layers = c.last_json()
    attempted += 1
    if c.code != 0 or layers is None:
        failed += 1
        whys.append(f"layers exit {c.code}: {c.err.strip()[-300:]}")
        layers = {}
    else:
        for flag in ("smp.group_launch_ok", "core.exchange_delivered"):
            if not layers.get(flag):
                failed += 1
                whys.append(flag + " is false")
    for k in names:
        if k in layers:
            m[k] = layers[k]

    sweep = traced if workload == "sphere_sweep" else tally(
        bench.sweep(Inputs(seed), traced=True))
    cases = sweep["raw"].get("cases", [])
    m["driver.case_cycles_max"] = max((x["cycles"] for x in cases), default=0)
    m["driver.case_cycles_total"] = sum(x["cycles"] for x in cases)
    m["driver.worker_efficiency"] = sweep["raw"].get("worker_efficiency")
    m["driver.unconverged_cases"] = sweep["unconverged"]

    one = tally(bench.shm(Inputs(seed), backend="threads", ranks=1))
    if workload == "wing_shm_2rank":
        two_plain, two_traced = plain["wall"], traced["wall"]
    else:
        two_plain = tally(bench.shm(Inputs(seed)))["wall"]
        two_traced = tally(bench.shm(Inputs(seed), traced=True))["wall"]
    m["dist.one_rank_s"] = one["wall"]
    m["dist.rank_speedup"] = one["wall"] / two_plain
    m["obs.recorder_overhead_frac"] = two_traced / two_plain - 1.0

    return dict(correct=failed == 0, attempted=attempted, failed=failed,
                why=whys, metrics=m, extra={})


# --- Output ----------------------------------------------------------------------------

def report(workload, seed, trace, res, units, provenance):
    prov = dict(provenance)
    prov.update(workload=workload, layout=LAYOUT[workload], seed=seed,
                trace=trace)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if prov.get("build_type") != "Release" or prov.get("sanitizer"):
        print("WARNING: not a plain Release build; timings are not comparable")
    for name, unit in units.items():
        v = res["metrics"].get(name)
        print(f"  {workload:15s} {name:32s} {v!s:>24s} {unit}")
    for name, v in res["extra"].items():
        print(f"  {workload:15s} {name:32s} {v!s:>24s}")
    verdict = "PASS" if res["correct"] else "FAIL"
    print(f"answer check: {verdict} ({res['attempted'] - res['failed']}/"
          f"{res['attempted']} operations passed)")
    for w in res["why"]:
        print("  check failed: " + w)


def result_json(res, units):
    metrics = {}
    for name, unit in units.items():
        v = res["metrics"].get(name)
        metrics[name] = {"value": v if finite(v) else None, "unit": unit}
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny sizes for the smoke test")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="seed-0 answer references and tolerances")
    a = ap.parse_args()

    try:
        with open(a.reference) as f:
            reference = json.load(f)
        # Metric names and units come from the benchmark definition.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench_def = json.load(f)
        harness, dsolve = build()
        provenance = json.loads(subprocess.run(
            [harness, "provenance"], capture_output=True, text=True,
            check=True).stdout)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"tts_bench: {e}")
        return 2
    bench = Bench(harness, dsolve, reference, a.small)
    kind = "per_layer" if a.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench_def[kind]}

    names = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {}
    for w in names:
        log(f"tts_bench: {w} seed={a.seed} trace={a.trace}")
        res = (run_traced(bench, w, a.seed, units) if a.trace
               else run_untraced(bench, w, a.seed, a.seconds))
        report(w, a.seed, a.trace, res, units, provenance)
        results[w] = res
    if len(names) == 1:
        out = result_json(results[names[0]], units)
    else:
        parts = {w: result_json(r, units) for w, r in results.items()}
        out = {"correct": all(p["correct"] for p in parts.values()),
               "attempted": sum(p["attempted"] for p in parts.values()),
               "failed": sum(p["failed"] for p in parts.values()),
               "metrics": {f"{w}/{k}": v for w, p in parts.items()
                           for k, v in p["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
