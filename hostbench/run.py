#!/usr/bin/env python3
"""Host-time benchmark of the control-replication simulator.

Run from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the library, the Figure 8 sweep binary and the in-process driver
(hostbench/driver.cc) into .bench_build/hostbench, then repeats the
workload in fresh processes until the next repetition would overrun
--seconds. Every repetition is checked against the virtual results pinned
in pins.json; a crash or a mismatch counts in "failed". The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(it also runs the untraced repetitions, for trace.overhead_s). See
NOTES.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
SCRATCH = ROOT / ".bench_build" / "hostbench-run"
DRIVER = BUILD / "hostbench_driver"
FIG8 = BUILD / "bench_fig8_pennant"

# Whole-invocation budget after the build; every run must end within 180 s.
BUDGET_S = 165.0
# Pinned virtual results are recorded for this workload seed.
PINNED_SEED = 42
# A traced run's outside spans must add up to its wall time within this
# fraction. The sweep's spans are its Regent points; the MPI reference
# models and process start-up fall outside them.
RECONCILE_FRAC = {"in-process": 0.02, "sweep": 0.05}
SWEEP_POINT = "pennant-cr-256"  # the sweep's largest CR point
SWEEP_ENV = {"CR_BENCH_MAX_NODES": "256"}

# name -> (kind, setups without a run: per repetition in process, once per
# run for the sweep)
WORKLOADS = {
    "circuit-cr-1024": ("in-process", 2),
    "fig8-sweep-256": ("sweep", 9),
    "stencil-implicit-audit-64": ("in-process", 9),
}
# Only circuit draws random inputs (its graph generator).
SEEDED = {"circuit-cr-1024", "circuit-cr-256"}

# Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot produce a result."""


class Run:
    """Book-keeping of one invocation: deadline, attempts and failures."""

    def __init__(self, workload, seed, pins):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        # Per workload, the driver results of an unpinned seed, compared
        # with each other at the end: [(label, result)].
        self.unpinned = {}

    def fail(self, what):
        self.failed += 1
        log(f"FAILED: {what}")

    def spawn(self, argv, env=None):
        """Runs argv to completion; returns (exit code, stdout, stderr,
        wall seconds, peak RSS in MB) of that process alone."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Failure("time budget exhausted")
        SCRATCH.mkdir(parents=True, exist_ok=True)
        out_path, err_path = SCRATCH / "stdout.txt", SCRATCH / "stderr.txt"
        full_env = dict(os.environ, **(env or {}))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=full_env,
                                    cwd=SCRATCH)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ended = select.select([pidfd], [], [], timeout)[0]
                finally:
                    os.close(pidfd)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            if not ended:
                proc.kill()
            # wait4, unlike Popen.wait, reports this child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0

    def driver(self, workload, *flags):
        """Runs one driver process; returns (result, error). The result
        carries the process's peak RSS as measured by wait4."""
        code, out, err, _, rss = self.spawn(
            [str(DRIVER), f"--workload={workload}", f"--seed={self.seed}",
             *flags])
        if code != 0:
            return None, f"exit code {code}\n{err[-2000:]}"
        try:
            res = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None, "no result line"
        res["peak_rss_mb"] = rss
        return res, None

    def rep(self, workload, *flags):
        """A run with virtual results: it counts as attempted, and as
        failed if it crashes or misses a pinned value. Returns its result
        or None."""
        self.attempted += 1
        label = " ".join([workload, *flags])
        res, error = self.driver(workload, *flags)
        if error:
            self.fail(f"{label}: {error}")
            return None
        # Without the dependence tracker the virtual costs change, so that
        # difference run has nothing pinned.
        if "--no-deps" not in flags:
            self.check_virtual(workload, label, res)
        return res

    def helper(self, workload, *flags):
        """A setup or intersection measurement, which has no virtual
        result; the benchmark cannot report without it."""
        res, error = self.driver(workload, *flags)
        if error:
            raise Failure(" ".join([workload, *flags]) + ": " + error)
        return res

    def check_virtual(self, workload, label, res):
        if workload in SEEDED and self.seed != PINNED_SEED:
            self.unpinned.setdefault(workload, []).append((label, res))
            return
        for key, want in self.pins[workload].items():
            if res[key] == -1 and key == "check_races":
                continue  # this run had the checker off
            if res[key] != want:
                self.fail(f"{label}: {key} = {res[key]}, pinned {want}")
                return

    def settle_unpinned(self):
        """Under an unpinned seed, runs whose makespan or event count
        disagrees with the majority of that seed's runs fail."""
        for runs in self.unpinned.values():
            keys = [(r["makespan_ns"], r["events"]) for _, r in runs]
            majority = statistics.mode(keys)
            for (label, _), key in zip(runs, keys):
                if key != majority:
                    self.fail(f"{label}: (makespan, events) = {key}, "
                              f"other runs of seed {self.seed} give {majority}")

    def sweep(self, *flags):
        """One Figure 8 sweep; returns (wall seconds, peak RSS MB), or None
        after counting the failure."""
        self.attempted += 1
        code, out, err, wall, rss = self.spawn([str(FIG8), *flags], SWEEP_ENV)
        if code != 0:
            self.fail(f"fig8 sweep: exit code {code}\n{err[-2000:]}")
            return None
        # --selftime appends per-point analysis blocks; the table before
        # them must still match the pinned one byte for byte.
        table = out.split("\nanalysis [", 1)[0].rstrip("\n")
        if table != self.pins["fig8-sweep-256"]["table"].rstrip("\n"):
            self.fail("fig8 sweep: stdout table differs from the pinned one")
        return wall, rss


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Failure(f"library sources not found under {ROOT}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if (BUILD / "CMakeCache.txt").is_file() else [configure]
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise Failure("build failed: " + " ".join(cmd))


def load_pins(path):
    """Pinned virtual results per workload; the sweep's table may be given
    inline ("table") or as a file next to pins.json ("table_file")."""
    pins = json.loads(path.read_text())
    sweep = pins["fig8-sweep-256"]
    if "table_file" in sweep:
        sweep["table"] = (HERE / sweep.pop("table_file")).read_text()
    return pins


def repeat(run, seconds, once):
    """Calls once() until the next call would end after `seconds`."""
    results, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(once())
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return results
        if run.deadline - now < 2 * (now - t0):
            return results  # leave time for the traced runs


def untraced(run, seconds):
    """The measured repetitions; returns end-to-end samples."""
    kind, extra = WORKLOADS[run.workload]
    walls, setups, rss = [], [], []
    if kind == "in-process":
        for res in repeat(run, seconds, lambda: run.rep(
                run.workload, f"--setups={extra}")):
            if res is not None:
                walls.append(res["wall_s"])
                setups += res["setup_s"]
                rss.append(res["peak_rss_mb"])
    else:
        setups += run.helper(SWEEP_POINT, "--mode=setup",
                             f"--setups={extra}")["setup_s"]
        for out in repeat(run, seconds, run.sweep):
            if out is not None:
                walls.append(out[0])
                rss.append(out[1])
    if not walls or not setups:
        raise Failure("no repetition produced a measurement")
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


def per_event_ns(seconds, events):
    return seconds * 1e9 / events


def reconcile(run, kind, spans, wall):
    """Returns 1 - sum(spans) / wall; a traced run whose spans miss more
    than the stated fraction of its wall time fails."""
    frac = 1.0 - sum(spans) / wall
    if abs(frac) > RECONCILE_FRAC[kind]:
        run.fail(f"traced spans cover {1 - frac:.4f} of the traced wall time")
    return frac


def layers_of(res):
    """Per-layer metrics of one traced in-process driver result."""
    events = res["events"]
    return {
        "apps.build_s": res["build_s"],
        "passes.pipeline_s": res["passes_s"],
        "exec.engine_ctor_s": res["ctor_s"],
        "exec.unroll_s": res["unroll_s"],
        "exec.unroll_ns_per_event": per_event_ns(res["unroll_s"], events),
        "exec.post_run_s": res["post_run_s"],
        "exec.point_tasks": res["exec.point_tasks"],
        "exec.copies_issued": res["exec.copies_issued"],
        "exec.intersection_pairs": res["exec.intersection_pairs"],
        "rt.dep.pairs_tested": res["rt.dep.pairs_tested"],
        "rt.dep.pairs_scanned": res["rt.dep.pairs_scanned"],
        "sim.drain_s": res["drain_s"],
        "sim.drain_events_per_s": events / res["drain_s"],
        "sim.events_processed": events,
        "sim.queue.max_depth": res["sim.queue.max_depth"],
    }


def spans_of(res):
    return [res[k] for k in ("build_s", "passes_s", "ctor_s", "unroll_s",
                             "drain_s", "post_run_s")]


def traced(run, samples):
    """The traced runs; returns every per-layer metric (0 where the layer
    does not run on this workload)."""
    kind, _ = WORKLOADS[run.workload]
    m = dict.fromkeys(PER_LAYER, 0.0)
    point = run.workload if kind == "in-process" else SWEEP_POINT
    main = run.rep(point, "--probe")
    if main is None:
        raise Failure("the traced run failed")
    isect = run.helper(point, "--mode=isect")
    m.update(layers_of(main))
    m["rt.isect.shallow_s"] = isect["shallow_s"]
    m["rt.isect.complete_s"] = isect["complete_s"]
    m["rt.isect.pairs"] = isect["pairs"]
    main_frac = reconcile(run, "in-process", spans_of(main),
                          main["traced_wall_s"])

    if run.workload == "circuit-cr-1024":
        small = run.rep("circuit-cr-256", "--probe")
        if small is None:
            raise Failure("the 256-node growth probe failed")
        events = main["events"], small["events"]
        m["exec.unroll_growth"] = (
            per_event_ns(main["unroll_s"], events[0]) /
            per_event_ns(small["unroll_s"], events[1]))
        m["sim.drain_growth"] = (
            per_event_ns(main["drain_s"], events[0]) /
            per_event_ns(small["drain_s"], events[1]))
    elif run.workload == "stencil-implicit-audit-64":
        # Layer costs by difference: checker off, then tracker off too.
        no_check = run.rep(point, "--probe", "--no-check")
        no_deps = run.rep(point, "--probe", "--no-check", "--no-deps")
        if no_check is None or no_deps is None:
            raise Failure("a traced difference run failed")
        m["sim.drain_s"] = no_check["drain_s"]
        m["sim.drain_events_per_s"] = no_check["events"] / no_check["drain_s"]
        m["check.s"] = main["run_s"] - no_check["run_s"]
        m["rt.dep.analysis_s"] = no_check["unroll_s"] - no_deps["unroll_s"]
        for key in ("check.accesses", "check.hb_edges", "check.pairs_checked"):
            m[key] = main[key]

    if kind == "in-process":
        m["trace.overhead_s"] = (main["wall_s"] -
                                 statistics.median(samples["wall_s"]))
        m["trace.unaccounted_frac"] = main_frac
        return m

    analysis = SCRATCH / "fig8-selftime.json"
    out = run.sweep(f"--selftime={analysis}")
    if out is None:
        raise Failure("the traced sweep failed")
    wall, _ = out
    doc = json.loads(analysis.read_text())
    points = [p["analysis"]["host_seconds"] for s in doc["series"]
              for p in s["points"]]
    m["bench.points"] = len(points)
    m["bench.point_s_max"] = max(points)
    m["bench.point_s_sum"] = sum(points)
    m["trace.overhead_s"] = wall - statistics.median(samples["wall_s"])
    m["trace.unaccounted_frac"] = reconcile(run, "sweep", points, wall)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", type=Path, default=HERE / "pins.json",
                    help="pinned virtual results to check against")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        build()
        pins = load_pins(args.pins)
        run = Run(args.workload, args.seed, pins)
        samples = untraced(run, args.seconds)
        if args.trace:
            values = traced(run, samples)
            units = PER_LAYER
        else:
            values = {k: statistics.median(v) for k, v in samples.items()}
            units = END_TO_END
        run.settle_unpinned()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    except (Failure, OSError, KeyError, ValueError) as e:
        log(f"error: {e!r}")
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
