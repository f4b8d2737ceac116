"""incred benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-scan --seed 1 \
        --seconds 20 --trace 0

Runs one workload's CLI calls through ``incred.cli.main`` in this
process, pass after pass, for ``--seconds`` seconds, and checks every
call's exit code, verdict line and report digests against golden.json.
Set-up time is measured in fresh interpreter processes. With
``--trace 1`` one more pass runs under the span recorder and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the run's metadata; the same record, with every pass time, is
written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_PROBES = 9
SETUP_PROBE = """\
import json, sys, time
import speed
with speed.Sampler(interval=0.005) as sampler:
    t0 = time.perf_counter()
    import incred
    incred.load_system(sys.argv[1])
    wall = time.perf_counter() - t0
print(json.dumps([wall, sampler.scale(wall)]))
"""


def measure_setup(system_file: str) -> list[list[float]]:
    """Import incred and load the system in fresh processes.

    Returns [wall seconds, seconds at reference speed] per process.
    """
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, system_file],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs passes of one workload and gates every call."""

    def __init__(self, workload: str, seed: int, golden: dict, run_dir: Path):
        self.workload = workload
        self.calls = workloads.calls(workload, seed)
        self.golden = golden
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def run_pass(self) -> tuple[float, float, int, int]:
        """One pass.

        Returns its wall seconds, its seconds at reference speed, the
        items done and the report bytes written.
        """
        import incred.cli

        gc.collect()
        seconds = 0.0
        scaled = 0.0
        items = 0
        report_bytes = 0
        for i, argv in enumerate(self.calls):
            out_dir = self.run_dir / f"call{i}"
            shutil.rmtree(out_dir, ignore_errors=True)
            with speed.Sampler() as sampler:
                rc, stdout, wall = gate.run_call(incred.cli.main, argv,
                                                 out_dir)
            seconds += wall
            scaled += sampler.scale(wall)
            observed = gate.observe(rc, stdout, out_dir)
            diffs = gate.mismatches(observed,
                                    self.golden.get(gate.call_key(argv)))
            self.attempted += 1
            if diffs:
                self.failed += 1
                self.failures.append({"call": gate.call_key(argv),
                                      "diffs": diffs})
            else:
                items += workloads.items(self.workload, observed["verdict"],
                                         out_dir)
                report_bytes += sum(p.stat().st_size
                                    for p in out_dir.iterdir())
        return seconds, scaled, items, report_bytes

    def run_for(self, budget: float) -> tuple[list[float], list[float], int]:
        """Passes until the next one would end past ``budget`` seconds.

        Returns every pass's wall seconds and seconds at reference speed,
        and the items of one pass.
        """
        walls: list[float] = []
        scaled: list[float] = []
        items = 0
        t0 = time.perf_counter()
        while True:
            wall, ref, items, _ = self.run_pass()
            walls.append(wall)
            scaled.append(ref)
            elapsed = time.perf_counter() - t0
            if (len(walls) >= MIN_PASSES
                    and elapsed + statistics.median(walls) > budget):
                return walls, scaled, items


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def metadata(workload: str, seed: int, calls: list[list[str]]) -> dict:
    import numpy  # after main() has limited BLAS to one thread

    return {"workload": workload, "seed": seed,
            "calls": [gate.call_key(c) for c in calls],
            "git_revision": git_revision(), "src_lines": src_lines(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def end_to_end(setup: list[float], passes: list[float], items: int) -> dict:
    """Medians of set-up and pass seconds at reference speed, and peak RSS."""
    wall = statistics.median(passes)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"}}


def per_layer(summary: dict, counts, items: int, report_bytes: int,
              speed_factor: float, overhead: float) -> dict:
    """Layer metrics of the traced pass.

    Span times are wall seconds; ``speed_factor`` (the traced pass's
    seconds at reference speed over its wall seconds) rescales them like
    ``wall_s``.
    """
    by_name = summary["by_name"]

    def total(name, key="s"):
        return by_name.get(name, {}).get(key, 0.0)

    def per_item(n):
        return n / items

    values = {
        "setmaps.load_system.s": (total("setmaps.load_system"), "s"),
        "setmaps.PiecewiseBoxMap.value.calls_per_item": (per_item(total(
            "setmaps.PiecewiseBoxMap.value", "calls")), "calls/item"),
        "setmaps.PiecewiseBoxMap.value.self_s": (total(
            "setmaps.PiecewiseBoxMap.value", "self_s"), "s"),
        "setmaps.PiecewiseBoxMap.env.calls_per_item": (per_item(
            counts["setmaps.PiecewiseBoxMap.env"]), "calls/item"),
        "intervals.Interval.allocs_per_item": (per_item(
            counts["intervals.Interval.__init__"]), "allocs/item"),
        "intervals.IntervalBox.allocs_per_item": (per_item(
            counts["intervals.IntervalBox.__init__"]), "allocs/item"),
        "grids.GridSpec.nodes.s": (total("grids.GridSpec.nodes"), "s"),
        "grids.nodes.count": (counts["grids.nodes.count"], "count"),
        "reduction.reduce_once.calls_per_item": (per_item(total(
            "reduction.reduce_once", "calls")), "calls/item"),
        "reduction.reduce_collection.self_s": (total(
            "reduction.reduce_collection", "self_s"), "s"),
        "reduction.tabulate_reduction.self_s": (total(
            "reduction.tabulate_reduction", "self_s"), "s"),
        "derivative.generalized_derivative.self_s": (total(
            "derivative.generalized_derivative", "self_s"), "s"),
        "derivative.bilinear.self_s": (
            total("derivative.bilinear_minmax", "self_s")
            + total("derivative.bilinear_maxmax", "self_s"), "s"),
        "certify.certify_semidefinite.self_s": (total(
            "certify.certify_semidefinite", "self_s"), "s"),
    }
    for name in ("certify.matrosov_grid", "certify.verify_combined_bound",
                 "certify.matrosov_chain", "certify.matrosov_constants",
                 "certify.matrosov_derivative_bounds", "simulate.integrate",
                 "simulate.check_reduction_membership",
                 "simulate.check_lyapunov_descent"):
        values[f"{name}.s"] = (total(name), "s")
    values["simulate.steps"] = (counts["simulate.steps"], "count")
    values["cli.report.s"] = (summary["report_s"], "s")
    values["cli.report.bytes"] = (report_bytes, "bytes")
    values["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v * speed_factor if u == "s" else v, "unit": u}
            for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "incred" / "__init__.py").is_file():
        print(f"error: no incred sources under {SRC}", file=sys.stderr)
        return 2
    # One thread: numpy's BLAS pool would otherwise start one per core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import incred.cli  # noqa: F401 - imported before timing starts

    golden = gate.load_golden()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, golden, run_dir)
    meta = metadata(args.workload, args.seed, runner.calls)
    try:
        walls, scaled, items = runner.run_for(args.seconds)
        meta.update(items_per_pass=items, pass_wall_seconds=walls,
                    pass_seconds=scaled)
        if args.trace:
            import spans

            recorder = spans.SpanRecorder()
            recorder.install()
            try:
                traced_wall, traced, traced_items, report_bytes = \
                    runner.run_pass()
            finally:
                recorder.uninstall()
            summary = recorder.summary()
            recorder.write(WORK / f"spans-{args.workload}.npz")
            meta.update(traced_pass_wall_seconds=traced_wall,
                        traced_pass_seconds=traced,
                        spans=len(recorder.start),
                        overcovered_spans=summary["overcovered"])
            metrics = per_layer(summary, recorder.counts, traced_items,
                                report_bytes, traced / traced_wall,
                                traced / statistics.median(scaled))
            consistent = summary["overcovered"] == 0 and traced_items == items
        else:
            setup = measure_setup(workloads.SYSTEM_FILE[args.workload])
            meta.update(setup_wall_seconds=[w for w, _ in setup],
                        setup_seconds=[s for _, s in setup])
            metrics = end_to_end([s for _, s in setup], scaled, items)
            consistent = True
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    meta["failures"] = runner.failures[:10]
    result = {"correct": runner.failed == 0 and items > 0 and consistent,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
