"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 flickbench/run.py --workload migrate_loop --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (host time untraced);
``--trace 1`` runs the same workload again under the layer profiler and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full report (provenance, every sample, every problem).
See ``flickbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up-only samples taken before the timed units.
SETUP_SAMPLES = 3
#: Fresh-interpreter package imports timed per run.
IMPORT_SAMPLES = 7
#: Process CPU seconds between reference slices timed inside a unit.
REFERENCE_EVERY_S = 2.0
#: A run starts no unit past this many seconds ...
RUN_DEADLINE_S = 140.0
#: ... and interrupts whatever still runs at this many.
RUN_HARD_LIMIT_S = 160.0
#: Host seconds of one ``harness.reference_seconds`` slice on a quiet
#: 2.1 GHz Xeon VM; host times are reported at this reference speed.
REFERENCE_NOMINAL_S = 0.150
#: The paper's Host→NxP→Host null round trip (Table III).
PAPER_ROUNDTRIP_US = 18.3


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class _Deadline:
    """Interrupts whatever runs once the run's time budget is spent."""

    def __init__(self, seconds: float, error):
        self.seconds = seconds
        self.error = error

    def _fire(self, signum, frame):
        raise self.error("run deadline reached")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _units(harness, workload, seeds, seconds, started, min_units, units, **unit_kwargs):
    """Units cycling through ``seeds`` until ``seconds`` have passed and at
    least ``min_units`` ran, appended to the empty list ``units``; returns
    each seed's expected answer and the reference slices timed around the units."""
    expected = {s: workload.expected(s) for s in seeds}
    refs = [harness.reference_seconds()]
    begin = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - begin < seconds:
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break
        s = seeds[len(units) % len(seeds)]
        units.append(harness.run_unit(workload, s, expected[s], **unit_kwargs))
        refs.append(harness.reference_seconds())
        if units[-1].crashed:
            break
    return expected, refs


def _normalized(samples, refs, inside=None):
    """Each host-time sample over the mean of the reference slices timed just
    before and after it (``refs`` has one more entry than ``samples``) and,
    for units, inside it."""
    inside = inside or [()] * len(samples)
    return [
        x / statistics.mean((refs[i], refs[i + 1], *inside[i]))
        for i, x in enumerate(samples)
    ]


def _sampled(harness, measure, count):
    """``count`` calls of ``measure`` with a reference slice around each."""
    refs = [harness.reference_seconds()]
    samples = []
    for _ in range(count):
        samples.append(measure())
        refs.append(harness.reference_seconds())
    return samples, refs


def _pooled_latencies(units, seeds):
    """Simulated op latencies of the first unit of every sample."""
    first = {}
    for unit in units:
        first.setdefault(unit.seed, unit.summary.latencies_ns)
    return [lat for s in seeds for lat in first.get(s, [])]


def end_to_end(harness, workload, seed, seconds, started, units):
    """The ``--trace 0`` run: host cost and fidelity, tracing off.  Units
    are appended to ``units`` as they finish."""
    from repro.sim.stats import quantile
    from repro.workloads import measure_h2n_roundtrip

    imports, import_refs = _sampled(harness, lambda: harness.import_seconds(SRC), IMPORT_SAMPLES)
    setups, setup_refs = _sampled(
        harness, lambda: harness.setup_sample(workload, seed), SETUP_SAMPLES
    )
    seeds = workload.sample_seeds(seed)
    # Every sample once, then at least one repeat for the determinism guard.
    _expected, refs = _units(
        harness, workload, seeds, seconds, started, len(seeds) + 1, units,
        reference_every=REFERENCE_EVERY_S,
    )
    harness.check_determinism(units)
    # A crash ends the loop, so the units that finished are a prefix.
    ok = [u for u in units if not u.crashed]
    if not ok:
        raise RuntimeError("no unit finished")
    unit_refs = refs[: len(ok) + 1]
    latencies = _pooled_latencies(ok, seeds)
    rt_us = measure_h2n_roundtrip(workload.flick_config(), calls=100).roundtrip_us
    # Host times are reported at a fixed reference host speed.  How fast a
    # shared host runs Python drifts by tens of percent over minutes (on a
    # 2-vCPU cloud VM the fastest unit of a 30 s run moved by 50% between
    # runs), and every CPU-bound slice drifts with it.  Dividing each sample
    # by the reference slices timed around it cancels most of that drift.
    # Raw samples are in the report line.
    wall = _normalized([u.wall_s for u in ok], unit_refs, [u.references for u in ok])
    setup = _normalized(setups, setup_refs) + _normalized([u.setup_s for u in ok], unit_refs)
    import_ = _normalized(imports, import_refs)
    metrics = {
        "wall_s": _metric(REFERENCE_NOMINAL_S * statistics.median(wall), "s"),
        "setup_s": _metric(
            REFERENCE_NOMINAL_S * (statistics.median(import_) + statistics.median(setup)), "s"
        ),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "sim_p50_us": _metric(quantile(latencies, 50) / 1000.0, "sim_us"),
        "sim_p99_us": _metric(quantile(latencies, 99) / 1000.0, "sim_us"),
        "roundtrip_err_pct": _metric(
            abs(rt_us - PAPER_ROUNDTRIP_US) / PAPER_ROUNDTRIP_US * 100.0, "%"
        ),
    }
    samples = {
        "import_s": imports,
        "import_reference_s": import_refs,
        "setup_s": setups,
        "setup_reference_s": setup_refs,
        "unit_seeds": [u.seed for u in units],
        "unit_setup_s": [u.setup_s for u in units],
        "wall_s": [u.wall_s for u in units],
        "unit_reference_s": refs,
        "in_unit_reference_s": [list(u.references) for u in units],
        "latency_samples": len(latencies),
        "roundtrip_us": rt_us,
    }
    return metrics, samples


#: Deterministic per-layer counts and their units.
COUNT_UNITS = {
    "sim.engine.events_per_op": "1/op",
    "isa.interpreter.inst_per_op": "1/op",
    "isa.jit.coverage": "ratio",
    "isa.jit.compiled_blocks": "count",
    "isa.jit.bailouts": "count",
    "memory.tlb_hit_ratio": "ratio",
    "memory.icache_hit_ratio": "ratio",
    "memory.mmu_walks_per_op": "1/op",
    "core.ports.accesses_per_op": "1/op",
    "core.ports.pcie_frac": "ratio",
    "core.protocol.legs_per_op": "1/op",
    "interconnect.pcie_bytes_per_op": "B/op",
    "interconnect.irqs_per_op": "1/op",
    "os.processes_loaded": "count",
    "os.placement_imbalance": "ratio",
    "core.trace.events_per_op": "1/op",
    "core.trace.dropped": "count",
    "nxp.busy_frac": "ratio",
    "interconnect.dma_busy_frac": "ratio",
}


def per_layer(harness, workload, seed, seconds, started, units):
    """The ``--trace 1`` run: untraced units of the first sample, then one
    profiled unit of it; per-layer numbers describe that sample.  Units are
    appended to ``units`` as they finish."""
    from flickbench.layers import LAYERS, LayerResolver, self_shares
    from flickbench.workloads import BREAKDOWN_PHASES, REPORTED_CP_PHASES

    first_seed = workload.sample_seeds(seed)[0]
    expected, _refs = _units(
        harness, workload, [first_seed], seconds / 2, started, 1, units, traced_hooks=True
    )
    untraced = [u for u in units if not u.crashed]
    if not untraced:
        raise RuntimeError("no untraced unit finished")
    profiler = cProfile.Profile()
    profiled = harness.run_unit(
        workload, first_seed, expected[first_seed], profiler=profiler, traced_hooks=True
    )
    units.append(profiled)
    harness.check_determinism(units)
    if profiled.crashed:
        raise RuntimeError("the profiled unit crashed")
    wall = min(u.wall_s for u in untraced)
    counts = untraced[0].summary.counts
    ops = untraced[0].summary.ops

    metrics = {}
    shares = self_shares(pstats.Stats(profiler).stats, LayerResolver(SRC))
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _metric(shares[layer], "ratio")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = _metric(counts[name], unit)
    for phase in BREAKDOWN_PHASES:
        name = f"phase.{phase}_us"
        metrics[name] = _metric(counts[name], "sim_us")
    metrics["sim.engine.host_ns_per_event"] = _metric(wall * 1e9 / counts["events"], "ns/event")
    metrics["core.hosted.flushes_per_op"] = _metric(profiled.flushes / ops, "1/op")
    metrics["toolchain.compile_s"] = _metric(
        statistics.median(u.compile_s for u in untraced), "s"
    )
    metrics["bench.trace_overhead_frac"] = _metric(profiled.wall_s / wall, "ratio")
    cp = workload.critical_path(first_seed)
    for phase in REPORTED_CP_PHASES:
        for suffix in ("_us", "_tail_us"):
            name = f"cp.{phase}{suffix}"
            metrics[name] = _metric(cp.get(name, 0.0), "sim_us")
    samples = {
        "wall_s": [u.wall_s for u in untraced],
        "traced_wall_s": profiled.wall_s,
        "compile_s": [u.compile_s for u in untraced],
        "unit_seeds": [u.seed for u in units],
    }
    return metrics, samples


def _planned_ops(workload, seed) -> int:
    """Ops of one unit of each of the run's samples, or 1 if even the
    expected answers cannot be computed."""
    try:
        return sum(workload.ops(workload.expected(s)) for s in workload.sample_seeds(seed))
    except Exception:
        return 1


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"flickbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from flickbench import harness
    from flickbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"flickbench: unknown workload {args.workload!r} (know {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    units = []
    aborted = None
    try:
        with _Deadline(RUN_HARD_LIMIT_S - (time.perf_counter() - started), harness.RunDeadline):
            metrics, samples = measure(harness, workload, args.seed, args.seconds, started, units)
    except Exception as exc:  # still report: every op of the run counts as failed
        traceback.print_exc(file=sys.stderr)
        metrics, samples, aborted = {}, {}, f"run aborted: {exc!r}"
    attempted = sum(u.summary.ops for u in units)
    failed = sum(u.summary.failed for u in units)
    problems = sorted({p for u in units for p in u.summary.problems})
    if aborted:
        attempted = failed = max(attempted, _planned_ops(workload, args.seed))
        problems.append(aborted)
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": harness.provenance(ROOT, SRC, workload, args.seed),
        "units": len(units),
        "digest": units[0].summary.digest if units else None,
        "fail_frac": failed / attempted,
        "problems": problems,
        "samples": samples,
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{workload.name:>13} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload.name:>13} {'fail_frac':<34} {failed / attempted:>14.6g} ratio")
    for problem in problems:
        print(f"{workload.name:>13} PROBLEM {problem}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
