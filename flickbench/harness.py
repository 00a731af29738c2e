"""Benchmark-side hooks and the unit runner.

No code under ``src/`` knows it is being measured.  :class:`Probe`
installs hooks on public classes for the length of one unit and removes
them afterwards:

* ``Simulator.run`` — notes the host instant the first simulated event
  is about to run, which splits a unit into set-up and simulation (and
  optionally stops there, for set-up-only samples, or turns a profiler on);
* ``FlickMachine.__init__`` — keeps a handle on the machine the public
  entry point built, and raises its trace ring limits so trace-derived
  numbers cover the whole run;
* ``HostedContext.flush`` / ``FlickMachine.compile`` — counts hosted
  flushes and times toolchain compiles (``traced`` probes only).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.hosted import HostedContext
from repro.core.machine import FlickMachine
from repro.sim.engine import Simulator

from flickbench.workloads import UnitSummary, Workload

#: Trace ring size set on every machine a probe observes, so trace-derived
#: numbers cover the whole run, never a window.
TRACE_LIMIT = 10_000_000


class SetupDone(Exception):
    """Raised by a set-up-only probe when the first simulated event is due."""


class RunDeadline(Exception):
    """Raised when a unit would carry the run past its time limit."""


class Probe:
    """Hooks for one unit; use as a context manager."""

    def __init__(self, stop_at_first_event=False, profiler=None, traced=False):
        self.stop_at_first_event = stop_at_first_event
        self.profiler = profiler
        self.traced = traced
        self.first_event_at: Optional[float] = None
        self.machine: Optional[FlickMachine] = None
        self.flushes = 0
        self.compile_s = 0.0
        self._saved = []

    def _patch(self, cls, name, make):
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def __enter__(self) -> "Probe":
        probe = self

        def run_hook(original):
            def run(sim, until=None):
                if probe.first_event_at is None:
                    probe.first_event_at = time.perf_counter()
                    if probe.stop_at_first_event:
                        raise SetupDone()
                    if probe.profiler is not None:
                        probe.profiler.enable()
                return original(sim, until)

            return run

        def init_hook(original):
            def __init__(machine, *args, **kwargs):
                original(machine, *args, **kwargs)
                machine.trace.limit = max(machine.trace.limit, TRACE_LIMIT)
                machine.trace.span_limit = max(machine.trace.span_limit, TRACE_LIMIT)
                probe.machine = machine

            return __init__

        def flush_hook(original):
            def flush(ctx):
                probe.flushes += 1
                return original(ctx)

            return flush

        def compile_hook(original):
            def compile(machine, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(machine, *args, **kwargs)
                finally:
                    probe.compile_s += time.perf_counter() - t0

            return compile

        self._patch(Simulator, "run", run_hook)
        self._patch(FlickMachine, "__init__", init_hook)
        if self.traced:
            self._patch(HostedContext, "flush", flush_hook)
            self._patch(FlickMachine, "compile", compile_hook)
        return self

    def __exit__(self, *exc) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


@dataclass
class Unit:
    """One unit's host timings plus its checked summary."""

    seed: int
    setup_s: float
    wall_s: float
    summary: UnitSummary
    flushes: int = 0
    compile_s: float = 0.0
    crashed: bool = False
    #: reference slices timed inside the unit (see ReferenceSampler)
    references: Tuple[float, ...] = ()


def setup_sample(workload: Workload, seed: int) -> float:
    """Host seconds from the public call to its first simulated event."""
    gc.collect()
    with Probe(stop_at_first_event=True) as probe:
        t0 = time.perf_counter()
        try:
            workload.run(seed)
        except SetupDone:
            pass
    return probe.first_event_at - t0


class ReferenceSampler:
    """Times a reference slice every ``every`` seconds of process CPU time
    (SIGVTALRM) while active, so a long unit carries host-speed samples from
    inside itself.  ``spent_after(t)`` is the handler time after host instant
    ``t``, which the unit's own timings exclude."""

    def __init__(self, every: Optional[float]):
        self.every = every
        self.samples: List[Tuple[float, float]] = []  # (start, end) host instants

    def _sample(self, signum, frame):
        self.samples.append(_timed_reference())

    def spent_after(self, t: float) -> float:
        return sum(end - start for start, end in self.samples if start >= t)

    def __enter__(self) -> "ReferenceSampler":
        if self.every:
            self._previous = signal.signal(signal.SIGVTALRM, self._sample)
            signal.setitimer(signal.ITIMER_VIRTUAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, self._previous)


def run_unit(
    workload: Workload, seed: int, expected, profiler=None, traced_hooks=False,
    reference_every: Optional[float] = None,
) -> Unit:
    """Run one unit; a crash or deadline counts every op of the unit as failed."""
    gc.collect()
    probe = Probe(profiler=profiler, traced=traced_hooks)
    sampler = ReferenceSampler(reference_every)
    try:
        with probe, sampler:
            t0 = time.perf_counter()
            raw = workload.run(seed)
            t1 = time.perf_counter()
        summary = workload.summarize(raw, probe.machine, expected)
        if summary.counts["core.trace.dropped"]:
            summary.failed = summary.ops
            summary.problems.append("trace ring dropped events")
    except Exception as exc:  # the run must go on to report the failure
        traceback.print_exc(file=sys.stderr)
        ops = workload.ops(expected)
        summary = UnitSummary(ops, ops, [f"crashed: {exc!r}"], "crashed", [])
        return Unit(seed, 0.0, 0.0, summary, crashed=True)
    first = probe.first_event_at
    return Unit(
        seed=seed,
        setup_s=first - t0 - (sampler.spent_after(t0) - sampler.spent_after(first)),
        wall_s=t1 - first - sampler.spent_after(first),
        summary=summary,
        flushes=probe.flushes,
        compile_s=probe.compile_s,
        references=tuple(end - start for start, end in sampler.samples),
    )


def check_determinism(units: List[Unit]) -> None:
    """A unit must reproduce the deterministic outputs of the run's first unit
    with the same seed exactly; a unit that drifts fails all its ops."""
    reference = {}
    for unit in units:
        summary = unit.summary
        first = reference.setdefault(unit.seed, summary.digest)
        if not unit.crashed and summary.digest != first:
            summary.failed = summary.ops
            summary.problems.append(
                f"seed {unit.seed}: deterministic outputs differ from its first unit"
            )


def _reference_work(rounds: int = 16000) -> dict:
    """Fixed pure-Python work shaped like a discrete-event loop: generator
    processes resumed in timestamp order from a heap, with dict updates.
    It shares no code with ``repro``, so only the host's speed moves it."""

    def process(k):
        t = 0
        while t < rounds:
            t += (k * 7) % 13 + 1
            yield t

    procs = [process(k) for k in range(64)]
    queue = []
    for i, proc in enumerate(procs):
        heappush(queue, (next(proc), i))
    totals = {}
    while queue:
        t, i = heappop(queue)
        totals[i & 15] = totals.get(i & 15, 0) + t
        try:
            heappush(queue, (procs[i].send(None), i))
        except StopIteration:
            pass
    return totals


def _timed_reference() -> Tuple[float, float]:
    """(start, end) host instants of one reference slice.

    The slice may run inside the measured program's heap.  With the
    collector off (the slice makes no cycles) its allocations trigger no
    collections that walk the simulator's objects, so it times host speed
    only.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return start, time.perf_counter()
    finally:
        gc.enable()


def reference_seconds() -> float:
    """Host seconds of one fixed reference slice (about 150 ms on a 2.1 GHz Xeon)."""
    start, end = _timed_reference()
    return end - start


def import_seconds(src: Path) -> float:
    """Package import time, measured in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro, repro.analysis, repro.workloads; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout.strip())


def _git_revision(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, src: Path, workload: Workload, seed: int) -> dict:
    """Where a result came from: code, config, seed and host."""
    return {
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(src),
        "config_digest": workload.config_digest(seed),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "caches_start_empty": True,
    }
