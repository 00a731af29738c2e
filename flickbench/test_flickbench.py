"""Self-tests of the benchmark: its checks catch wrong answers, its layer
map covers the simulator, and its profile attribution adds up.

Run with ``python3 -m pytest flickbench``.  Units here are shrunk so the
whole file takes a few seconds; the checks are the ones the full-size
runs use.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import replace
from pathlib import Path

import pytest

from flickbench import harness, layers
from flickbench.workloads import HostedBfs, MigrateLoop, ServeMixed

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 3


def _unit(workload, expected, **kwargs):
    return harness.run_unit(workload, SEED, expected, **kwargs)


class TestWrongAnswersCountAsFailedOps:
    def test_migrate_loop_wrong_retval(self):
        w = MigrateLoop(iterations=20)
        good = _unit(w, w.expected(SEED))
        bad = _unit(w, w.expected(SEED) + 1)
        assert (good.summary.ops, good.summary.failed) == (20, 0)
        assert bad.summary.failed == 20
        assert any("retval" in p for p in bad.summary.problems)

    def test_hosted_bfs_wrong_count(self):
        w = HostedBfs(scale=8192)
        expected = w.expected(SEED)
        good = _unit(w, expected)
        bad = _unit(w, replace(expected, discovered=expected.discovered - 1))
        assert good.summary.failed == 0
        assert bad.summary.failed == bad.summary.ops > 0

    def test_serve_mixed_wrong_arrival_schedule(self):
        w = ServeMixed(requests=12)
        expected = w.expected(SEED)
        good = _unit(w, expected)
        late = replace(expected, offsets=tuple(o + 1.0 for o in expected.offsets))
        bad = _unit(w, late)
        assert (good.summary.ops, good.summary.failed) == (12, 0)
        assert bad.summary.failed == 12

    def test_serve_mixed_short_schedule(self):
        w = ServeMixed(requests=12)
        expected = w.expected(SEED)
        bad = _unit(w, replace(expected, offsets=expected.offsets[:-1]))
        assert bad.summary.failed == 12


class TestDeterminismGuard:
    def test_identical_units_pass(self):
        w = MigrateLoop(iterations=10)
        units = [_unit(w, w.expected(SEED)) for _ in range(2)]
        harness.check_determinism(units)
        assert units[0].summary.digest == units[1].summary.digest
        assert [u.summary.failed for u in units] == [0, 0]

    def test_drifting_unit_fails_all_its_ops(self):
        w = MigrateLoop(iterations=10)
        units = [_unit(w, w.expected(SEED)) for _ in range(2)]
        units[1].summary.digest = "drifted"
        harness.check_determinism(units)
        assert units[0].summary.failed == 0
        assert units[1].summary.failed == 10

    def test_crash_fails_the_unit(self):
        w = MigrateLoop(iterations=0)  # ops would divide by zero in the summary
        unit = _unit(w, w.expected(SEED))
        assert unit.crashed


class _BrokenAtSetup(MigrateLoop):
    """Raises before its first simulated event, like a defect in machine
    build or compile would."""

    def run(self, seed):
        raise RuntimeError("machine build failed")


class TestAbortedRunStillReports:
    """A run that cannot finish prints a result with every op failed."""

    @staticmethod
    def _result(monkeypatch, capsys, workload, trace):
        import json

        from flickbench import run, workloads

        monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
        code = run.main(
            ["--workload", workload.name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        report = json.loads(lines[-2])["report"]
        return report, json.loads(lines[-1])

    @pytest.mark.parametrize("trace", [0, 1])
    def test_crash_at_setup(self, monkeypatch, capsys, trace):
        report, result = self._result(monkeypatch, capsys, _BrokenAtSetup(iterations=7), trace)
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 7
        assert any("machine build failed" in p for p in report["problems"])


class TestSetupSplit:
    def test_setup_sample_stops_before_first_event(self):
        w = MigrateLoop(iterations=5)
        assert 0.0 < harness.setup_sample(w, SEED) < 5.0

    def test_probe_restores_the_patched_classes(self):
        from repro.core.machine import FlickMachine
        from repro.sim.engine import Simulator

        before = (Simulator.run, FlickMachine.__init__, FlickMachine.compile)
        w = MigrateLoop(iterations=5)
        _unit(w, w.expected(SEED), traced_hooks=True)
        assert (Simulator.run, FlickMachine.__init__, FlickMachine.compile) == before


class TestLayerMap:
    def test_layer_map_is_complete(self):
        assert layers.unmapped_modules(SRC) == []

    def test_no_module_in_two_layers(self):
        assert layers.doubly_mapped_modules() == []

    def test_map_names_only_existing_modules(self):
        assert set(layers.MODULE_LAYER) <= set(layers.repro_modules(SRC))

    def test_an_unmapped_module_is_reported(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "brand_new.py").write_text("")
        assert layers.unmapped_modules(tmp_path) == ["repro.brand_new"]


class TestSelfShares:
    def test_shares_cover_every_layer_and_sum_to_one(self):
        w = MigrateLoop(iterations=20)
        profiler = cProfile.Profile()
        _unit(w, w.expected(SEED), profiler=profiler)
        shares = layers.self_shares(pstats.Stats(profiler).stats, layers.LayerResolver(SRC))
        assert set(shares) == set(layers.LAYERS)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["sim.engine"] > 0.0
        assert shares["core.hosted"] == 0.0

    def test_builtin_time_goes_to_the_calling_layer(self):
        engine = str(SRC / "repro" / "sim" / "engine.py")
        stats_py = str(SRC / "repro" / "sim" / "stats.py")
        caller_a = (engine, 1, "run")
        caller_b = (stats_py, 1, "count")
        builtin = ("~", 0, "<built-in method heapq.heappush>")
        stats = {
            caller_a: (1, 1, 1.0, 4.0, {}),
            caller_b: (1, 1, 1.0, 2.0, {}),
            builtin: (4, 4, 3.0, 3.0, {caller_a: (3, 3, 2.0, 2.0), caller_b: (1, 1, 1.0, 1.0)}),
        }
        shares = layers.self_shares(stats, layers.LayerResolver(SRC))
        assert shares["sim.engine"] == pytest.approx(3.0 / 5.0)
        assert shares["sim.stats"] == pytest.approx(2.0 / 5.0)
        assert shares["unattributed"] == 0.0


class TestBenchmarkDeclaration:
    """The metrics a run prints are exactly the ones BENCHMARK.json declares."""

    @staticmethod
    def _declared(kind):
        import json

        root = Path(__file__).resolve().parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        return {m["name"]: m["unit"] for m in spec[kind]}

    def test_end_to_end_metrics_match(self):
        import time

        from flickbench import run

        w = MigrateLoop(iterations=10)
        units = []
        metrics, _ = run.end_to_end(harness, w, SEED, 0.0, time.perf_counter(), units)
        assert {k: m["unit"] for k, m in metrics.items()} == self._declared("end_to_end")
        assert sum(u.summary.failed for u in units) == 0

    def test_per_layer_metrics_match(self):
        import time

        from flickbench import run

        w = ServeMixed(requests=8)
        units = []
        metrics, _ = run.per_layer(harness, w, SEED, 0.0, time.perf_counter(), units)
        assert {k: m["unit"] for k, m in metrics.items()} == self._declared("per_layer")
        shares = [m["value"] for k, m in metrics.items() if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)
        assert metrics["core.hosted.self_share"]["value"] == 0.0
        assert sum(u.summary.failed for u in units) == 0
