"""Multi-NxP topology (docs/FLEET.md).

Three invariants anchor the fleet layer:

1. **Single-device parity** — ``nxp_count=1`` is a fleet of one, and
   ``nxp_count=2`` with the static policy routes every session to
   device 0 over device 0's ring/DMA/vector, so both must produce
   bit-identical timing and stats (modulo the placement sidecar
   counters).
2. **Distribution** — non-static policies actually spread outermost
   sessions across devices, and draining a device excludes it from new
   placements.
3. **Kill semantics** — ``kill_nxp`` validates its preconditions, an
   abrupt mid-run kill of one device is fully recovered by the hardened
   protocol (the chaos kill case survives with the correct retval), and
   a killed lone device degrades to host fallback or is revived.
"""

import pytest

from repro.analysis.chaos import run_multi_nxp_kill_case
from repro.core.config import FlickConfig
from repro.core.hosted import HostedMachine, HostedProgram
from repro.core.machine import FlickMachine
from repro.interconnect.interrupt import MIGRATION_VECTOR
from repro.sim.faults import FaultRule

BUMP_LOOP = """
@nxp func bump(x) { return x + 3; }
func main(n) {
    var acc = 5;
    var i = 0;
    while (i < n) { acc = bump(acc); i = i + 1; }
    return acc;
}
"""

#: Armed-but-quiet plan: hardens the protocol without ever firing.
QUIET = (FaultRule("dma_drop", after_ns=1e18, count=None),)


def _run(cfg, iters=4):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(BUMP_LOOP, args=[iters])
    return machine, outcome


def _strip_placement(stats):
    return {k: v for k, v in stats.items() if not k.startswith("placement.")}


class TestSingleDeviceParity:
    def test_two_device_static_matches_single(self):
        _, single = _run(FlickConfig())
        _, dual = _run(FlickConfig(nxp_count=2, placement_policy="static"))
        assert dual.retval == single.retval == 17
        assert dual.sim_time_ns == single.sim_time_ns
        assert _strip_placement(dual.stats) == _strip_placement(single.stats)

    def test_parity_holds_under_hardened_protocol(self):
        _, single = _run(FlickConfig(faults=QUIET))
        _, dual = _run(FlickConfig(faults=QUIET, nxp_count=2))
        assert dual.retval == single.retval == 17
        assert dual.sim_time_ns == single.sim_time_ns

    def test_hosted_parity(self):
        def outcome(cfg):
            prog = HostedProgram()

            def bump(ctx, x):
                ctx.compute(10)
                yield from ctx.maybe_flush()
                return x + 3

            def main(ctx, n):
                acc = 5
                for _ in range(n):
                    acc = yield from ctx.call("bump", acc)
                return acc

            prog.register("bump", "nisa", bump)
            prog.register("main", "hisa", main)
            return HostedMachine(prog, cfg=cfg).run("main", [4])

        single = outcome(FlickConfig())
        dual = outcome(FlickConfig(nxp_count=2, placement_policy="round_robin"))
        assert dual.retval == single.retval == 17
        assert dual.sim_time_ns == single.sim_time_ns


class TestTopology:
    def test_per_device_resources(self):
        machine = FlickMachine(FlickConfig(nxp_count=4))
        assert len(machine.devices) == 4
        mm = machine.memory_map
        spans = []
        for i, dev in enumerate(machine.devices):
            assert dev.index == i
            assert dev.vector == MIGRATION_VECTOR + i
            assert dev.dma is not machine.devices[(i + 1) % 4].dma
            lo, hi = dev.bram.base, dev.bram.base + dev.bram.size
            assert mm.nxp_bram_base <= lo < hi <= mm.nxp_bram_base + mm.nxp_bram_size
            spans.append((lo, hi))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
            assert hi_a <= lo_b  # slices are disjoint and ordered

    def test_device_zero_aliases_machine_singletons(self):
        machine = FlickMachine(FlickConfig(nxp_count=2))
        dev0 = machine.devices[0]
        assert machine.dma is dev0.dma
        assert machine.nxp_ring is dev0.nxp_ring
        assert machine.host_ring is dev0.host_ring
        assert machine.bram_phys is dev0.bram
        assert machine.nxp is dev0.platform

    def test_single_machine_is_a_fleet_of_one(self):
        machine = FlickMachine()
        (dev0,) = machine.devices
        assert dev0.vector == MIGRATION_VECTOR
        assert dev0.dma is machine.dma
        assert machine.nxp is dev0.platform
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        assert machine.placement.session_counts() == {0: 4}

    def test_nxp_count_validated(self):
        with pytest.raises(ValueError, match="nxp_count"):
            FlickMachine(FlickConfig(nxp_count=0))


class TestDistribution:
    def test_round_robin_spreads_sessions(self):
        # Each bump() call is its own outermost session, so four
        # iterations on four devices land one session per device.
        machine, outcome = _run(
            FlickConfig(nxp_count=4, placement_policy="round_robin")
        )
        assert outcome.retval == 17
        counts = machine.placement.session_counts()
        assert sum(counts.values()) == 4
        assert all(counts.get(i, 0) == 1 for i in range(4))

    def test_static_pins_device_zero(self):
        machine, _ = _run(FlickConfig(nxp_count=2, placement_policy="static"))
        counts = machine.placement.session_counts()
        assert counts.get(0, 0) == 4 and counts.get(1, 0) == 0

    def test_drained_device_excluded_from_new_sessions(self):
        machine = FlickMachine(
            FlickConfig(nxp_count=2, placement_policy="round_robin")
        )
        machine.kill_nxp(0, mode="drain")
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        counts = machine.placement.session_counts()
        assert counts.get(0, 0) == 0 and counts.get(1, 0) == 4


class TestKillSemantics:
    def test_drain_kill_on_single_device_degrades(self):
        machine = FlickMachine()
        machine.kill_nxp(0, mode="drain")
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        assert outcome.degraded
        assert machine.placement.counters.get("placement.exhausted") == 4

    def test_abrupt_kill_on_single_device_degrades(self):
        machine = FlickMachine(FlickConfig(faults=QUIET))

        def killer(sim):
            yield sim.timeout(5_000.0)  # before the first opening leg lands
            machine.kill_nxp(0, mode="abrupt")

        machine.sim.spawn(killer(machine.sim), name="killer")
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        assert outcome.stats["degraded.calls"] == 4
        # The stranded leg's watchdog trips once; the device is already
        # latched DEAD, so the retry loop stops instead of resending.
        assert outcome.stats["migration.watchdog_trip"] == 1
        assert machine.devices[0].health.dead

    def test_revive_single_device_readmits_through_probes(self):
        machine = FlickMachine(FlickConfig(faults=QUIET, nxp_recovery=True))
        (dev,) = machine.devices
        machine.kill_nxp(0, mode="abrupt")
        assert not dev.alive and not dev.probe_ready
        machine.revive_nxp(0)
        assert dev.probe_ready
        outcome = machine.run_program(BUMP_LOOP, args=[4])
        assert outcome.retval == 17
        assert not outcome.degraded
        assert machine.placement.counters.get("placement.probe", 0) > 0

    def test_abrupt_kill_requires_hardened_protocol(self):
        machine = FlickMachine(FlickConfig(nxp_count=2))
        with pytest.raises(ValueError, match="hardened"):
            machine.kill_nxp(0, mode="abrupt")

    def test_unknown_mode_rejected(self):
        machine = FlickMachine(FlickConfig(nxp_count=2))
        with pytest.raises(ValueError, match="kill mode"):
            machine.kill_nxp(0, mode="gently")

    def test_abrupt_kill_mid_run_is_recovered(self):
        result = run_multi_nxp_kill_case(kill_mode="abrupt")
        assert result.verdict == "survived", result.detail
        assert result.retval == result.expected == 12
        assert result.degraded_calls == 0

    def test_drain_kill_mid_run_completes_in_flight(self):
        result = run_multi_nxp_kill_case(kill_mode="drain")
        assert result.verdict == "survived", result.detail
        assert result.retval == result.expected == 12

    def test_kill_case_validates_topology(self):
        with pytest.raises(ValueError):
            run_multi_nxp_kill_case(nxps=1)


class TestHostedDevices:
    """Each hosted device has its own NxP hardware state, as each
    interpreted device does."""

    @staticmethod
    def _load_host_page_four_times(cfg):
        from repro.os.loader import HOST_HEAP_VBASE

        prog = HostedProgram()

        def peek(ctx):
            value = ctx.load(HOST_HEAP_VBASE)
            yield from ctx.flush()
            return value

        def main(ctx):
            for _ in range(4):
                yield from ctx.call("peek")
            return 0

        prog.register("peek", "nisa", peek)
        prog.register("main", "hisa", main)
        hosted = HostedMachine(prog, cfg=cfg)
        outcome = hosted.run("main")
        return hosted, outcome.stats

    def test_dtlb_is_per_device(self):
        _, single = self._load_host_page_four_times(FlickConfig())
        assert (single["hosted.nxp.dtlb.miss"], single["hosted.nxp.dtlb.hit"]) == (1, 3)
        hosted, dual = self._load_host_page_four_times(
            FlickConfig(nxp_count=2, placement_policy="round_robin")
        )
        assert hosted.machine.placement.session_counts() == {0: 2, 1: 2}
        # Device 1's first load walks: it cannot hit on device 0's walk.
        assert (dual["hosted.nxp.dtlb.miss"], dual["hosted.nxp.dtlb.hit"]) == (2, 2)
