"""Tests for hosted (timing-model) execution mode."""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.hosted import HostedMachine, HostedProgram
from repro.os.loader import NXP_WINDOW_VBASE


def nop_program():
    prog = HostedProgram()

    @prog.nxp()
    def remote_nop(ctx):
        return 0
        yield

    @prog.host()
    def local_nop(ctx):
        return 0
        yield

    @prog.host()
    def main(ctx, n, remote):
        name = "remote_nop" if remote else "local_nop"
        for _ in range(n):
            yield from ctx.call(name)
        return 0

    return prog


class TestBasics:
    def test_host_only_call(self):
        prog = HostedProgram()

        @prog.host()
        def helper(ctx, x):
            ctx.compute(10)
            return x * 2
            yield

        @prog.host()
        def main(ctx, x):
            v = yield from ctx.call("helper", x)
            return v + 1

        out = HostedMachine(prog).run("main", [20])
        assert out.retval == 41

    def test_cross_isa_call_returns_value(self):
        prog = HostedProgram()

        @prog.nxp()
        def dev(ctx, x):
            return x + 100
            yield

        @prog.host()
        def main(ctx, x):
            return (yield from ctx.call("dev", x))

        out = HostedMachine(prog).run("main", [5])
        assert out.retval == 105

    def test_nxp_calls_host_back(self):
        prog = HostedProgram()

        @prog.host()
        def host_helper(ctx, x):
            return x * 10
            yield

        @prog.nxp()
        def dev(ctx, x):
            v = yield from ctx.call("host_helper", x + 1)
            return v + 2

        @prog.host()
        def main(ctx, x):
            return (yield from ctx.call("dev", x))

        out = HostedMachine(prog).run("main", [3])
        assert out.retval == 42

    def test_nested_bidirectional(self):
        prog = HostedProgram()

        @prog.nxp()
        def inner_dev(ctx, x):
            return x + 1
            yield

        @prog.host()
        def middle_host(ctx, x):
            v = yield from ctx.call("inner_dev", x)
            return v * 2

        @prog.nxp()
        def outer_dev(ctx, x):
            v = yield from ctx.call("middle_host", x)
            return v + 10

        @prog.host()
        def main(ctx, x):
            return (yield from ctx.call("outer_dev", x))

        out = HostedMachine(prog).run("main", [3])
        assert out.retval == (3 + 1) * 2 + 10

    def test_memory_roundtrip_through_simulated_ram(self):
        prog = HostedProgram()

        @prog.nxp()
        def dev_write(ctx, addr, v):
            ctx.store(addr, v)
            return 0
            yield

        @prog.host()
        def main(ctx, addr):
            yield from ctx.call("dev_write", addr, 1234)
            return ctx.load(addr)

        hosted = HostedMachine(prog)
        buf = hosted.process.nxp_heap.alloc(64)
        out = hosted.run("main", [buf])
        assert out.retval == 1234

    def test_entry_must_be_host(self):
        prog = HostedProgram()

        @prog.nxp()
        def dev(ctx):
            return 0
            yield

        with pytest.raises(ValueError):
            HostedMachine(prog).run("dev")

    def test_duplicate_function_rejected(self):
        prog = HostedProgram()
        prog.register("x", "hisa", lambda ctx: None)
        with pytest.raises(ValueError):
            prog.register("x", "nisa", lambda ctx: None)


class TestTimingFidelity:
    def _roundtrip(self, remote, calls=50):
        prog = nop_program()
        hosted = HostedMachine(prog)
        hosted.run("main", [3, remote])  # warmup
        out = hosted.run("main", [calls, remote])
        return out.sim_time_ns / calls

    def test_parity_with_interpreted_mode(self):
        """Hosted null-call RT must match the interpreted measurement
        within the interpreted callee's own execution cost."""
        from repro.workloads.null_call import measure_h2n_roundtrip

        hosted_rt = self._roundtrip(remote=1) - self._roundtrip(remote=0)
        interp_rt = measure_h2n_roundtrip(calls=50).roundtrip_ns
        assert hosted_rt == pytest.approx(interp_rt, rel=0.05)

    def test_migration_dominates_local_call(self):
        assert self._roundtrip(remote=1) > 20 * self._roundtrip(remote=0)

    def test_injected_overhead_applies(self):
        prog = nop_program()
        cfg = DEFAULT_CONFIG.with_overrides(injected_migration_rt_ns=500_000.0)
        hosted = HostedMachine(prog, cfg=cfg)
        hosted.run("main", [1, 1])
        t0 = hosted.sim.now
        out = hosted.run("main", [10, 1])
        per_call = out.sim_time_ns / 10
        assert per_call > 500_000

    def test_nxp_memory_latency_local_vs_host(self):
        """NxP loads: local DRAM ~267ns, host DRAM ~810ns (plus TLB)."""
        prog = HostedProgram()

        def scan(ctx, addr, n):
            for i in range(n):
                ctx.load(addr + 8 * (i % 4))  # few pages -> TLB hits
                yield from ctx.maybe_flush()
            return 0

        prog.register("scan", "nisa", scan)

        @prog.host()
        def main(ctx, addr, n):
            return (yield from ctx.call("scan", addr, n))

        hosted = HostedMachine(prog)
        local_buf = hosted.process.nxp_heap.alloc(4096)
        host_buf = hosted.process.host_heap.alloc(4096)

        hosted.run("main", [local_buf, 10])  # warmup
        t_local = hosted.run("main", [local_buf, 1000]).sim_time_ns
        t_host = hosted.run("main", [host_buf, 1000]).sim_time_ns
        per_local = (t_local - 20000) / 1000  # subtract ~1 migration RT
        per_host = (t_host - 20000) / 1000
        assert per_host > 2 * per_local

    def test_host_access_to_nxp_window_costs_825ns(self):
        prog = HostedProgram()

        @prog.host()
        def main(ctx, addr, n):
            for i in range(n):
                ctx.load(addr)
            yield from ctx.flush()
            return 0

        hosted = HostedMachine(prog)
        buf = hosted.process.nxp_heap.alloc(64)
        out = hosted.run("main", [buf, 1000])
        per_access = out.sim_time_ns / 1000
        assert per_access == pytest.approx(825, rel=0.02)

    def test_hosted_tlb_capacity_effects(self):
        """Touching more 2MB stack pages than TLB entries causes misses
        (checked via the machine stats of the hosted NxP D-TLB)."""
        prog = HostedProgram()

        def wide_scan(ctx, base, pages):
            for i in range(pages):
                ctx.load(base + i * (2 << 20))
            return 0
            yield  # pragma: no cover

        prog.register("wide_scan", "nisa", wide_scan)

        @prog.host()
        def main(ctx, base, pages):
            return (yield from ctx.call("wide_scan", base, pages))

        from repro.os.loader import NXP_STACK_VBASE

        hosted = HostedMachine(prog)
        hosted.run("main", [NXP_STACK_VBASE, 8])
        misses_first = hosted.machine.stats.get("hosted.nxp.dtlb.miss")
        assert misses_first >= 8  # each distinct 2MB page walks once


class TestPlatformConstruction:
    """Each device's platform is built once, by the back-end that runs
    it: a hosted machine never builds the interpreted NxP core."""

    def test_hosted_machine_builds_no_interpreter(self, monkeypatch):
        import repro.isa.interpreter as interpreter

        built = []
        real_init = interpreter.Interpreter.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(interpreter.Interpreter, "__init__", counting_init)
        hosted = HostedMachine(nop_program(), cfg=DEFAULT_CONFIG)
        assert hosted.run("main", [3, 1]).retval == 0
        assert built == []
        machine = hosted.machine
        assert machine.nxp is machine.devices[0].platform
        assert type(machine.nxp).__name__ == "_HostedNxpEngine"

    def test_interpreted_machine_builds_its_platform_on_spawn(self):
        from repro.core.machine import FlickMachine
        from repro.core.nxp_platform import NxpPlatform

        machine = FlickMachine()
        assert machine.nxp is machine.devices[0].platform is None
        outcome = machine.run_program(
            "@nxp func f(x) { return x + 1; } func main(x) { return f(x); }", args=[41]
        )
        assert outcome.retval == 42
        assert isinstance(machine.nxp, NxpPlatform)
        assert machine.nxp is machine.devices[0].platform
