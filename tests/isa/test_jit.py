"""Superblock lifecycle: hot detection, compilation, invalidation.

Complements tests/core/test_jit_parity.py (the bit-parity matrix) with
white-box checks of the engine itself — when traces appear, how large
they may grow, and that a code-generation move (NX flip, new mapping,
store into registered code) always drops them before another compiled
instruction can run.  The hypothesis test at the bottom fuzzes loop
bodies *and* a mid-run generation bump with zero semantic effect: the
JIT may recompile as often as it likes, but every observable must stay
bit-identical to the interpreter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.isa.jit as jit_module
from repro.analysis.simspeed import COMPUTE_LOOP
from repro.isa.base import IllegalInstruction
from repro.core.config import FlickConfig
from repro.core.machine import FlickMachine
from repro.isa.interpreter import CostModel, Interpreter
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.toolchain.asm_unit import assemble_unit
from repro.toolchain.linker import link

from .conftest import FlatPort


def _host_engine(machine):
    return machine.threads[0].cpu._jit


def _run(source, args, cfg):
    machine = FlickMachine(cfg)
    outcome = machine.run_program(source, args=args)
    return machine, {
        "retval": outcome.retval,
        "sim_ns": outcome.sim_time_ns,
        "stats": outcome.stats,
        "events": machine.sim.events_processed,
    }


class TestHotDetection:
    def test_cold_below_threshold(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig(jit_hot_threshold=10**9))
        assert machine.jit_stats()["jit.compiled_blocks"] == 0

    def test_hot_loop_compiles_once(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig(jit_hot_threshold=5))
        engine = _host_engine(machine)
        assert engine.compiled_blocks == 1
        assert engine.block_exec_total >= 1
        (block,) = engine._blocks.values()
        assert block.loop
        assert block.gen is not None

    def test_threshold_counts_backedges(self):
        # n iterations produce ~n backedges; a threshold above that
        # never compiles, one below it does.  Pins that hotness is
        # per-target backedge counting, not call or instruction counts.
        machine, _ = _run(COMPUTE_LOOP, [30], FlickConfig(jit_hot_threshold=29))
        assert machine.jit_stats()["jit.compiled_blocks"] == 1
        machine, _ = _run(COMPUTE_LOOP, [30], FlickConfig(jit_hot_threshold=31))
        assert machine.jit_stats()["jit.compiled_blocks"] == 0


class TestSuperblockShape:
    def test_max_superblock_bounds_trace(self):
        cfg = FlickConfig(jit_max_superblock=4)
        machine, probe = _run(COMPUTE_LOOP, [120], cfg)
        engine = _host_engine(machine)
        assert engine._blocks  # short traces still compile...
        assert all(len(b.ops) <= 4 for b in engine._blocks.values())
        _, off = _run(COMPUTE_LOOP, [120], FlickConfig(jit_enabled=False))
        assert probe == off  # ...and stay bit-exact

    def test_unsupported_port_disables_tier(self):
        # The tests' FlatPort has neither the host translation-cache
        # contract nor the NxP TLB pipeline: the interpreter must fall
        # back to running without an engine rather than guessing.
        sim = Simulator()
        cpu = Interpreter("hisa", sim, FlatPort(), CostModel(1.0, 1.0), jit=True)
        assert cpu._jit is None


class TestInvalidation:
    def test_decode_cache_flush_drops_blocks(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig())
        engine = _host_engine(machine)
        assert engine._blocks
        machine.threads[0].cpu.invalidate_decode_cache()
        assert not engine._blocks
        assert engine.invalidations == 1
        # An address-space switch is routine, not a bailout.
        assert "switch" not in engine.bailouts

    def test_generation_bump_mid_run_invalidates(self):
        # Run the hot loop, then — from a concurrent simulated process —
        # register a new executable range.  That bumps code_generation
        # with zero semantic effect; every compiled block must be
        # dropped and re-proven before another compiled instruction
        # runs, and the result must still match the interpreter.
        def run(cfg, poke_ns):
            machine = FlickMachine(cfg)
            exe = machine.compile(COMPUTE_LOOP)
            process = machine.load(exe)
            thread = machine.spawn(process, args=[400])

            def poker():
                yield machine.sim.timeout(poke_ns)
                process.page_tables.note_exec_range(0x7000_0000, 0)

            machine.sim.spawn(poker(), name="poker")
            machine.run()
            return machine, thread.result, thread.finished_at

        machine, retval, finished = run(FlickConfig(), poke_ns=5_000.0)
        engine = _host_engine(machine)
        assert engine.compiled_blocks >= 2  # recompiled after the drop
        assert engine.invalidations >= 1
        assert engine.bailouts.get("codegen", 0) >= 1
        off_machine, off_retval, off_finished = run(
            FlickConfig(jit_enabled=False), poke_ns=5_000.0
        )
        assert (retval, finished) == (off_retval, off_finished)

    def test_stale_block_never_survives_bump(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig())
        engine = _host_engine(machine)
        (block,) = engine._blocks.values()
        tables = machine.threads[0].cpu.port.tables
        tables.note_exec_range(0x7000_0000, 0)
        # The entry-point generation check is what step() performs
        # before yielding to a block; a stale block must fail it.
        assert block.gen != machine.threads[0].cpu.port.code_generation


class TestDecodeBailouts:
    """Undecodable bytes are a counted bailout; decoder bugs propagate.

    ``_decode_at`` may legitimately hit bytes it cannot decode (the
    profile steering the JIT at data); that must refuse compilation and
    bump the ``decode_error`` sidecar rather than crash the tier.  But
    the guard is narrow by design: an exception that is *not* an
    architectural decode fault is an interpreter bug and must escape.
    """

    def _hot_engine(self):
        machine, _ = _run(COMPUTE_LOOP, [100], FlickConfig(jit_hot_threshold=5))
        engine = _host_engine(machine)
        (entry,) = list(engine._blocks)
        return engine, entry

    def test_undecodable_bytes_bail_with_sidecar(self, monkeypatch):
        engine, pc = self._hot_engine()

        def refuse(raw, at):
            raise IllegalInstruction(at, raw[0])

        monkeypatch.setattr(jit_module.hisa, "decode", refuse)
        assert engine._decode_at(pc) is None
        assert engine.bailouts.get("decode_error") == 1
        assert engine.counters()["jit.bailouts.decode_error"] == 1

    def test_decoder_bugs_propagate(self, monkeypatch):
        engine, pc = self._hot_engine()

        def crash(raw, at):
            raise TypeError("decoder bug")

        monkeypatch.setattr(jit_module.hisa, "decode", crash)
        with pytest.raises(TypeError):
            engine._decode_at(pc)
        assert "decode_error" not in engine.bailouts


_OPS = st.sampled_from(["+", "-", "*"])


@settings(max_examples=15, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=7),
    b=st.integers(min_value=0, max_value=7),
    op1=_OPS,
    op2=_OPS,
    n=st.integers(min_value=0, max_value=90),
    threshold=st.integers(min_value=1, max_value=40),
    max_superblock=st.integers(min_value=2, max_value=96),
    poke=st.one_of(st.none(), st.floats(min_value=1_000.0, max_value=40_000.0)),
)
def test_randomized_loops_stay_bit_identical(
    a, b, op1, op2, n, threshold, max_superblock, poke
):
    """Property: for randomized loop bodies, iteration counts, JIT
    tunings and an optional mid-run code-generation bump, the tier never
    executes a stale trace and never perturbs any observable."""
    source = f"""
func main(n) {{
    var acc = 1;
    var i = 0;
    while (i < n) {{
        acc = acc {op1} i {op2} {a};
        acc = acc + {b};
        i = i + 1;
    }}
    return acc;
}}
"""

    def run(cfg):
        machine = FlickMachine(cfg)
        exe = machine.compile(source)
        process = machine.load(exe)
        thread = machine.spawn(process, args=[n])
        if poke is not None:

            def poker():
                yield machine.sim.timeout(poke)
                process.page_tables.note_exec_range(0x7000_0000, 0)

            machine.sim.spawn(poker(), name="poker")
        machine.run()
        return (
            thread.result,
            thread.finished_at,
            machine.stats.snapshot(),
            machine.sim.events_processed,
        )

    jit_cfg = FlickConfig(
        jit_hot_threshold=threshold, jit_max_superblock=max_superblock
    )
    assert run(jit_cfg) == run(FlickConfig(jit_enabled=False))


# -- every executor exit, JIT on vs off ---------------------------------------
#
# Each case drives one exit of the superblock executor (fault bails,
# loop restarts, slow memory routes, self-modifying stores, NxP fetch
# misses, code-generation drops) and checks two things: the run is
# bit-identical with the tier on and off, and the sidecar counter that
# proves the exit ran has moved.

NXP_LOOP = """
@nxp func work(n) {
    var acc = 0;
    var i = 0;
    while (i < n) { acc = acc + i * 2; i = i + 1; }
    return acc;
}
func main(n) { return work(n); }
"""

#: Base of the demand-paged heap window ``FlickMachine.enable_lazy_heap``
#: installs: every page starts unmapped, so the first touch faults.
LAZY_HEAP_VBASE = 0x4000_0000_0000

#: Host stack traffic through ``rsp = rdi``: a PUSH/POP pair per
#: iteration, ``rsi`` iterations.
PUSH_POP_LOOP = """
main:
    mov r11, rsp
    mov rsp, rdi
    li rax, 0
    li rcx, 0
loop:
    push rax
    pop rbx
    add rcx, rbx
    add rax, 1
    cmp rax, rsi
    jl loop
    mov rsp, r11
    mov rax, rcx
    ret
"""

#: A do-while inner loop (its backward branch restarts the trace) whose
#: outer loop jumps to code laid out just *before* the entry, so the
#: trace reaches its entry again by falling through (synthetic K_LOOP).
HOST_NESTED_LOOP = """
main:
    li rax, 0
    li rbx, 0
    li rdx, 0
    jmp entry
tail:
    add rbx, 1
entry:
    add rax, 1
    add rdx, 3
    cmp rax, 40
    jl entry
    li rax, 0
    cmp rbx, rdi
    jge done
    jmp tail
done:
    mov rax, rdx
    ret
"""

NXP_NESTED_LOOP = """
dev:
    li t0, 0
    li t1, 0
    li t2, 0
    j entry
tail:
    addi t1, t1, 1
entry:
    addi t0, t0, 1
    addi t2, t2, 3
    li t3, 40
    blt t0, t3, entry
    li t0, 0
    bge t1, a0, done
    j tail
done:
    mov a0, t2
    ret
"""

CALL_DEV = """
main:
    la r10, dev
    call r10
    ret
"""


def _observe(build, cfg):
    """Run ``build(machine)``'s thread to completion (or crash) and
    return the machine plus every parity-pinned observable."""
    machine = FlickMachine(cfg)
    thread = build(machine)
    try:
        machine.run()
        outcome = thread.result
    except SimulationError as exc:
        outcome = type(exc.__cause__ or exc).__name__
    return machine, {
        "outcome": outcome,
        "sim_ns": machine.sim.now,
        "stats": machine.stats.snapshot(),
        "events": machine.sim.events_processed,
    }


def _exits(build, **knobs):
    """JIT on vs off must agree bit for bit; returns the JIT-on run."""
    machine, on = _observe(build, FlickConfig(**knobs))
    _, off = _observe(build, FlickConfig(jit_enabled=False, **knobs))
    assert on == off
    return machine, on


def _flickc(source, args, setup=None):
    def build(machine):
        process = machine.load(machine.compile(source))
        if setup is not None:
            setup(machine, process)
        return machine.spawn(process, args=args)

    return build


def _asm(hisa, nisa="", args=lambda process: (), setup=None, **data):
    def build(machine):
        obj = assemble_unit(hisa_source=hisa, nisa_source=nisa, **data)
        exe = link([obj], entry_symbol="main", extra_symbols=machine.runtime_symbols)
        process = machine.load(exe)
        if setup is not None:
            setup(machine, process)
        return machine.spawn(process, entry="main", args=args(process))

    return build


def _lazy_heap(machine, process):
    machine.enable_lazy_heap(process)


def _code_at(symbol):
    """Setup hook: register ``symbol``'s 8 bytes as executable code, so
    every store to it is a self-modifying store."""

    def setup(machine, process):
        process.page_tables.note_exec_range(process.symbols[symbol], 8)

    return setup


def _poke_at(ns, action):
    """Setup hook: run ``action(machine, process)`` from a concurrent
    simulated process at ``ns``."""

    def setup(machine, process):
        def poker():
            yield machine.sim.timeout(ns)
            action(machine, process)

        machine.sim.spawn(poker(), name="poker")

    return setup


def _bump_codegen(machine, process):
    process.page_tables.note_exec_range(0x7000_0000, 0)


def _loop_shapes(engine):
    ops = [op for block in engine._blocks.values() for op in block.ops]
    restart = any(op[0] == jit_module.K_GUARD and op[5] == jit_module.LOOP_RESTART for op in ops)
    marker = any(op[0] == jit_module.K_LOOP and not op[2] for op in ops)
    return restart, marker


class TestHostExits:
    def test_alu_fault_bails_at_precise_pc(self):
        source = """
func main(n) {
    var i = 0; var s = 0;
    while (i < n) { s = s + 100 / (n - 30 - i); i = i + 1; }
    return s;
}
"""
        machine, on = _exits(_flickc(source, [60]))
        assert on["outcome"] == "ProcessCrash"
        assert machine.jit_stats()["jit.bailouts.fault"] == 1

    def test_guard_restart_and_fallthrough_marker(self):
        machine, on = _exits(_asm(HOST_NESTED_LOOP, args=lambda p: [30]))
        assert on["outcome"] == 31 * 40 * 3
        assert _loop_shapes(_host_engine(machine)) == (True, True)
        stats = machine.jit_stats()
        assert stats["jit.block_exec_total"] == 1
        assert stats["jit.block_inst_total"] > 30 * 40

    def test_codegen_drop_at_loop_restart(self):
        machine, _ = _exits(
            _asm(HOST_NESTED_LOOP, args=lambda p: [30], setup=_poke_at(300.0, _bump_codegen))
        )
        assert machine.jit_stats()["jit.bailouts.codegen"] == 1

    def test_load_and_store_page_faults(self):
        source = """
func main(n) {
    var p = alloc(4096 * n); var i = 0; var s = 0;
    while (i < n) { store(p + i * 4096, i); s = s + load(p + i * 4096 + 8); i = i + 1; }
    return s;
}
"""
        machine, on = _exits(_flickc(source, [60], setup=_lazy_heap))
        assert on["outcome"] == 0
        assert machine.jit_stats()["jit.bailouts.fault"] >= 20

    def test_load_page_fault(self):
        source = """
func main(n) {
    var p = alloc(4096 * n); var i = 0; var s = 0;
    while (i < n) { s = s + load(p + i * 4096 + 8); i = i + 1; }
    return s;
}
"""
        machine, _ = _exits(_flickc(source, [60], setup=_lazy_heap))
        assert machine.jit_stats()["jit.bailouts.fault"] >= 20

    def test_store_write_protect(self):
        source = """
func main(n) {
    var i = 0;
    while (i < n) { if (i == 40) { store(&main, 0); } i = i + 1; }
    return i;
}
"""
        machine, on = _exits(_flickc(source, [60]))
        assert on["outcome"] == "ProcessCrash"
        assert machine.jit_stats()["jit.bailouts.fault"] == 1

    def test_cross_pcie_load_and_store(self):
        source = """
@nxp var g = 0;
func main(n) {
    var i = 0; var s = 0;
    while (i < n) { s = s + load(&g); store(&g, i); i = i + 1; }
    return s;
}
"""
        machine, on = _exits(_flickc(source, [60]))
        assert on["stats"]["host.load_pcie"] >= 60
        assert on["stats"]["host.store_pcie"] >= 60
        assert machine.jit_stats()["jit.block_exec_total"] == 1

    def test_self_modifying_store(self):
        source = """
var h = 0;
func main(n) { var i = 0; while (i < n) { store(&h, i); i = i + 1; } return load(&h); }
"""
        machine, on = _exits(_flickc(source, [60], setup=_code_at("h")))
        assert on["outcome"] == 59
        assert machine.jit_stats()["jit.bailouts.self_modify"] >= 20

    def test_self_modifying_cross_pcie_store(self):
        source = """
@nxp var g = 0;
func main(n) { var i = 0; while (i < n) { store(&g, i); i = i + 1; } return load(&g); }
"""
        machine, _ = _exits(_flickc(source, [60], setup=_code_at("g")))
        assert machine.jit_stats()["jit.bailouts.self_modify"] >= 20

    def test_push_pop_cross_pcie(self):
        build = _asm(
            PUSH_POP_LOOP,
            args=lambda p: [p.symbols["slot"] + 8, 60],
            nxp_data={"slot": 0},
        )
        machine, on = _exits(build)
        assert on["outcome"] == sum(range(60))
        assert on["stats"]["host.load_pcie"] >= 60
        assert on["stats"]["host.store_pcie"] >= 60
        assert machine.jit_stats()["jit.block_exec_total"] == 1

    def test_push_self_modify(self):
        for placement in ("data", "nxp_data"):
            build = _asm(
                PUSH_POP_LOOP,
                args=lambda p: [p.symbols["slot"] + 8, 60],
                setup=_code_at("slot"),
                **{placement: {"slot": 0}},
            )
            machine, _ = _exits(build)
            assert machine.jit_stats()["jit.bailouts.self_modify"] >= 20

    def test_push_page_fault(self):
        walk_down = """
main:
    mov r11, rsp
    mov rsp, rdi
    li rax, 0
loop:
    push rax
    push rax
    sub rsp, 4080
    add rax, 1
    cmp rax, rsi
    jl loop
    mov rsp, r11
    ret
"""
        build = _asm(
            walk_down, args=lambda p: [LAZY_HEAP_VBASE + 4096 * 80, 60], setup=_lazy_heap
        )
        machine, _ = _exits(build)
        assert machine.jit_stats()["jit.bailouts.fault"] >= 20

    def test_pop_page_fault(self):
        walk_up = """
main:
    mov r11, rsp
    mov rsp, rdi
    li rax, 0
    li rcx, 0
loop:
    pop rbx
    add rcx, rbx
    add rsp, 4088
    add rax, 1
    cmp rax, rsi
    jl loop
    mov rsp, r11
    mov rax, rcx
    ret
"""
        build = _asm(walk_up, args=lambda p: [LAZY_HEAP_VBASE, 60], setup=_lazy_heap)
        machine, _ = _exits(build)
        assert machine.jit_stats()["jit.bailouts.fault"] >= 20

    def test_push_write_protect(self):
        # Iteration 30 points the stack into the read-only text page.
        into_text = """
main:
    mov r11, rsp
    la r12, main
    add r12, 256
    li rax, 0
loop:
    push rax
    pop rbx
    cmp rax, 30
    jne skip
    mov rsp, r12
skip:
    add rax, 1
    cmp rax, rdi
    jl loop
    mov rsp, r11
    ret
"""
        machine, on = _exits(_asm(into_text, args=lambda p: [60]))
        assert on["outcome"] == "ProcessCrash"
        assert machine.jit_stats()["jit.bailouts.fault"] == 1


def _nxp_engine(machine):
    return machine.nxp.cpu._jit


class TestNxpExits:
    def test_alu_fault_bails_at_precise_pc(self):
        source = """
@nxp func work(n) {
    var i = 0; var s = 0;
    while (i < n) { s = s + 100 / (n - 30 - i); i = i + 1; }
    return s;
}
func main(n) { return work(n); }
"""
        machine, on = _exits(_flickc(source, [60]))
        assert on["outcome"] == "ProcessCrash"
        assert _nxp_engine(machine).bailouts == {"fault": 1}

    def test_guard_restart_and_fallthrough_marker(self):
        machine, on = _exits(_asm(CALL_DEV, NXP_NESTED_LOOP, args=lambda p: [30]))
        assert on["outcome"] == 31 * 40 * 3
        engine = _nxp_engine(machine)
        assert _loop_shapes(engine) == (True, True)
        assert engine.block_exec_total == 1
        assert engine.block_inst_total > 30 * 40

    def test_codegen_drop_at_loop_close(self):
        for source_build, poke in (
            (lambda s: _flickc(NXP_LOOP, [400], setup=s), 45_000.0),
            (lambda s: _asm(CALL_DEV, NXP_NESTED_LOOP, args=lambda p: [30], setup=s), 40_000.0),
        ):
            machine, _ = _exits(source_build(_poke_at(poke, _bump_codegen)))
            assert _nxp_engine(machine).bailouts.get("codegen") == 1

    def test_local_window_cached_loads_and_stores(self):
        source = """
@nxp var g = 5;
@nxp func work(n) {
    var i = 0; var s = 0;
    while (i < n) { s = s + load(&g); if (i == 7) { s = s + 1; } i = i + 1; }
    while (i < n + n) { s = s + load(&g); store(&g, i); i = i + 1; }
    return s;
}
func main(n) { return work(n); }
"""
        machine, on = _exits(_flickc(source, [60]))
        assert on["stats"]["nxp.dcache.hit"] >= 40
        assert on["stats"]["nxp.dcache.miss"] >= 40
        assert _nxp_engine(machine).block_exec_total == 2

    def test_cross_pcie_load_and_store(self):
        source = """
var h = 0;
@nxp func work(n) {
    var i = 0; var s = 0;
    while (i < n) { s = s + load(&h); store(&h, i); i = i + 1; }
    return s;
}
func main(n) { return work(n); }
"""
        machine, on = _exits(_flickc(source, [60]))
        assert on["stats"]["nxp.load_pcie"] >= 60
        assert on["stats"]["nxp.store_pcie"] >= 60
        assert _nxp_engine(machine).block_exec_total == 1

    def test_self_modifying_stores(self):
        for placement in ("@nxp var", "var"):
            source = f"""
{placement} g = 0;
@nxp func work(n) {{ var i = 0; while (i < n) {{ store(&g, i); i = i + 1; }} return load(&g); }}
func main(n) {{ return work(n); }}
"""
            machine, on = _exits(_flickc(source, [60], setup=_code_at("g")))
            assert on["outcome"] == 59
            assert _nxp_engine(machine).bailouts["self_modify"] >= 20

    def test_trace_falls_off_the_end(self):
        machine, _ = _exits(_flickc(NXP_LOOP, [60]), jit_max_superblock=8)
        engine = _nxp_engine(machine)
        assert engine.block_exec_total > 30
        assert engine.block_inst_total <= 8 * engine.block_exec_total

    def test_icache_miss_inside_block(self):
        machine, on = _exits(
            _flickc(NXP_LOOP, [60]), nxp_icache_lines=4, nxp_icache_line_bytes=16
        )
        assert on["stats"]["nxp.icache.miss"] > 60 * 10
        assert _nxp_engine(machine).block_exec_total == 1

    def test_itlb_miss_inside_block(self):
        # Flush the I-TLB while the trace waits on an I-cache line fill:
        # the next fetch inside the block misses.
        small_icache = {"nxp_icache_lines": 4, "nxp_icache_line_bytes": 16}

        def flush_itlb(machine, process):
            machine.nxp.port.itlb.flush()

        _, quiet = _exits(_flickc(NXP_LOOP, [200]), **small_icache)
        _, poked = _exits(
            _flickc(NXP_LOOP, [200], setup=_poke_at(400_000.0, flush_itlb)), **small_icache
        )
        assert poked["stats"]["nxp.itlb.miss"] == quiet["stats"]["nxp.itlb.miss"] + 1

    def test_dtlb_miss_inside_block(self):
        # A one-entry D-TLB: the BRAM stack spills and the NxP-local
        # global evict each other, so every access walks.
        source = """
@nxp var g = 5;
@nxp func work(n) {
    var i = 0; var s = 0;
    while (i < n) { s = s + load(&g); store(&g, i); i = i + 1; }
    return s;
}
func main(n) { return work(n); }
"""
        machine, on = _exits(_flickc(source, [60]), tlb_entries=1)
        assert on["stats"]["nxp.dtlb.miss"] > 60 * 3
        assert _nxp_engine(machine).block_exec_total == 1

    def test_itlb_miss_at_block_entry(self):
        # A loop straddling two code pages with a one-entry I-TLB: the
        # interpreter re-enters the block with the entry page evicted.
        # The block must walk it itself: bailing before its first
        # instruction hands the interpreter the entry pc, which enters
        # the same block again, forever.
        padding = "\n".join(["    nop"] * 505)
        loop = """
    li t0, 0
    li t2, 0
loop:
    addi t0, t0, 1
""" + "    addi t2, t2, 3\n" * 12 + """
    blt t0, a0, loop
    mov a0, t2
    ret
"""
        build = _asm(CALL_DEV, "dev:\n" + padding + loop, args=lambda p: [60])
        machine, on = _exits(build, tlb_entries=1)
        assert on["outcome"] == 60 * 12 * 3
        assert on["stats"]["nxp.itlb.miss"] > 60
        assert _nxp_engine(machine).block_exec_total == 1
