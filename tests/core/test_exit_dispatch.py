"""Every exit of the interpreted-core dispatcher, on every core.

One generator (``Kernel.run_until_crossing``) steps all three
interpreted cores: a host core running HISA, the NxP core running NISA,
and the host-side NISA emulator that takes over after
``kill_nxp(0, "drain")`` (degraded mode).  It services runtime stubs,
syscalls and lazy-heap minor faults, turns a fetch of the other ISA's
code into a crossing (NX fault; on NISA also a misaligned or illegal
fetch), and crashes the process on anything else.

Each case runs one arm on every core it applies to and checks the
outcome plus the stat or trace record that proves the arm ran there, so
a divergence between the cores shows up as one failing parameter.

Arms no well-formed image reaches are driven with hand-built images
(``repro.toolchain.asm_unit``):

* the NISA misaligned/illegal triggers — the loader maps HISA text
  NX-clear, so a NISA core's inverted-NX check faults before its
  decoder ever sees a misaligned or non-NISA word.  The trigger fires
  only on HISA bytes registered on an NX-set page, which the host
  cannot fetch either, so those runs end in the host's classify crash;
* a host misaligned fetch does not exist (HISA is byte-aligned); the
  host's illegal fetch is a jump into an instruction's immediate bytes.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.config import FlickConfig
from repro.core.descriptors import DIR_H2N, KIND_RETURN, MigrationDescriptor
from repro.core.errors import ProcessCrash
from repro.core.machine import FlickMachine
from repro.memory.paging import PageFault
from repro.sim.engine import SimulationError
from repro.sim.faults import FaultRule
from repro.toolchain.asm_unit import assemble_unit
from repro.toolchain.linker import link

CORES = ("host", "nxp", "fallback")
NISA_CORES = ("nxp", "fallback")


@dataclass
class Run:
    machine: FlickMachine
    process: object
    thread: object
    crash: Optional[ProcessCrash]

    @property
    def stats(self):
        return self.machine.stats.snapshot()

    @property
    def result(self):
        return self.thread.result

    def stat(self, name):
        return self.stats.get(name, 0)

    def crash_isa(self):
        """ISA of the text range holding the crashing instruction."""
        return self.process.isa_at(self.crash.pc)


def _start(machine, process, core, args=()):
    if core == "fallback":
        machine.kill_nxp(0, mode="drain")
    thread = machine.spawn(process, args=list(args))
    crash = None
    try:
        machine.run()
    except SimulationError as exc:
        crash = exc.__cause__
        assert isinstance(crash, ProcessCrash), exc
    return Run(machine, process, thread, crash)


def _flickc(source, core, args=(), setup=None, cfg=None):
    machine = FlickMachine(cfg or FlickConfig())
    process = machine.load(machine.compile(source))
    if setup is not None:
        setup(machine, process)
    return _start(machine, process, core, args=args)


def _asm(hisa, nisa, core, setup=None, args=(), **data):
    machine = FlickMachine()
    obj = assemble_unit(hisa_source=hisa, nisa_source=nisa, **data)
    exe = link([obj], entry_symbol="main", extra_symbols=machine.runtime_symbols)
    process = machine.load(exe)
    if setup is not None:
        setup(machine, process)
    return _start(machine, process, core, args=args)


def _on(core, body, head="", params="a"):
    """``f({params})`` runs ``body`` on ``core``; ``main`` calls it."""
    placement = "" if core == "host" else "@nxp "
    return f"{head}\n{placement}func f({params}) {{ {body} }}\n"


def _call_f(core, body, args=(5,), cfg=None):
    source = _on(core, body) + "func main(a) { return f(a) + 1; }\n"
    return _flickc(source, core, args=args, cfg=cfg)


def _assert_ran_on(run, core):
    """The arm ran on ``core``: the NxP core or the fallback emulator
    executed NISA instructions, or neither did."""
    nxp_inst = run.stat("nxp.core.inst")
    degraded = run.stat("degraded.calls")
    if core == "host":
        assert (nxp_inst, degraded) == (0, 0)
    elif core == "nxp":
        assert nxp_inst > 0 and degraded == 0
    else:
        assert nxp_inst == 0 and degraded == 1


# -- a function finishing ------------------------------------------------------


class TestReturn:
    @pytest.mark.parametrize("core", CORES)
    def test_return_to_runtime(self, core):
        run = _call_f(core, "return a * 3;")
        assert run.crash is None
        assert run.result == 16
        _assert_ran_on(run, core)

    #: HALT ends the function the runtime dispatched with retval 0.  On
    #: the host that function is ``main`` itself; on a NISA core it is
    #: the migrated callee, so ``main`` resumes and adds one.
    HALT_HISA = """
main:
    li rax, 5
    halt
"""
    HALT_NISA = """
dev:
    li a0, 5
    halt
"""
    CALL_DEV = """
main:
    la r10, dev
    call r10
    add rax, 1
    ret
"""

    @pytest.mark.parametrize("core", CORES)
    def test_halt(self, core):
        if core == "host":
            run = _asm(self.HALT_HISA, "", core)
            assert run.result == 0
        else:
            run = _asm(self.CALL_DEV, self.HALT_NISA, core)
            assert run.result == 1
        assert run.crash is None
        _assert_ran_on(run, core)
        if core == "nxp":
            assert run.machine.trace.count("n2h_return") == 1


# -- serviced exits ------------------------------------------------------------


class TestServiced:
    @pytest.mark.parametrize("core", CORES)
    def test_stub(self, core):
        run = _call_f(core, "var p = alloc(16); store(p, a); return load(p);")
        assert run.crash is None
        assert run.result == 6
        stub = "stub.__host_malloc" if core == "host" else "stub.__nxp_malloc"
        assert run.stat(stub) == 1
        _assert_ran_on(run, core)

    @pytest.mark.parametrize("core", CORES)
    def test_print_syscall(self, core):
        run = _call_f(core, "print(a); print(0 - a); return a;")
        assert run.crash is None
        assert run.result == 6
        assert run.process.output == [5, -5]
        _assert_ran_on(run, core)

    @pytest.mark.parametrize("core", CORES)
    def test_exit_syscall_ends_the_thread(self, core):
        # exit(v) ends the thread with code v on every core.  A live NxP
        # cannot end a host thread itself: the exit rides its return leg
        # and the host handler ends the thread.
        run = _call_f(core, "exit(a); return 0;", args=(7,))
        assert run.crash is None
        assert run.result == 7
        assert run.process.exit_code == 7
        assert run.machine.devices[0].outstanding == 0
        assert run.thread.task.nxp_context_stack == []
        _assert_ran_on(run, core)

    def test_exit_rides_the_hardened_protocol(self):
        # With a (never-firing) fault plan armed, the exit descriptor is
        # sequence-stamped and cached for replay like any other answer.
        quiet = FlickConfig(faults=(FaultRule("dma_drop", after_ns=1e18, count=None),))
        run = _call_f("nxp", "exit(a); return 0;", args=(7,), cfg=quiet)
        assert run.crash is None
        assert (run.result, run.process.exit_code) == (7, 7)
        assert run.machine.devices[0].outstanding == 0
        (cached,) = run.machine.nxp._resp_cache.values()
        assert cached.is_exit and cached.retval == 7

    @pytest.mark.parametrize("core", NISA_CORES)
    def test_exit_from_nested_nisa_call(self, core):
        # dev -> host_mid -> inner: inner exits while dev's NxP context
        # is suspended; the thread ends and no suspended context is left.
        source = """
@nxp func inner(x) { exit(x); return x; }
func host_mid(x) { return inner(x) + 1; }
@nxp func dev(x) { return host_mid(x) + 100; }
func main(x) { return dev(x); }
"""
        run = _flickc(source, core, args=(9,))
        assert run.crash is None
        assert (run.result, run.process.exit_code) == (9, 9)
        assert run.machine.devices[0].outstanding == 0
        assert run.thread.task.nxp_context_stack == []

    def test_exit_from_host_code_nested_in_an_nxp_call(self):
        source = """
func host_mid(x) { exit(x); return x; }
@nxp func dev(x) { return host_mid(x) + 100; }
func main(x) { return dev(x); }
"""
        run = _flickc(source, "nxp", args=(4,))
        assert run.crash is None
        assert (run.result, run.process.exit_code) == (4, 4)
        assert run.machine.devices[0].outstanding == 0
        assert run.thread.task.nxp_context_stack == []

    LAZY = "func main() { return f(alloc(64)) + 1; }\n"

    @pytest.mark.parametrize("core", ("host", "fallback"))
    def test_lazy_heap_minor_fault(self, core):
        # The host kernel services the minor fault and the access retries.
        source = _on(core, "store(p, 7); return load(p);", params="p") + self.LAZY
        run = _flickc(source, core, setup=lambda m, p: m.enable_lazy_heap(p))
        assert run.crash is None
        assert run.result == 8
        assert run.stat("kernel.minor_fault") == 1
        _assert_ran_on(run, core)

    def test_lazy_heap_fault_crashes_on_the_nxp(self):
        # The NxP cannot run the host kernel's minor-fault handler:
        # NxP-visible memory must be populated before migration.
        source = _on("nxp", "store(p, 7); return load(p);", params="p") + self.LAZY
        run = _flickc(source, "nxp", setup=lambda m, p: m.enable_lazy_heap(p))
        assert run.crash is not None
        assert run.crash.fault.kind == PageFault.NOT_PRESENT
        assert run.crash_isa() == "nisa"
        assert run.stat("kernel.minor_fault") == 0


# -- crossings -----------------------------------------------------------------

NESTED = """
@nxp func inner(x) { return x * 10; }
func host_mid(x) { return inner(x) + 1; }
@nxp func dev(x) { return host_mid(x) + 100; }
func main() { return dev(2); }
"""


class TestNxCrossing:
    def test_live_nested_call(self):
        # host -> NxP (host NX fault), NxP -> host (NxP NX fault), and
        # back again, pinned bit for bit.
        run = _flickc(NESTED, "nxp")
        assert run.crash is None
        assert run.result == 121
        assert run.machine.sim.now == 72_876.82347670254
        assert run.machine.sim.events_processed == 366
        assert run.stat("nxp.migrate_trigger.nx") == 1
        assert run.machine.trace.count("h2n_call_done") == 2
        assert run.machine.trace.count("n2h_call") == 1

    def test_degraded_nested_call(self):
        # The fallback emulator's NX fault runs host_mid inline.
        run = _flickc(NESTED, "fallback")
        assert run.crash is None
        assert run.result == 121
        assert run.machine.sim.now == 25_968.103046594988
        assert run.machine.sim.events_processed == 172
        assert run.stat("degraded.calls") == 2
        assert run.machine.trace.count("degraded_n2h_call") == 1
        assert run.stat("nxp.core.inst") == 0

    @pytest.mark.parametrize("core", CORES)
    def test_fetch_outside_any_text_crashes(self, core):
        # The kernel's classify hook refuses a fetch target that is no
        # ISA's text.  On the host that target NX-faults; on a NISA core
        # the (inverted-sense) executable data decodes as illegal.
        source = _on(core, "return call_ptr(&g, a);", head="var g = 0;")
        source += "func main(a) { return f(a) + 1; }\n"
        run = _flickc(source, core, args=(5,))
        assert run.crash is not None
        assert "invalid instruction fetch" in run.crash.reason
        _assert_ran_on(run, core)


#: NISA ``dev`` jumps to ``hcode + a0``: HISA bytes (``ret``) in host
#: data, registered as HISA text by :func:`_hisa_in_data`.
JUMP_TO_HCODE = """
dev:
    la t0, hcode
    add t0, t0, a0
    jalr t0
    ret
"""
CALL_DEV_WITH = """
main:
    la r10, dev
    call r10
    ret
"""


def _hisa_in_data(machine, process):
    process.add_exec_range(process.symbols["hcode"], 8, "hisa")


class TestNisaFetchTriggers:
    @pytest.mark.parametrize("core", NISA_CORES)
    @pytest.mark.parametrize("trigger, offset", [("illegal", 0), ("misaligned", 1)])
    def test_trigger_calls_the_host(self, core, trigger, offset):
        run = _asm(
            CALL_DEV_WITH, JUMP_TO_HCODE, core,
            setup=_hisa_in_data, args=(offset,), data={"hcode": 0x53},
        )
        target = run.process.symbols["hcode"] + offset
        if core == "nxp":
            assert run.stat(f"nxp.migrate_trigger.{trigger}") == 1
            (call,) = run.machine.trace.filter("n2h_call")
        else:
            (call,) = run.machine.trace.filter("degraded_n2h_call")
        assert call.attrs["target"] == target
        # The host then refuses to fetch HISA bytes from an NX-set page.
        assert run.crash is not None
        assert run.crash.reason.startswith(f"invalid instruction fetch at {target:#x}")
        assert run.crash.reason.endswith("on hisa)")


# -- crashes -------------------------------------------------------------------


class TestCrash:
    @pytest.mark.parametrize("core", CORES)
    def test_page_fault(self, core):
        run = _call_f(core, "return load(8);")
        assert run.crash is not None
        fault = run.crash.fault
        assert (fault.kind, fault.vaddr) == (PageFault.NOT_PRESENT, 8)
        assert run.crash_isa() == ("hisa" if core == "host" else "nisa")
        _assert_ran_on(run, core)

    @pytest.mark.parametrize("core", CORES)
    def test_isa_fault(self, core):
        run = _call_f(core, "return 100 / (a - 5);")
        assert run.crash is not None
        assert run.crash.fault is None
        assert "division by zero" in run.crash.reason
        assert run.crash_isa() == ("hisa" if core == "host" else "nisa")
        _assert_ran_on(run, core)

    def test_host_illegal_fetch(self):
        # A jump into the immediate bytes of ``li r11, -1`` fetches 0xFF,
        # which no HISA opcode uses.  On HISA that is a crash, not a
        # crossing.
        hisa = """
main:
    la r10, bad
    add r10, 2
    call r10
    ret
bad:
    li r11, -1
    ret
"""
        run = _asm(hisa, "", "host")
        assert run.crash is not None
        assert run.crash.pc == run.process.symbols["bad"] + 2
        assert "illegal" in run.crash.reason
        assert run.stat("nxp.core.inst") == 0

    def test_return_descriptor_without_suspended_context(self):
        # A return descriptor reaching the NxP while the task has no
        # suspended NxP context is a protocol violation the NxP cannot
        # resume from.
        machine = FlickMachine()
        process = machine.load(machine.compile("func main() { return 0; }"))
        thread = machine.spawn(process)
        desc = MigrationDescriptor(
            kind=KIND_RETURN, direction=DIR_H2N, pid=process.pid, cr3=process.cr3
        )
        machine.sim.spawn(machine.nxp._dispatch(thread.task, desc), name="stray-return")
        with pytest.raises(SimulationError) as info:
            machine.run()
        crash = info.value.__cause__
        assert isinstance(crash, ProcessCrash)
        assert crash.reason == "return descriptor with no suspended NxP context"
