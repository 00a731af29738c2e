"""Simulator layers and host self-time attribution.

A *layer* is a named group of ``repro`` modules.  Every module under
``src/repro`` belongs to exactly one layer (``test_layer_map_is_complete``
fails when a new module is left out).  :func:`self_shares` turns a
:mod:`cProfile` profile of one timed window into each layer's share of
host self time.

Builtins, the standard library and third-party code (numpy) have no layer
of their own: their self time is charged to the repo layer that called
them, split over callers in proportion to the cumulative time each call
edge carried.  Frames that reach no repo caller (the benchmark's own
code, the profiler's entry frames) land in ``unattributed``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple

#: Layer name -> the ``repro`` modules it owns (package ``__init__`` files
#: appear under their package name).
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("repro.sim", "repro.sim.engine", "repro.sim.faults"),
    "sim.stats": ("repro.sim.stats",),
    "isa.interpreter": (
        "repro.isa",
        "repro.isa.base",
        "repro.isa.hisa",
        "repro.isa.interpreter",
        "repro.isa.nisa",
    ),
    "isa.jit": ("repro.isa.jit",),
    "memory": (
        "repro.memory",
        "repro.memory.allocator",
        "repro.memory.cache",
        "repro.memory.mmu",
        "repro.memory.paging",
        "repro.memory.physical",
        "repro.memory.tlb",
    ),
    "core.ports": ("repro.core.ports",),
    "core.protocol": (
        "repro.core.descriptors",
        "repro.core.errors",
        "repro.core.health",
        "repro.core.host_runtime",
        "repro.core.nxp_device",
        "repro.core.nxp_platform",
        "repro.core.stubs",
    ),
    "core.hosted": ("repro.core.hosted",),
    "core.trace": ("repro.core.trace",),
    "interconnect": (
        "repro.interconnect",
        "repro.interconnect.dma",
        "repro.interconnect.interrupt",
        "repro.interconnect.pcie",
    ),
    "os": (
        "repro.os",
        "repro.os.demand_paging",
        "repro.os.kernel",
        "repro.os.loader",
        "repro.os.module",
        "repro.os.placement",
        "repro.os.scheduler",
        "repro.os.task",
    ),
    "toolchain": (
        "repro.isa.assembler",
        "repro.isa.disasm",
        "repro.toolchain",
        "repro.toolchain.asm_unit",
        "repro.toolchain.felf",
        "repro.toolchain.flickc",
        "repro.toolchain.flickc.ast_nodes",
        "repro.toolchain.flickc.codegen",
        "repro.toolchain.flickc.driver",
        "repro.toolchain.flickc.lexer",
        "repro.toolchain.flickc.optimizer",
        "repro.toolchain.flickc.parser",
        "repro.toolchain.linker",
    ),
    "analysis": (
        "repro.analysis",
        "repro.analysis.breakdown",
        "repro.analysis.chaos",
        "repro.analysis.critical_path",
        "repro.analysis.energy",
        "repro.analysis.export",
        "repro.analysis.figures",
        "repro.analysis.fleet",
        "repro.analysis.metrics",
        "repro.analysis.regression",
        "repro.analysis.serving",
        "repro.analysis.simspeed",
        "repro.analysis.slo",
        "repro.analysis.sweep",
        "repro.analysis.tables",
        "repro.tools",
        "repro.tools.cli",
    ),
    "workloads": (
        "repro.baselines",
        "repro.baselines.direct",
        "repro.baselines.offload",
        "repro.baselines.slow_migration",
        "repro.workloads",
        "repro.workloads.bfs",
        "repro.workloads.graphs",
        "repro.workloads.kv_filter",
        "repro.workloads.null_call",
        "repro.workloads.pointer_chase",
        "repro.workloads.serving_profiles",
    ),
    # Machine assembly, the config record and package roots belong to no
    # single layer; the benchmark's own frames are charged here too.
    "unattributed": (
        "repro",
        "repro.__main__",
        "repro.core",
        "repro.core.config",
        "repro.core.machine",
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)

MODULE_LAYER: Dict[str, str] = {
    module: layer for layer, modules in LAYER_MODULES.items() for module in modules
}


def repro_modules(src_dir: Path) -> List[str]:
    """Dotted names of every module under ``src_dir/repro``."""
    names = []
    for path in sorted((src_dir / "repro").rglob("*.py")):
        parts = list(path.relative_to(src_dir).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def unmapped_modules(src_dir: Path) -> List[str]:
    """Modules under ``src_dir/repro`` that no layer owns."""
    return [m for m in repro_modules(src_dir) if m not in MODULE_LAYER]


def doubly_mapped_modules() -> List[str]:
    """Modules that more than one layer claims."""
    seen: Dict[str, int] = {}
    for modules in LAYER_MODULES.values():
        for module in modules:
            seen[module] = seen.get(module, 0) + 1
    return sorted(m for m, n in seen.items() if n > 1)


class LayerResolver:
    """Maps a profiled code location to its layer (or None if not repo code)."""

    def __init__(self, src_dir: Path):
        self._root = str(src_dir.resolve()) + os.sep
        self._cache: Dict[str, object] = {}

    def layer_of_file(self, filename: str):
        if filename in self._cache:
            return self._cache[filename]
        layer = None
        full = os.path.abspath(filename)
        if full.startswith(self._root) and full.endswith(".py"):
            parts = full[len(self._root):-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            module = ".".join(parts)
            layer = MODULE_LAYER.get(module, "unattributed")
        self._cache[filename] = layer
        return layer


def self_shares(stats: dict, resolver: LayerResolver) -> Dict[str, float]:
    """Each layer's share of host self time in a ``pstats.Stats.stats`` dict.

    Returns a share for every name in :data:`LAYERS`; the shares sum to 1
    (all zero for an empty profile).
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def distribution(func: tuple, active: frozenset) -> Dict[str, float]:
        """Where ``func``'s time is charged: layer -> fraction."""
        if func in memo:
            return memo[func]
        layer = resolver.layer_of_file(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        weights = {c: edge[3] for c, edge in callers.items() if c not in active}
        total = sum(weights.values())
        if total <= 0.0:
            # No caller with measurable time (or only a recursion cycle):
            # nothing in the repo is responsible for this frame.
            result = {"unattributed": 1.0}
        else:
            result = {}
            inner = active | {func}
            for caller, weight in weights.items():
                for name, frac in distribution(caller, inner).items():
                    result[name] = result.get(name, 0.0) + frac * weight / total
        if not active:
            memo[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        if tottime <= 0.0:
            continue
        for layer, frac in distribution(func, frozenset()).items():
            totals[layer] += tottime * frac
    grand = sum(totals.values())
    if grand <= 0.0:
        return totals
    return {layer: value / grand for layer, value in totals.items()}
