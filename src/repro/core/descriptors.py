"""Migration descriptors — the wire format of an ISA-crossing call.

Section IV-B: the ioctl() packages the target address, arguments, PTBR
(CR3), PID and the thread's NxP stack pointer into a *call descriptor*;
the whole descriptor crosses PCIe in **one DMA burst** (128 bytes).
Return descriptors carry the return value back; an *exit* descriptor is
the NxP-to-host return leg of NISA code that called ``exit(v)`` (``v``
in the return-value word), asking the host handler to end the thread.

Layout (little-endian, 16 x u64 = 128 bytes):

======  =====================================================
word 0  magic (0x464C4943 "FLIC") | kind << 32 | direction << 40
word 1  pid
word 2  target address (calls) / 0
word 3  return value (returns) / 0
word 4  argc
word 5..10  args[0..5]
word 11 CR3 (page-table base the NxP MMU must use)
word 12 NxP stack pointer (current, for context switch-in)
word 13 sequence number (hardened protocol: retransmit dedup/replay)
word 14 reserved
word 15 checksum (u64 sum of words 0..14)
======  =====================================================

The checksum is verified on every :meth:`MigrationDescriptor.unpack`;
a mismatch (or bad magic / out-of-range argc) raises
:class:`repro.core.errors.DescriptorCorrupt`, which the hardened
receive paths catch to discard the descriptor and let the sender's
watchdog retransmit it.  ``DescriptorCorrupt`` subclasses
``ValueError``, so pre-hardening callers are unaffected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.core.errors import DescriptorCorrupt

__all__ = ["MigrationDescriptor", "KIND_CALL", "KIND_RETURN", "KIND_EXIT",
           "DIR_H2N", "DIR_N2H", "DESCRIPTOR_BYTES"]

MAGIC = 0x464C4943  # "FLIC"
KIND_CALL = 1
KIND_RETURN = 2
KIND_EXIT = 3
DIR_H2N = 1  # host -> NxP
DIR_N2H = 2  # NxP -> host

DESCRIPTOR_BYTES = 128
_MAX_ARGS = 6
_U64 = (1 << 64) - 1


@dataclass
class MigrationDescriptor:
    kind: int
    direction: int
    pid: int
    target: int = 0
    retval: int = 0
    args: List[int] = field(default_factory=list)
    cr3: int = 0
    nxp_sp: int = 0
    seq: int = 0  # hardened-protocol sequence number (0 when unarmed)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_CALL, KIND_RETURN, KIND_EXIT):
            raise ValueError(f"bad descriptor kind {self.kind}")
        if self.direction not in (DIR_H2N, DIR_N2H):
            raise ValueError(f"bad descriptor direction {self.direction}")
        if len(self.args) > _MAX_ARGS:
            raise ValueError(f"descriptors carry at most {_MAX_ARGS} args")

    @property
    def is_call(self) -> bool:
        return self.kind == KIND_CALL

    @property
    def is_return(self) -> bool:
        return self.kind == KIND_RETURN

    @property
    def is_exit(self) -> bool:
        return self.kind == KIND_EXIT

    def pack(self) -> bytes:
        words = [0] * 16
        words[0] = MAGIC | (self.kind << 32) | (self.direction << 40)
        words[1] = self.pid & _U64
        words[2] = self.target & _U64
        words[3] = self.retval & _U64
        words[4] = len(self.args)
        for i, arg in enumerate(self.args):
            words[5 + i] = arg & _U64
        words[11] = self.cr3 & _U64
        words[12] = self.nxp_sp & _U64
        words[13] = self.seq & _U64
        words[15] = sum(words[:15]) & _U64
        return struct.pack("<16Q", *words)

    @classmethod
    def unpack(cls, raw: bytes) -> "MigrationDescriptor":
        if len(raw) < DESCRIPTOR_BYTES:
            raise DescriptorCorrupt(f"descriptor too short: {len(raw)} bytes")
        words = struct.unpack("<16Q", raw[:DESCRIPTOR_BYTES])
        if sum(words[:15]) & _U64 != words[15]:
            raise DescriptorCorrupt(
                f"descriptor checksum mismatch (stored {words[15]:#x})"
            )
        if words[0] & 0xFFFF_FFFF != MAGIC:
            raise DescriptorCorrupt(f"bad descriptor magic {words[0]:#x}")
        kind = (words[0] >> 32) & 0xFF
        direction = (words[0] >> 40) & 0xFF
        argc = words[4]
        if argc > _MAX_ARGS:
            raise DescriptorCorrupt(f"descriptor argc {argc} out of range")
        return cls(
            kind=kind,
            direction=direction,
            pid=words[1],
            target=words[2],
            retval=words[3],
            args=list(words[5 : 5 + argc]),
            cr3=words[11],
            nxp_sp=words[12],
            seq=words[13],
        )
