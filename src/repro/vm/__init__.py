"""Simulated virtual-memory subsystem.

Conventional SDSM systems live on ``mprotect`` + SIGSEGV.  A Python
interpreter cannot take real protection faults, so this package simulates
the mechanism: physical frames, per-address-space page tables with
protections, and :class:`ProtectionFault` delivery on privileged access —
enough to express the paper's *atomic page update problem* (§5.1, Figure 4)
and its four solutions (file mapping, System V shared memory, the custom
``mdup()`` syscall, and fork-child page-table copying), plus the racy naive
approach they all replace.
"""

from repro.vm.memory import PhysicalMemory
from repro.vm.addrspace import (
    AddressSpace,
    ProtectionFault,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    PROT_RW,
)
from repro.vm.strategies import (
    UpdateStrategy,
    NaiveInPlaceStrategy,
    FileMappingStrategy,
    SysVShmStrategy,
    MdupStrategy,
    ForkChildStrategy,
    OSProfile,
    LINUX_24,
    AIX_433,
    OS_PROFILES,
    strategy_by_name,
    STRATEGY_NAMES,
)

__all__ = [
    "PhysicalMemory",
    "AddressSpace",
    "ProtectionFault",
    "PROT_NONE",
    "PROT_READ",
    "PROT_WRITE",
    "PROT_RW",
    "UpdateStrategy",
    "NaiveInPlaceStrategy",
    "FileMappingStrategy",
    "SysVShmStrategy",
    "MdupStrategy",
    "ForkChildStrategy",
    "OSProfile",
    "LINUX_24",
    "AIX_433",
    "OS_PROFILES",
    "strategy_by_name",
    "STRATEGY_NAMES",
]
