"""Byte-accurate memory model: allocations, pointers, the UVA space.

Every :class:`Allocation` owns a numpy ``uint8`` buffer and a globally
unique virtual-address range assigned by its :class:`MemorySpace` (one
space per simulated cluster — a deliberate simplification of per-process
UVA that makes symmetric-address bookkeeping easy to audit in tests).

:class:`Ptr` is ``allocation + offset`` with pointer arithmetic, typed
array views, and bounds-checked raw access.  All data movement in the
simulator ultimately goes through :meth:`Ptr.read` / :meth:`Ptr.write`.
"""

from __future__ import annotations

import enum
import mmap
from typing import Optional

import numpy as np

from repro.errors import CudaError


class MemKind(enum.Enum):
    """Which physical memory an allocation lives in."""

    HOST = "host"
    DEVICE = "device"
    #: Host memory exported as a POSIX shared-memory segment (the
    #: paper's intra-node D-H design maps the target host heap this way).
    SHM = "shm"

    @property
    def on_host(self) -> bool:
        return self is not MemKind.DEVICE


class Allocation:
    """A contiguous, byte-backed memory region."""

    __slots__ = ("space", "kind", "node_id", "device_id", "owner", "size", "_data", "base", "freed", "tag")

    def __init__(
        self,
        space: "MemorySpace",
        kind: MemKind,
        size: int,
        node_id: int,
        owner: int,
        device_id: Optional[int] = None,
        base: int = 0,
        tag: str = "",
    ):
        if size <= 0:
            raise CudaError(f"allocation size must be positive, got {size}")
        if kind is MemKind.DEVICE and device_id is None:
            raise CudaError("device allocation requires a device_id")
        self.space = space
        self.kind = kind
        self.size = size
        self.node_id = node_id
        self.device_id = device_id
        self.owner = owner
        self._data: Optional[np.ndarray] = None
        self.base = base
        self.freed = False
        self.tag = tag

    @property
    def data(self) -> np.ndarray:
        """Backing buffer, mapped lazily on first touch.

        Simulated heaps are large (32 MiB symmetric heaps per PE) and
        mostly cold; deferring the mapping until a pointer actually
        reads or writes keeps allocation O(1) without changing observable
        contents — untouched memory still reads back as zeros.

        Each buffer is its own private anonymous mapping rather than a
        malloc'd block: once glibc's dynamic mmap threshold has risen,
        megabyte-sized blocks come from the brk heap, where a live block
        allocated later pins every freed one below it.  A mapping goes
        back to the kernel whole when its last view dies.  Pages are
        private, so reading a cold page maps the shared zero page
        instead of allocating one.
        """
        buf = self._data
        if buf is None:
            mapping = mmap.mmap(-1, self.size, flags=mmap.MAP_PRIVATE)
            buf = self._data = np.frombuffer(mapping, dtype=np.uint8)
        return buf

    def ptr(self, offset: int = 0) -> "Ptr":
        return Ptr(self, offset)

    def contains_va(self, va: int) -> bool:
        return self.base <= va < self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover
        dev = f" gpu{self.device_id}" if self.device_id is not None else ""
        return f"<Allocation {self.kind.value}{dev} n{self.node_id} size={self.size} va=0x{self.base:x}>"


class Ptr:
    """A typed-view-capable pointer into an :class:`Allocation`."""

    __slots__ = ("alloc", "offset")

    def __init__(self, alloc: Allocation, offset: int = 0):
        if not 0 <= offset <= alloc.size:
            raise CudaError(f"pointer offset {offset} outside allocation of {alloc.size} bytes")
        self.alloc = alloc
        self.offset = offset

    # ------------------------------------------------------------ queries
    @property
    def kind(self) -> MemKind:
        """UVA-style query: where does this pointer point?"""
        return self.alloc.kind

    @property
    def node_id(self) -> int:
        return self.alloc.node_id

    @property
    def device_id(self) -> Optional[int]:
        return self.alloc.device_id

    @property
    def va(self) -> int:
        """Virtual address of this pointer."""
        return self.alloc.base + self.offset

    @property
    def remaining(self) -> int:
        """Bytes from here to the end of the allocation."""
        return self.alloc.size - self.offset

    # --------------------------------------------------------- arithmetic
    def __add__(self, nbytes: int) -> "Ptr":
        return Ptr(self.alloc, self.offset + nbytes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ptr)
            and other.alloc is self.alloc
            and other.offset == self.offset
        )

    def __hash__(self) -> int:
        return hash((id(self.alloc), self.offset))

    # ------------------------------------------------------------- access
    def _check(self, nbytes: int) -> None:
        if self.alloc.freed:
            raise CudaError("use-after-free: allocation already released")
        if nbytes < 0:
            raise CudaError(f"negative byte count {nbytes}")
        if self.offset + nbytes > self.alloc.size:
            raise CudaError(
                f"access of {nbytes} bytes at offset {self.offset} overruns "
                f"allocation of {self.alloc.size} bytes"
            )

    def read(self, nbytes: int) -> bytes:
        """Copy ``nbytes`` out as an immutable snapshot."""
        self._check(nbytes)
        return self.alloc.data[self.offset : self.offset + nbytes].tobytes()

    def read_view(self, nbytes: int) -> np.ndarray:
        """Zero-copy read-only view of ``nbytes`` at this pointer.

        Unlike :meth:`read` this does NOT snapshot: the view aliases the
        allocation, so it is only safe while the source is provably
        stable (e.g. a staging slot held until the consuming write
        completes).  The staging/pipeline paths use it to avoid copying
        every chunk twice.
        """
        self._check(nbytes)
        view = self.alloc.data[self.offset : self.offset + nbytes]
        view.flags.writeable = False
        return view

    def snapshot(self, nbytes: int) -> np.ndarray:
        """Like :meth:`read` but returns a uint8 ndarray copy.

        The data-movement hot paths snapshot sources at issue time and
        write destinations at completion; an ndarray round-trips into
        :meth:`write` without the ``bytes`` ⇄ array conversions.
        """
        self._check(nbytes)
        return self.alloc.data[self.offset : self.offset + nbytes].copy()

    def write(self, payload) -> None:
        """Write raw bytes (``bytes``/``memoryview``/uint8 ndarray) here."""
        n = len(payload)
        self._check(n)
        if isinstance(payload, np.ndarray):
            self.alloc.data[self.offset : self.offset + n] = payload
        else:
            self.alloc.data[self.offset : self.offset + n] = np.frombuffer(payload, dtype=np.uint8)

    def as_array(self, dtype, count: Optional[int] = None) -> np.ndarray:
        """A mutable numpy view (used by compute kernels and tests)."""
        dtype = np.dtype(dtype)
        if count is None:
            count = self.remaining // dtype.itemsize
        nbytes = count * dtype.itemsize
        self._check(nbytes)
        return self.alloc.data[self.offset : self.offset + nbytes].view(dtype)

    def fill(self, value: int, nbytes: Optional[int] = None) -> None:
        """memset equivalent."""
        if nbytes is None:
            nbytes = self.remaining
        self._check(nbytes)
        self.alloc.data[self.offset : self.offset + nbytes] = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Ptr {self.alloc.kind.value} va=0x{self.va:x} (+{self.offset})>"


class MemorySpace:
    """Cluster-wide virtual-address authority and allocation registry."""

    #: Leave a guard gap between allocations so adjacent-range bugs
    #: surface as lookup failures rather than silent corruption.
    GUARD = 4096

    def __init__(self) -> None:
        self._next_va = 0x7F00_0000_0000
        self._allocs: list = []

    def allocate(
        self,
        kind: MemKind,
        size: int,
        *,
        node_id: int,
        owner: int,
        device_id: Optional[int] = None,
        tag: str = "",
    ) -> Allocation:
        alloc = Allocation(
            self, kind, size, node_id, owner, device_id=device_id, base=self._next_va, tag=tag
        )
        self._next_va += size + self.GUARD
        self._allocs.append(alloc)
        return alloc

    def free(self, alloc: Allocation) -> None:
        if alloc.freed:
            raise CudaError("double free")
        alloc.freed = True

    def resolve(self, va: int) -> Ptr:
        """Reverse-map a virtual address to a live pointer."""
        for alloc in self._allocs:
            if not alloc.freed and alloc.contains_va(va):
                return alloc.ptr(va - alloc.base)
        raise CudaError(f"virtual address 0x{va:x} does not map to a live allocation")

    def live_bytes(self, kind: Optional[MemKind] = None) -> int:
        return sum(a.size for a in self._allocs if not a.freed and (kind is None or a.kind is kind))
