"""Tests for the byte-accurate memory model."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cuda.memory import Allocation, MemKind, MemorySpace, Ptr
from repro.errors import CudaError


@pytest.fixture
def space():
    return MemorySpace()


def test_allocation_zero_initialized(space):
    a = space.allocate(MemKind.HOST, 64, node_id=0, owner=0)
    assert a.ptr().read(64) == b"\x00" * 64


def test_allocation_positive_size(space):
    with pytest.raises(CudaError):
        space.allocate(MemKind.HOST, 0, node_id=0, owner=0)


def test_device_allocation_requires_device(space):
    with pytest.raises(CudaError):
        Allocation(space, MemKind.DEVICE, 8, node_id=0, owner=0)


def test_ptr_read_write_roundtrip(space):
    a = space.allocate(MemKind.HOST, 32, node_id=0, owner=0)
    p = a.ptr(4)
    p.write(b"hello")
    assert p.read(5) == b"hello"
    assert a.ptr().read(4) == b"\x00" * 4  # preceding bytes untouched


def test_ptr_arithmetic(space):
    a = space.allocate(MemKind.HOST, 16, node_id=0, owner=0)
    p = a.ptr() + 8
    assert p.offset == 8
    assert p.remaining == 8
    assert (p + 4).va == a.base + 12


def test_ptr_bounds_checked(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    with pytest.raises(CudaError):
        a.ptr().read(9)
    with pytest.raises(CudaError):
        a.ptr(8).write(b"x")
    with pytest.raises(CudaError):
        a.ptr(9)
    with pytest.raises(CudaError):
        a.ptr().read(-1)


def test_ptr_equality_and_hash(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    assert a.ptr(4) == a.ptr(4)
    assert a.ptr(4) != a.ptr(5)
    assert len({a.ptr(4), a.ptr(4), a.ptr(5)}) == 2


def test_as_array_is_mutable_view(space):
    a = space.allocate(MemKind.HOST, 32, node_id=0, owner=0)
    arr = a.ptr().as_array(np.float32)
    assert arr.shape == (8,)
    arr[:] = 1.5
    assert np.frombuffer(a.ptr().read(32), dtype=np.float32).tolist() == [1.5] * 8


def test_as_array_count_bounds(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    with pytest.raises(CudaError):
        a.ptr().as_array(np.float64, count=2)


def test_fill(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    a.ptr(2).fill(0xAB, 3)
    assert a.ptr().read(8) == b"\x00\x00\xab\xab\xab\x00\x00\x00"


def test_use_after_free(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    space.free(a)
    with pytest.raises(CudaError):
        a.ptr().read(1)
    with pytest.raises(CudaError):
        space.free(a)  # double free


def test_va_uniqueness_and_resolve(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    b = space.allocate(MemKind.DEVICE, 8, node_id=0, owner=0, device_id=0)
    assert a.base != b.base
    p = space.resolve(b.base + 3)
    assert p.alloc is b and p.offset == 3


def test_resolve_guard_gap(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    with pytest.raises(CudaError):
        space.resolve(a.base + 8)  # one past the end falls into the guard


def test_resolve_freed_allocation(space):
    a = space.allocate(MemKind.HOST, 8, node_id=0, owner=0)
    space.free(a)
    with pytest.raises(CudaError):
        space.resolve(a.base)


def test_live_bytes_accounting(space):
    space.allocate(MemKind.HOST, 100, node_id=0, owner=0)
    d = space.allocate(MemKind.DEVICE, 50, node_id=0, owner=0, device_id=0)
    assert space.live_bytes() == 150
    assert space.live_bytes(MemKind.DEVICE) == 50
    space.free(d)
    assert space.live_bytes() == 100


def test_memkind_on_host():
    assert MemKind.HOST.on_host
    assert MemKind.SHM.on_host
    assert not MemKind.DEVICE.on_host


_RELEASE_PROBE = """
import gc, os
from repro.cuda.memory import Allocation, MemKind, MemorySpace

MiB = 1 << 20
page = os.sysconf("SC_PAGE_SIZE")

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * page

space = MemorySpace()
dead = [Allocation(space, MemKind.HOST, MiB, 0, 0) for _ in range(64)]
for a in dead:
    a.ptr().fill(0x5A)
keep = Allocation(space, MemKind.HOST, MiB, 0, 0)
keep.ptr().fill(0x5A)
before = resident()
del dead, a
gc.collect()
print((before - resident()) / MiB)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="probes glibc's malloc thresholds through /proc/self/statm",
)
def test_freed_buffers_return_to_the_kernel_below_a_live_one():
    """Dead allocations give their pages back even when one allocated
    after them stays alive.  With the mmap threshold raised (as glibc's
    dynamic threshold does after the first large free), heap-backed
    1 MiB buffers would sit on the brk heap below ``keep`` and never be
    trimmed."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}
    proc = subprocess.run(
        [sys.executable, "-c", _RELEASE_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(proc.stdout) >= 60.0
