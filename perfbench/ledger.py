"""Per-layer host-time ledger and counters, attached from outside ``src/``.

Two instruments, both installed by monkeypatching the program's own
classes and functions (nothing under ``src/`` changes):

* :class:`JobHarvest` wraps ``ShmemJob.run`` and, when each job ends,
  folds its route counts (``runtime.protocol_counts``) and per-link
  byte/transfer counters into a tally.  It is one call per job, so it
  stays installed in untimed and timed passes alike; together with the
  engine's ``GLOBAL_STATS`` it gives every machine-independent count
  that must read the same with tracing on and off.

* :class:`Ledger` wraps every public function and method (plus
  ``__init__``) defined in each layer package, and charges the host time
  spent inside each call to that layer, minus the time of nested calls
  into wrapped code (self time).  Generator functions get a generator
  wrapper that times every resumption, because their bodies run when the
  scheduler resumes them, not when they are called.  Code that no
  wrapper covers (benchmark loop, result formatting, the sweep drivers
  in ``repro.bench``) is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import re
import sys
import time
from types import FunctionType
from typing import Dict, List

#: Layer packages under ``repro``; each wrapped callable is charged to
#: the package it is defined in.
LAYERS = ("simulator", "shmem", "hardware", "cuda", "ib", "msg", "mpi", "apps", "faults")

#: ShmemContext methods counted as user-visible operations: puts, gets,
#: atomics and locks, collectives, and two-sided messages.
_SHMEM_OP = re.compile(
    r"^(put|get|p$|g$|iput|iget|atomic_|i?send$|i?recv$|barrier|broadcast|reduce"
    r"|fcollect|collect|alltoall|team_|set_lock|test_lock|clear_lock)"
)
#: Verbs methods that post one work request each.
_IB_WRS = frozenset(
    {"rdma_write", "rdma_read", "post_send", "fetch_add", "compare_swap", "swap"}
)

_SHMEM_DIR = "/repro/shmem/"
#: ``SimStats`` counters of the engine's fast paths and analytic tiers.
_TIERS = ("fastpath_batches", "analytic_flows", "contended_windows", "collective_closed_forms")


def _engine_counts() -> Dict[str, int]:
    from repro.simulator.core import GLOBAL_STATS as g

    return {
        "simulator.events": g.processed,
        # Reads 0 once a tier and its counter are deleted.
        "simulator.tier_commits": sum(getattr(g, tier, 0) for tier in _TIERS),
        "shmem.failovers": g.failovers,
        "ib.rc_retries": g.retries,
        "ib.ud_packets": g.ud_packets,
        "ib.ud_drops": g.ud_drops,
        "msg.eager": g.msg_eager,
        "msg.rendezvous": g.msg_rendezvous,
        "msg.ud_resends": g.ud_resends,
        "faults.injected": g.flap_windows + g.hca_stalls + g.cq_errors,
    }


class JobHarvest:
    """Tally of per-job counters, read when each ``ShmemJob.run`` returns."""

    def __init__(self) -> None:
        from repro.shmem.constants import Protocol

        self.protocols = [p.value for p in Protocol]
        self.reset()

    def reset(self) -> None:
        from repro.simulator.core import reset_global_stats

        reset_global_stats()
        self.routes = dict.fromkeys(self.protocols, 0)
        self.link_bytes = 0
        self.link_transfers = 0

    def install(self) -> "JobHarvest":
        from repro.reporting.timeline import link_utilization
        from repro.shmem.job import ShmemJob

        original = ShmemJob.run

        @functools.wraps(original)
        def run(job, *args, **kwargs):
            result = original(job, *args, **kwargs)
            for proto, count in job.runtime.protocol_counts.items():
                self.routes[proto.value] += count
            for _name, transfers, nbytes, _mbps in link_utilization(job.hw, job.sim.now):
                self.link_transfers += transfers
                self.link_bytes += nbytes
            return result

        ShmemJob.run = run
        self._original = original
        return self

    def uninstall(self) -> None:
        from repro.shmem.job import ShmemJob

        ShmemJob.run = self._original

    def counts(self) -> Dict[str, int]:
        """Every machine-independent count since the last :meth:`reset`."""
        out = _engine_counts()
        out["hardware.link_bytes"] = self.link_bytes
        out["hardware.link_transfers"] = self.link_transfers
        for proto, count in self.routes.items():
            out[f"shmem.route.{proto}"] = count
        return out


class Ledger:
    """Self host time per layer, plus call counts taken at layer entries."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.job_build_s = 0.0
        self.shmem_ops = 0
        self.ib_wrs = 0
        self.bytes_copied = 0
        self._stack: List[list] = []
        #: ``(owner, attribute, original)`` for :meth:`uninstall`.
        self._patched: List[tuple] = []

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.job_build_s = 0.0
        self.shmem_ops = self.ib_wrs = self.bytes_copied = 0

    # ----------------------------------------------------------- wrappers
    def _plain(self, fn, layer):
        stack, clock = self._stack, time.perf_counter
        ledger = self
        module = fn.__module__

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                ledger.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if out.__class__ is FunctionType and out.__module__ == module:
                # A closure handed out (an SPMD program body, a callback)
                # runs later on behalf of the layer that built it.
                out = ledger._wrap(out, layer)
            return out

        return timed

    def _resumer(self, gen, layer):
        """Drive ``gen`` exactly as ``yield from`` would, timing each resume."""
        stack, clock = self._stack, time.perf_counter
        value, exc = None, None
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            try:
                value, exc = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into gen, like yield from
                value, exc = None, thrown

    def _generator(self, fn, layer):
        resumer = self._resumer

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            outer = resumer(inner, layer)
            outer.__name__, outer.__qualname__ = inner.__name__, inner.__qualname__
            return outer

        return timed

    def _counting(self, timed, qualname):
        """Add the call counters the per-layer metrics name."""
        ledger = self
        cls_name, _, name = qualname.rpartition(".")
        if cls_name in ("ShmemContext", "TypedOps", "LockOps", "TeamOps") and _SHMEM_OP.match(name):
            getframe = sys._getframe

            @functools.wraps(timed)
            def op(*args, **kwargs):
                if _SHMEM_DIR not in getframe(1).f_code.co_filename:
                    ledger.shmem_ops += 1
                return timed(*args, **kwargs)

            return op
        if cls_name == "Verbs" and name in _IB_WRS:
            @functools.wraps(timed)
            def wr(*args, **kwargs):
                ledger.ib_wrs += 1
                return timed(*args, **kwargs)

            return wr
        if qualname == "Ptr.write":
            @functools.wraps(timed)
            def write(ptr, payload):
                ledger.bytes_copied += len(payload)
                return timed(ptr, payload)

            return write
        if qualname == "ShmemJob.__init__":
            clock = time.perf_counter

            @functools.wraps(timed)
            def build(*args, **kwargs):
                t0 = clock()
                try:
                    return timed(*args, **kwargs)
                finally:
                    ledger.job_build_s += clock() - t0

            return build
        return timed

    def _wrap(self, fn, layer):
        wrap = self._generator if inspect.isgeneratorfunction(fn) else self._plain
        return self._counting(wrap(fn, layer), fn.__qualname__)

    # ------------------------------------------------------------ install
    def install(self) -> "Ledger":
        """Wrap every layer's entry points in place; returns ``self``."""
        modules = []
        for layer in LAYERS:
            pkg = importlib.import_module(f"repro.{layer}")
            modules.append((layer, pkg))
            for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
                modules.append((layer, importlib.import_module(info.name)))
        replaced = {}
        for layer, mod in modules:
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) and self._entry(attr, layer):
                    if obj not in replaced:
                        replaced[obj] = self._wrap(obj, layer)
        # Rebind every module-level reference to a wrapped function,
        # including ``from x import f`` copies in other modules.
        for name, mod in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])
        return self

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _entry(attr: str, layer: str) -> bool:
        """Which callables get a span: everything but dunders (except
        ``__init__``/``__call__``), and in the simulator only its public
        API, since its private methods are the engine loop itself."""
        if attr.startswith("__"):
            return attr in ("__init__", "__call__")
        return layer != "simulator" or not attr.startswith("_")

    def _wrap_class(self, cls, layer) -> None:
        for attr, raw in list(vars(cls).items()):
            if not self._entry(attr, layer):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
            else:
                fn = raw
            if not inspect.isfunction(fn) or fn.__module__ != cls.__module__:
                continue
            if fn.__code__.co_filename.startswith("<"):
                continue  # generated code (dataclass __init__ and the like)
            wrapped = self._wrap(fn, layer)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._patch(cls, attr, wrapped)
