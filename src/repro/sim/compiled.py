"""Compile-once network state for the traffic simulator.

The unit of compilation is a slab: one topology plus the K distinct
fault samples its scenarios run on.  Everything the cycle loop needs
that depends only on those — fault-aware port tables and link/cell
alive masks, each with a leading ``K`` axis from
one :func:`repro.sim.faults.fault_structure` call, plus the child,
in-slot and arc-target tables of the topology and the per-gap ``-2``
flags combined over the K samples — is derived here once per slab and
reused across runs.  A :class:`CompileCache` keeps these values in a
small keyed LRU (a campaign owns one per run, standalone calls share
:func:`compile_network`'s), so a repeated slab skips recompilation
entirely.  Each cache also carries the run's
:class:`~repro.sim.traffic.ScheduleStore` of drawn traffic schedules.

The compiled arrays are stacked (one array per concept) and frozen
read-only: a :class:`CompiledNetwork` is a value, never mutated by a
run.  Dtypes are deliberately small — ``int32`` cell labels,
``int8`` ports/slots, and ``drop`` route words in the narrowest
unsigned integer of 2 bits per stage (``uint16`` up to 8 stages) —
which roughly halves the hot working set of the cycle kernels.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.core.midigraph import MIDigraph
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.routing.permutation_routing import arc_slots
from repro.sim.faults import (
    FaultMasks,
    FaultSet,
    _child_table,
    _fault_structure,
    fault_masks,
)
from repro.sim.traffic import ScheduleStore

__all__ = [
    "CompileCache",
    "CompiledNetwork",
    "compile_cache_clear",
    "compile_cache_info",
    "compile_key",
    "compile_network",
    "network_digest",
]


class CompiledNetwork:
    """One slab's compiled value: a topology plus the slab's K fault samples.

    Built by one :func:`repro.sim.faults.fault_structure` call on the
    slab's masks (``None``: one healthy sample); every per-sample table
    has a leading sample axis ``K`` (row ``k`` is sample ``k``), and
    the topology tables are shared by all samples.

    Attributes
    ----------
    net:
        The compiled network.
    n_stages, size, n_inputs:
        Shape shorthands mirroring the network's.
    ptabs:
        ``(K, n-1, M, M)`` int8 — fault-aware port tables.
    links:
        ``(K, n-1, M, 2)`` bool — usable inter-stage links.  Neither
        numpy kernel reads them: a port table never names a dead link
        (see :class:`~repro.sim.faults.FaultStructure`), and
        :meth:`scheduled_words` folds them into a port schedule's route
        words.  The scalar loop of
        :mod:`repro.sim.kernels.numba_backend` reads them directly.
    cells_alive:
        ``(K, n, M)`` bool — live switches per stage.
    src_alive:
        ``(K, N)`` bool — whether each input link's first-stage cell lives.
    child:
        ``(n-1, M, 2)`` int32 — ``child[j, x, p]`` is the stage-``j+2``
        cell reached from stage-``j+1`` cell ``x`` through port ``p``.
    slots:
        ``(n-1, M, 2)`` int8 — the in-slot at that child (see
        :func:`repro.routing.permutation_routing.arc_slots`).
    arc_target:
        ``(n-1, M, 2)`` int32 — ``2·child + slot``, the *linear* buffer
        index (within a stage's flattened ``(M, 2)`` state) each out-arc
        lands in; the batched kernels address packets by linear index.
    has_amb:
        Per-gap flags: True when some sample's port table holds ``-2``
        entries (multipath ambiguity: the kernels take port 0 when its
        target slot is free, else port 1, so under ``drop`` always 0).
        Only the ``block`` kernel reads them; the ``drop`` kernel's
        exact per-gap flags come with :meth:`route_words`.
    """

    __slots__ = (
        "net", "n_stages", "size", "n_inputs", "ptabs",
        "links", "cells_alive", "src_alive", "child", "slots",
        "arc_target", "has_amb", "_route_words",
    )

    def __init__(
        self, net: MIDigraph, masks: FaultMasks | None = None
    ) -> None:
        self.net = net
        self.n_stages = net.n_stages
        self.size = net.size
        self.n_inputs = net.n_inputs

        self.child = _child_table(net)
        derived = _fault_structure(
            net, masks or fault_masks(net, [None]), self.child
        )
        self.ptabs = derived.ptabs
        self.links = derived.links
        self.cells_alive = derived.cells
        self.src_alive = derived.cells[:, 0, np.arange(net.n_inputs) >> 1]
        self.slots = np.stack([arc_slots(c) for c in net.connections])
        self.arc_target = 2 * self.child + self.slots
        self.has_amb = tuple((self.ptabs == -2).any(axis=(0, 2, 3)).tolist())
        for name in (
            "ptabs", "links", "cells_alive", "src_alive", "child",
            "slots", "arc_target",
        ):
            getattr(self, name).setflags(write=False)
        self._route_words = None

    def route_words(self) -> tuple[np.ndarray, tuple[bool, ...]]:
        """Every packet's whole ``drop`` route: ``(words, unroutable)``.

        Under ``drop`` a packet never waits and a ``-2`` port always
        resolves to port 0, so its route is a pure function of its
        sample, first-stage cell and destination.  ``words`` ``(K, M,
        N+1)`` packs it 2 bits per stage, in the narrowest unsigned
        dtype that holds ``2n`` bits (``uint16`` up to 8 stages,
        ``uint32`` up to 16, else ``uint64``): ``words[k, c, t + 1]``
        holds, in field ``j`` (bits ``2j``, ``2j+1``), the out-port + 1
        taken at stage ``j + 1`` by a packet for output ``t`` entering
        cell ``c`` of sample ``k``, or 0 from the first stage where it
        is unroutable (a ``-1`` port) on; the last field is the eject
        port ``(t & 1) + 1``.  A real packet's word is never 0: column 0 is
        the empty slot, and a dead first-stage cell's words are all 0
        (it injects nothing).  ``unroutable[j]`` is True when some live
        packet turns unroutable at gap ``j``.

        Built backwards, one gather per gap, from the port tables alone:
        a port table never names a dead link (see
        :class:`~repro.sim.faults.FaultStructure`).  Derived on the
        first call (the first ``drop`` run of this value) and kept, so a
        compile-cache hit reuses it.
        """
        if self._route_words is None:
            K, size, L = len(self.ptabs), self.size, self.n_stages - 1
            dtype = _word_dtype(self)
            # ``tail[k, x, d]``: fields ``j`` on of a packet leaving
            # stage-``j + 1`` cell ``x`` for last-stage cell ``d``; gap
            # ``j`` reads gap ``j + 1``'s tail at the child, one gather.
            at = np.arange(K)[:, None, None] * size * size + np.arange(size)
            tail = np.zeros((K, size, size), dtype=dtype)
            for j in range(L - 1, -1, -1):
                # Codes 0 and 1 force a port, 2 (``-2``) takes port 0
                # and 3 (``-1``) ends the route.
                code = self.ptabs[:, j] & 3
                port = code & 1
                c0, c1 = self.child[j, :, :1], self.child[j, :, 1:]
                tail = tail.reshape(-1).take(at + size * (c0 + port * (c1 - c0)))
                tail |= (port + 1).astype(dtype) << 2 * j
                tail *= code != 3
            # Every field past a live packet's first 0 is 0 too, so
            # ``lows[j]`` counts the live packets unroutable by gap ``j``.
            alive = self.cells_alive[:, 0, :, None]
            live = np.where(alive, tail, np.iinfo(dtype).max)
            lows = [int(np.count_nonzero(live < 4**j)) for j in range(L)]
            # Output ``t`` of last-stage cell ``t >> 1`` sits at column
            # ``t + 1``; a dead first-stage cell's words are all 0.
            words = np.zeros((K, size, self.n_inputs + 1), dtype=dtype)
            words[..., 1:] = np.repeat(tail, 2, axis=2)
            words[..., 1:] |= _eject_field(self, np.arange(self.n_inputs))
            words *= alive
            words.setflags(write=False)
            self._route_words = words, tuple(
                now > was for was, now in zip([0] + lows, lows)
            )
        return self._route_words

    def scheduled_words(
        self, sample: np.ndarray, scheds: np.ndarray
    ) -> tuple[np.ndarray, tuple[bool, ...]]:
        """The route words of a slab under per-source port schedules.

        ``scheds`` ``(B, n, N)`` fixes each packet's port at every stage
        by its scenario and input link, so its route depends on those
        and its eject port only.  Returns ``(words, unroutable)``:
        ``words`` ``(2, B, N)`` holds scenario ``b``'s input ``s``
        word for eject port ``p`` at ``[p, b, s]``, in the encoding of
        :meth:`route_words` (a scheduled port may name a dead link,
        which ends the route; a dead source's words are 0), and
        ``unroutable`` whether some live packet turns unroutable at
        each gap.  One forward walk over ``(B, N)``.
        """
        alive = self.src_alive[sample]
        live = alive.copy()
        cell = np.broadcast_to(np.arange(self.n_inputs) >> 1, live.shape)
        at = sample[:, None]
        fields = np.zeros(live.shape, dtype=_word_dtype(self))
        unroutable = []
        for j in range(self.n_stages - 1):
            port = scheds[:, j]
            ok = self.links[at, j, cell, port]
            unroutable.append(bool((live & ~ok).any()))
            live &= ok
            fields |= np.where(live, (port + 1).astype(fields.dtype) << 2 * j, 0)
            cell = self.child[j, cell, port]
        port = np.arange(2)[:, None, None]
        return (fields | _eject_field(self, port)) * alive, tuple(unroutable)

    def __repr__(self) -> str:
        return (
            f"CompiledNetwork(n_stages={self.n_stages}, size={self.size}, "
            f"samples={len(self.cells_alive)})"
        )


def _word_dtype(comp: CompiledNetwork) -> type:
    """Route-word dtype: the narrowest unsigned word of ``2n`` bits.

    A word is 2 bits per stage and nothing else, so ``n <= 8`` stages
    fit ``uint16``, ``n <= 16`` ``uint32`` and deeper networks
    ``uint64``; a narrower word halves every elementwise op on it.
    """
    if comp.n_stages <= 8:
        return np.uint16
    return np.uint32 if comp.n_stages <= 16 else np.uint64


def _eject_field(comp: CompiledNetwork, t: np.ndarray) -> np.ndarray:
    """The last route-word field of output ``t``: eject port + 1."""
    return ((t & 1) + 1).astype(_word_dtype(comp)) << 2 * (comp.n_stages - 1)


def network_digest(net: MIDigraph) -> str:
    """Structural content digest of a network's connection tables.

    16 hex digits over the stacked ``f``/``g`` child tables (plus the
    shape), so any two networks that would compile to the same tables —
    e.g. the same catalog spec rebuilt in two processes, or a saved file
    re-read under a different path — collide, and everything else
    separates.  This string is the topology half of the compile cache
    key.  It is computed once per network object and kept on it: the
    tables of a :class:`~repro.core.connection.Connection` are
    read-only, so the digest cannot go stale.
    """
    if net._digest is None:
        h = hashlib.sha256()
        h.update(np.int64([net.n_stages, net.size]).tobytes())
        for conn in net.connections:
            h.update(np.ascontiguousarray(conn.f, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(conn.g, dtype=np.int64).tobytes())
        net._digest = h.hexdigest()[:16]
    return net._digest


def compile_key(net: MIDigraph, masks: FaultMasks | None = None) -> tuple:
    """The compile cache key: structural digest + the bytes of the
    samples' kill orders, links, order and counts."""
    masks = masks or fault_masks(net, [None])
    return (network_digest(net), *(a.tobytes() for a in masks))


class CompileCache:
    """A keyed LRU of :class:`CompiledNetwork` slab values.

    Keyed by :func:`compile_key` — a structural content digest of the
    topology plus the slab's fault samples in slab order, not object
    identity — so repeated slabs on the same topology and samples
    (including a topology rebuilt from the same spec in another part of
    the program) pay the derivation once.  Each cache counts its own
    ``hits`` and ``misses``, so a run's figures never leak into another
    run's.

    ``schedules`` is the :class:`~repro.sim.traffic.ScheduleStore` that
    the spec path draws traffic through, with the cache's lifetime: one
    per campaign run inline, one per pool worker.
    """

    __slots__ = ("maxsize", "hits", "misses", "schedules", "_entries")

    def __init__(self, maxsize: int = 8) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CompiledNetwork]" = OrderedDict()
        self.schedules = ScheduleStore()
        self.clear()

    def clear(self) -> None:
        """Drop every entry and schedule, and reset the counters."""
        self._entries.clear()
        self.schedules.clear()
        self.hits = 0
        self.misses = 0

    def compile(
        self, net: MIDigraph, masks: FaultMasks | None = None
    ) -> CompiledNetwork:
        """Compile (or fetch the cached compilation of) one slab."""
        key = compile_key(net, masks)
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if obs.enabled():
                metrics().counter("compile_cache.hits").add()
            return hit
        self.misses += 1
        # Only a miss does real work, so only a miss gets its own span.
        with obs.span("compile_network", digest=key[0]):
            compiled = CompiledNetwork(net, masks)
        if obs.enabled():
            metrics().counter("compile_cache.misses").add()
        self._entries[key] = compiled
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return compiled

    def info(self) -> dict:
        """Statistics: ``{"hits", "misses", "size", "maxsize"}``."""
        return {
            "hits": self.hits, "misses": self.misses,
            "size": len(self._entries), "maxsize": self.maxsize,
        }


#: The cache behind :func:`compile_network`: a fixed 8 entries.  Its
#: schedule store serves one ``simulate_batch(specs)`` call at a time and
#: is emptied when the call returns.
_DEFAULT = CompileCache()


def compile_network(
    net: MIDigraph, faults: FaultSet | None = None
) -> CompiledNetwork:
    """Compile one fault sample (a K = 1 slab) through the default cache."""
    return _DEFAULT.compile(net, fault_masks(net, [faults]))


def compile_cache_info() -> dict:
    """The default cache's ``{"hits", "misses", "size", "maxsize"}``."""
    return _DEFAULT.info()


def compile_cache_clear() -> None:
    """Empty the default cache and reset its counters."""
    _DEFAULT.clear()
