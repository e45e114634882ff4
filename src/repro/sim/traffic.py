"""Synthetic traffic generators for the cycle-based simulator.

A :class:`TrafficPattern` turns a seeded RNG into a dense schedule of
injection attempts: one destination output link per (cycle, input link),
or ``-1`` when the source stays idle that cycle.  The Bernoulli injection
``rate`` is applied uniformly by the base class, so subclasses only decide
*where* packets go, not *whether* they are offered.

The classical patterns of the MIN-performance literature are provided:

* **uniform** — independent uniform destinations, the baseline workload;
* **hotspot** — a tunable fraction of the traffic converges on a small set
  of hot output links (the tree-saturation workload of hot-spot studies);
* **bitrev / transpose** — the adversarial digit permutations that defeat
  single-path networks;
* **permutation** — any :class:`~repro.permutations.permutation.Permutation`
  of the terminal links, e.g. one drawn from
  :mod:`repro.permutations.catalog`.

All draws come from the caller's ``numpy`` Generator, so a fixed seed gives
a bit-identical schedule — the basis of the regression tests, and of the
:class:`ScheduleStore`, which draws each ``(traffic, seed, n_inputs,
cycles)`` schedule of a run once and hands it to every topology and fault
sample that runs it.

Patterns have no wire form of their own: a run names its traffic with a
:class:`~repro.spec.scenario.TrafficSpec` (registry name, rate and the
parameters given, nothing default-filled), and
``TrafficSpec.of(name, rate, **params).resolve()`` or
``TrafficSpec.from_spec(doc).resolve()`` builds the pattern.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.errors import ReproError, UnknownTrafficError
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.permutations.catalog import bit_reversal
from repro.permutations.permutation import Permutation
from repro.spec.registry import Param, Registry

__all__ = [
    "TRAFFIC_PATTERNS",
    "BitReversalTraffic",
    "HotspotTraffic",
    "PermutationTraffic",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "register_traffic",
]

TRAFFIC_PATTERNS = Registry(
    "traffic pattern", unknown_error=UnknownTrafficError
)
"""Registry of traffic patterns, name → pattern class.

The registry behind ``--traffic`` on the CLI and the ``traffic`` axis of
campaign grids.  Third-party patterns plug in with
:func:`register_traffic`.
"""

register_traffic = TRAFFIC_PATTERNS.register
"""Decorator: add a :class:`TrafficPattern` subclass to the registry."""


class TrafficPattern:
    """Base class: a destination process plus a Bernoulli injection rate.

    Parameters
    ----------
    rate:
        Per-cycle, per-source injection probability in ``(0, 1]``.
    """

    name = "abstract"

    def __init__(self, rate: float = 1.0) -> None:
        rate = float(rate)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"injection rate must be in (0, 1], got {rate}")
        self.rate = rate

    def destinations(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        """The full injection schedule as a ``(cycles, n_inputs)`` array.

        Entry ``[t, s]`` is the destination output link of the packet
        source ``s`` offers at cycle ``t``, or ``-1`` when the source is
        idle (the Bernoulli coin came up tails).

        The schedule must be a pure function of the pattern's parameters,
        the ``rng`` stream, ``n_inputs`` and ``cycles``, for plug-in
        patterns too: a run's :class:`ScheduleStore` draws each schedule
        once and reuses it for every scenario with the same traffic wire
        form, seed, ``n_inputs`` and ``cycles``.
        """
        if n_inputs < 2 or n_inputs & (n_inputs - 1):
            raise ValueError(
                f"n_inputs must be a power of two >= 2, got {n_inputs}"
            )
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        dests = self._dests(rng, n_inputs, cycles)
        if self.rate >= 1.0:
            return dests
        active = rng.random((cycles, n_inputs)) < self.rate
        # Arithmetic, not a branchy np.where over a random mask; ``+ 1``
        # copies, so a plug-in's array is never written.
        out = dests + 1
        out *= active
        out -= 1
        return out

    def _dests(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        """A short human-readable label for reports."""
        return self.name

    @classmethod
    def from_params(cls, rate: float, params: Mapping) -> "TrafficPattern":
        """Build from the parameters of a
        :class:`~repro.spec.scenario.TrafficSpec` wire dict.

        The hook :meth:`TrafficSpec.resolve
        <repro.spec.scenario.TrafficSpec.resolve>` builds through;
        subclasses whose constructor arguments differ from their JSON
        wire form (e.g. :class:`PermutationTraffic`) override it.
        """
        return cls(rate=rate, **params)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rate={self.rate})"


@register_traffic("uniform")
class UniformTraffic(TrafficPattern):
    """Independent uniform random destinations — the baseline workload."""

    name = "uniform"

    def _dests(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        return rng.integers(0, n_inputs, size=(cycles, n_inputs))


@register_traffic(
    "hotspot",
    params={
        # default=None marks the parameters optional; traffic specs are
        # never default-filled (the wire form hashes only given keys).
        "fraction": Param(default=None, doc="probability a packet goes hot"),
        "hotspots": Param(default=None, doc="the hot output links"),
    },
)
class HotspotTraffic(TrafficPattern):
    """Uniform background traffic with a hot fraction aimed at few outputs.

    Parameters
    ----------
    rate:
        Injection rate, as in :class:`TrafficPattern`.
    fraction:
        Probability that a packet targets one of the ``hotspots`` instead
        of a uniform destination.
    hotspots:
        The hot output links (uniformly chosen among when several).
    """

    name = "hotspot"

    def __init__(
        self,
        rate: float = 1.0,
        fraction: float = 0.25,
        hotspots: tuple[int, ...] = (0,),
    ) -> None:
        super().__init__(rate)
        fraction = float(fraction)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        hotspots = tuple(int(h) for h in hotspots)
        if not hotspots:
            raise ValueError("need at least one hotspot output link")
        self.fraction = fraction
        self.hotspots = hotspots

    def _dests(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        for h in self.hotspots:
            if not 0 <= h < n_inputs:
                raise ValueError(
                    f"hotspot {h} outside output range 0..{n_inputs - 1}"
                )
        base = rng.integers(0, n_inputs, size=(cycles, n_inputs))
        hot = rng.random((cycles, n_inputs)) < self.fraction
        targets = np.asarray(self.hotspots, dtype=np.int64)
        # base + hot * (picks - base), in place on the fresh picks.
        out = targets.take(rng.integers(0, len(targets), size=base.shape))
        out -= base
        out *= hot
        out += base
        return out

    def describe(self) -> str:
        return f"hotspot(f={self.fraction:g},targets={list(self.hotspots)})"

    @classmethod
    def from_params(cls, rate: float, params: Mapping) -> "HotspotTraffic":
        kwargs = dict(params)
        if "hotspots" in kwargs:
            kwargs["hotspots"] = tuple(kwargs["hotspots"])
        return cls(rate=rate, **kwargs)


@register_traffic(
    "permutation",
    params={"perm": Param(list, doc="image list of the permutation")},
    # Hidden: fully usable through specs and campaign entries (which can
    # carry the required perm list), but kept out of names() so the
    # CLI's --traffic choices only offer patterns buildable from flags.
    hidden=True,
)
class PermutationTraffic(TrafficPattern):
    """Every source always targets a fixed permutation image of itself."""

    name = "permutation"

    def __init__(self, perm: Permutation, rate: float = 1.0) -> None:
        super().__init__(rate)
        if not isinstance(perm, Permutation):
            raise TypeError(f"expected a Permutation, got {type(perm)!r}")
        self.perm = perm

    def _dests(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        if self.perm.n != n_inputs:
            raise ValueError(
                f"permutation acts on {self.perm.n} links, network has "
                f"{n_inputs}"
            )
        return np.broadcast_to(
            self.perm.images, (cycles, n_inputs)
        ).copy()

    @classmethod
    def from_params(cls, rate: float, params: Mapping) -> "PermutationTraffic":
        images = params.get("perm")
        if images is None:
            raise KeyError("permutation traffic spec needs a 'perm' entry")
        extra = set(params) - {"perm"}
        if extra:
            raise TypeError(f"unexpected traffic spec entries {sorted(extra)}")
        return cls(
            Permutation(np.asarray(images, dtype=np.int64)), rate=rate
        )


@register_traffic("bitrev")
class BitReversalTraffic(TrafficPattern):
    """Source ``s`` targets the bit-reversal of ``s`` — a classic adversary."""

    name = "bitrev"

    def _dests(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        digits = n_inputs.bit_length() - 1
        images = bit_reversal(digits).to_permutation().images
        return np.broadcast_to(images, (cycles, n_inputs)).copy()


@register_traffic("transpose")
class TransposeTraffic(TrafficPattern):
    """Matrix-transpose traffic: rotate the address digits by half.

    With ``2k`` address digits source ``(a, b)`` targets ``(b, a)`` — the
    shared-memory matrix-transpose access pattern.  Odd digit counts
    rotate by ``k = digits // 2``.
    """

    name = "transpose"

    def _dests(
        self, rng: np.random.Generator, n_inputs: int, cycles: int
    ) -> np.ndarray:
        digits = n_inputs.bit_length() - 1
        k = digits // 2
        xs = np.arange(n_inputs, dtype=np.int64)
        images = ((xs << k) | (xs >> (digits - k))) & (n_inputs - 1)
        if k == 0:
            images = xs
        return np.broadcast_to(images, (cycles, n_inputs)).copy()



def _schedule_dtype(n_inputs: int) -> type:
    """Schedule and slab dtype: the narrowest signed integer holding
    ``[-1, n_inputs)``: ``int16`` up to ``2**15`` inputs, else ``int32``.
    """
    return np.int16 if n_inputs <= 1 << 15 else np.int32


def _draw_schedule(
    traffic: TrafficPattern, seed: int, n_inputs: int, cycles: int
) -> np.ndarray:
    """Draw one scenario's ``(cycles, n_inputs)`` schedule and check it.

    A fresh ``default_rng(seed)`` feeds
    :meth:`TrafficPattern.destinations`; a plug-in's schedule of the
    wrong shape, dtype or range raises :class:`ReproError`.
    """
    tmat = traffic.destinations(np.random.default_rng(seed), n_inputs, cycles)
    if tmat.shape != (cycles, n_inputs):
        raise ReproError(
            f"traffic schedule has shape {tmat.shape}, expected "
            f"({cycles}, {n_inputs})"
        )
    if not np.issubdtype(tmat.dtype, np.integer) or not (
        -1 <= tmat.min() and tmat.max() < n_inputs
    ):
        raise ReproError(
            f"traffic destinations must be integers in [-1, "
            f"{n_inputs}) (-1 = idle), got {tmat.dtype} in "
            f"[{tmat.min()}, {tmat.max()}]"
        )
    return tmat


#: Byte budget of one :class:`ScheduleStore`.  The store keeps schedules
#: until this much is held and then draws without keeping, so a run with
#: more distinct schedules than fit still shares the first ones on every
#: topology.  The fault-free omega/baseline/flip sweep of perfbench's
#: ``sweep_batched`` (N = 256, 250 cycles, 32 traffic × seed keys) needs
#: 4 MiB of ``int16`` schedules; 8 MiB holds twice that while staying
#: small beside the ~50 MB a campaign process occupies.
SCHEDULE_STORE_BYTES = 8 << 20


class ScheduleStore:
    """A run's drawn traffic schedules, each drawn once.

    Keyed by the traffic's canonical wire JSON (what the scenario
    digest hashes), the seed, ``n_inputs`` and ``cycles``: by the
    :meth:`TrafficPattern.destinations` contract these fix the schedule,
    so scenarios that differ only in topology or fault sample, the
    comparisons Theorem 1 makes, share one draw.  Entries are read-only
    ``(cycles, n_inputs)`` arrays in the slab dtype (``int16`` up to
    ``2**15`` inputs).  The store fills up to :data:`SCHEDULE_STORE_BYTES`
    and never evicts: campaign slabs come topology by topology, each
    asking for the same keys in the same order, so the entries kept first
    hit on every later topology, where a least-recently-used store would
    lose each one just before its reuse.  A campaign run owns one per
    compile cache (:attr:`repro.sim.compiled.CompileCache.schedules`), so
    it starts cold every run and never crosses a process; each store
    counts its own ``hits`` and ``misses``.
    """

    __slots__ = ("hits", "misses", "nbytes", "_entries")

    def __init__(self) -> None:
        self._entries: dict[tuple, np.ndarray] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def schedule(
        self,
        traffic_id: str,
        traffic: TrafficPattern,
        seed: int,
        n_inputs: int,
        cycles: int,
    ) -> np.ndarray:
        """The read-only schedule of ``traffic`` (wire JSON ``traffic_id``)
        at ``seed``, drawn and checked only if the store lacks it."""
        key = (traffic_id, seed, n_inputs, cycles)
        hit = self._entries.get(key)
        if hit is not None:
            self.hits += 1
            if obs.enabled():
                metrics().counter("traffic_cache.hits").add()
            return hit
        self.misses += 1
        if obs.enabled():
            metrics().counter("traffic_cache.misses").add()
        tmat = _draw_schedule(traffic, seed, n_inputs, cycles).astype(
            _schedule_dtype(n_inputs)
        )
        tmat.setflags(write=False)
        if self.nbytes + tmat.nbytes <= SCHEDULE_STORE_BYTES:
            self._entries[key] = tmat
            self.nbytes += tmat.nbytes
        return tmat
