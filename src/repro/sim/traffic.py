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
a bit-identical schedule — the basis of the regression tests.

Patterns have no wire form of their own: a run names its traffic with a
:class:`~repro.spec.scenario.TrafficSpec` (registry name, rate and the
parameters given, nothing default-filled), and
``TrafficSpec.of(name, rate, **params).resolve()`` or
``TrafficSpec.from_spec(doc).resolve()`` builds the pattern.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.errors import UnknownTrafficError
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
        return np.where(active, dests, -1)

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
        picks = targets[rng.integers(0, len(targets), size=base.shape)]
        return np.where(hot, picks, base)

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

