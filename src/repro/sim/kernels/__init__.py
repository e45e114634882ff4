"""Pluggable simulation kernel backends.

The cycle-based simulator is split into a thin orchestration layer
(the slab runner of :mod:`repro.sim.batch`, which
:func:`repro.sim.engine.simulate` wraps — validation, traffic
materialization, report assembly) and *kernel backends* that run the hot
``(cycles × stages)`` work over a :class:`~repro.sim.compiled.CompiledNetwork`'s
frozen int32/int8 tables and unsigned route words:

``numpy``
    The reference backend, one vectorized slab kernel per policy.
    ``block`` steps the cycles but not the stages: each stage moves
    what it held at the end of the previous cycle, so one whole-slab
    pass per cycle routes and arbitrates every stage, and only the
    back-pressure chain (free or just-vacated target slots) runs stage
    by stage.  ``drop`` is stage-major: a packet there never waits, so
    it is delivered exactly ``n_stages`` cycles after injection or lost,
    injection rows never interact, and each chunk of rows crosses the
    network in ``n`` dense passes with no cycle loop at all.  Its whole
    route is fixed at injection too, so ``drop`` gathers one route word
    per packet (2 bits per stage, from
    :meth:`~repro.sim.compiled.CompiledNetwork.route_words`) and never
    reads a port table after that.  Under a port schedule both kernels
    move such words (from
    :meth:`~repro.sim.compiled.CompiledNetwork.scheduled_words`), so
    neither reads a link mask.
``numba``
    The fused backend, for both policies: the entire cycle loop —
    inject, per-stage move with contention/ambiguity/fault handling,
    eject, drain — is one ``@njit(nopython)`` function with no
    interpreter dispatch inside.
    Requires the optional ``numba`` package (``pip install -e .[fast]``).

Both backends implement one entry point and give **bit-identical**
reports (property-tested):

* ``run_batch(comp, sample, tmats, scheds, cycles, drop, drain) -> BatchRun``

``comp`` is the slab's one :class:`~repro.sim.compiled.CompiledNetwork`
— one topology and the slab's K distinct fault samples, each per-sample
table with a leading ``K`` axis and the per-gap flags already combined
over K — and ``sample`` is a ``(B,)`` index into that axis: the
scenarios of one slab may run on different fault samples.  ``tmats``
is the ``(cycles, B, N)`` traffic slab of destinations (``-1`` idle) in
any integer dtype; the slab runner passes the narrowest that holds
``[-1, N)``, ``int16`` up to ``N = 2**15``.  A single scenario is a
slab of one (``tmats`` of shape ``(cycles, 1, N)``, ``sample``
``[0]``).

Backend selection flows through one function, :func:`resolve_backend`:
an explicit name — the ``backend`` argument of ``simulate``,
``simulate_batch`` or ``run_campaign``, which the ``--backend`` CLI flag
feeds — wins; ``None`` or ``"auto"`` consults the
``REPRO_SIM_BACKEND`` environment variable and otherwise picks ``numba``
when it is importable, falling back to ``numpy`` gracefully when it is
not.  Explicitly requesting ``numba`` on an installation without it is
an error — a sweep that silently ran 30x slower than asked would be
worse.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.errors import ReproError
from repro.sim.kernels.results import BatchRun
from repro.sim.kernels import numba_backend, numpy_backend

__all__ = [
    "BACKEND_CHOICES",
    "BatchRun",
    "available_backends",
    "get_backend",
    "numba_available",
    "resolve_backend",
    "warm_jit",
]

#: Accepted spellings of a backend request (call argument, CLI flag, env).
BACKEND_CHOICES = ("auto", "numpy", "numba")

#: Environment override consulted by ``"auto"`` requests.
BACKEND_ENV = "REPRO_SIM_BACKEND"

_BACKENDS = {
    "numpy": numpy_backend,
    "numba": numba_backend,
}


def numba_available() -> bool:
    """True when the optional numba package imported successfully."""
    return numba_backend.AVAILABLE


def available_backends() -> dict:
    """Installed/usable state of every backend: ``{name: bool}``."""
    return {name: mod.AVAILABLE for name, mod in _BACKENDS.items()}


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` and ``"auto"`` consult the ``REPRO_SIM_BACKEND`` environment
    variable, then pick ``"numba"`` when available and ``"numpy"``
    otherwise.  An explicit ``"numba"`` (argument or environment) on an
    installation without numba raises with an install hint rather than
    silently degrading.
    """
    name = "auto" if name is None else str(name)
    if name not in BACKEND_CHOICES:
        raise ReproError(
            f"unknown simulation backend {name!r}; choose from "
            f"{BACKEND_CHOICES}"
        )
    if name == "auto":
        env = os.environ.get(BACKEND_ENV, "").strip().lower()
        if env and env != "auto":
            if env not in BACKEND_CHOICES:
                raise ReproError(
                    f"{BACKEND_ENV}={env!r} is not a simulation backend; "
                    f"choose from {BACKEND_CHOICES}"
                )
            name = env
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        raise ReproError(
            "the 'numba' simulation backend needs the optional numba "
            "package: pip install -e .[fast] (or use --backend auto / "
            "numpy, which never require it)"
        )
    return name


def get_backend(name: str | None = None):
    """The backend module for a request (see :func:`resolve_backend`)."""
    return _BACKENDS[resolve_backend(name)]


def warm_jit() -> bool:
    """Pre-compile the numba kernels on a tiny throwaway run.

    Campaign worker pools call this from their initializer so the
    one-time JIT cost is paid before the first real slab, not inside it.
    Returns True when a warm numba kernel is now resident; False (and
    does nothing) when numba is unavailable.
    """
    if not numba_available():
        return False
    from repro.networks.omega import omega
    from repro.obs import trace as obs
    from repro.sim.compiled import CompiledNetwork

    with obs.span("warm_jit"):
        comp = CompiledNetwork(omega(2))
        tmats = np.zeros((1, 1, comp.n_inputs), dtype=np.int32)
        numba_backend.run_batch(
            comp, np.zeros(1, dtype=np.intp), tmats, None, 1, True, True
        )
    return True
