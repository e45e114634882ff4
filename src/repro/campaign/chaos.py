"""Deterministic chaos injection for supervisor testing.

Fault-tolerance code that is only exercised by real segfaults is
untested code.  This module injects the three failure modes the
supervisor must survive — worker **crash** (``SIGKILL`` to self),
**hang** (sleep past any timeout) and **poison** (a raise) — plus a
benign **slow** mode, all *deterministically*: every decision is a pure
function of ``(chaos seed, scenario digest, attempt)``, so a chaotic
run is exactly reproducible and a re-run task does not re-roll the same
doom forever.

Off by default.  Enabled by the ``REPRO_CHAOS`` environment variable
(or an explicit :class:`ChaosSpec` passed to ``run_campaign``), a
comma-separated ``key=value`` spec::

    REPRO_CHAOS="seed=7,crash=0.1,hang=0.05,slow=0.2,slow_s=0.01"
    REPRO_CHAOS="poison=6fa1"            # these digests always raise
    REPRO_CHAOS="poison_numba=6fa1"      # raise unless degraded to numpy

Probabilistic modes (``crash``/``hang``/``slow``) re-roll per attempt —
a scenario that crashed on attempt 0 usually succeeds on its re-run,
which is what a transient process death looks like.  A raise has no
probabilistic mode: a report is a pure function of its spec, so a raise
is never transient and the supervisor does not re-run it.  ``poison=``
digests (prefix match) raise on *every* attempt: they are the truly
poisonous scenarios that must end up quarantined.  ``poison_numba=``
digests fail only while the task has not been degraded to the numpy
backend — the deterministic stand-in for "fails under the numba JIT,
works on the reference kernels", so the graceful-degradation path is
testable on numpy-only installs.

Chaos is an execution hint in the same sense as tracing and backends:
it never enters a spec, a digest or a store record, and a surviving
scenario's report is bit-identical with chaos on or off (the ``slow``
sleep happens outside the simulator's timed region).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, field

from repro.core.errors import ReproError

__all__ = [
    "CHAOS_ENV",
    "ChaosInjected",
    "ChaosSpec",
    "chaos_from_env",
    "parse_chaos",
]

#: Environment variable holding the chaos spec; empty/absent = off.
CHAOS_ENV = "REPRO_CHAOS"

_FLOAT_KEYS = ("crash", "hang", "slow")


class ChaosInjected(ReproError):
    """The exception raised by chaos ``poison``/``poison_numba`` injection."""


def _unit(seed: int, digest: str, attempt: int, mode: str) -> float:
    """A deterministic uniform draw in [0, 1) per (task, attempt, mode)."""
    key = f"{seed}:{digest}:{attempt}:{mode}".encode("utf-8")
    h = hashlib.sha256(key).digest()
    return int.from_bytes(h[:8], "big") / 2.0**64


@dataclass(frozen=True)
class ChaosSpec:
    """A parsed chaos configuration (see the module docstring).

    ``crash_p``/``hang_p``/``slow_p`` are independent
    per-scenario-per-attempt probabilities, evaluated in that order
    (first trigger wins).  ``poison``/``poison_numba`` are digest
    prefixes with deterministic behavior regardless of attempt.
    """

    seed: int = 0
    crash_p: float = 0.0
    hang_p: float = 0.0
    slow_p: float = 0.0
    slow_s: float = 0.01
    hang_s: float = 3600.0
    poison: tuple = ()
    poison_numba: tuple = ()

    def __post_init__(self) -> None:
        for name in ("crash_p", "hang_p", "slow_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ReproError(
                    f"chaos {name} must be a probability in [0, 1], "
                    f"got {p!r}"
                )

    def __bool__(self) -> bool:
        return bool(
            self.crash_p or self.hang_p or self.slow_p
            or self.poison or self.poison_numba
        )

    # -- decisions ---------------------------------------------------------

    def decide(
        self, digest: str, attempt: int, backend: str | None = None
    ) -> str | None:
        """The injected action for one scenario attempt, or ``None``.

        Pure: the same arguments always yield the same action.
        ``backend`` is the task's backend override (``"numpy"`` once the
        supervisor has degraded it), which is what ``poison_numba``
        keys off.
        """
        if any(digest.startswith(p) for p in self.poison):
            return "poison"
        if backend != "numpy" and any(
            digest.startswith(p) for p in self.poison_numba
        ):
            return "poison_numba"
        for mode, p in (
            ("crash", self.crash_p),
            ("hang", self.hang_p),
            ("slow", self.slow_p),
        ):
            if p > 0.0 and _unit(self.seed, digest, attempt, mode) < p:
                return mode
        return None

    def apply(
        self,
        digests,
        attempt: int,
        backend: str | None = None,
    ) -> None:
        """Execute the injected actions for a task's scenarios, in order.

        Called inside the worker immediately before the group runs.
        ``crash`` SIGKILLs the process (indistinguishable from a
        segfault or the OOM killer), ``hang`` sleeps ``hang_s`` seconds
        (far past any sane task timeout), ``poison``/``poison_numba``
        raise :class:`ChaosInjected`, ``slow`` sleeps ``slow_s`` seconds
        and continues.
        """
        for digest in digests:
            action = self.decide(digest, attempt, backend=backend)
            if action is None:
                continue
            if action == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            elif action == "hang":
                time.sleep(self.hang_s)
            elif action == "slow":
                time.sleep(self.slow_s)
            else:  # poison / poison_numba
                raise ChaosInjected(
                    f"chaos {action} injected for scenario {digest} "
                    f"(attempt {attempt})"
                )


def parse_chaos(text: str) -> ChaosSpec:
    """Parse a ``REPRO_CHAOS`` spec string into a :class:`ChaosSpec`.

    Comma-separated ``key=value`` pairs; digest-prefix lists use ``+``
    as the separator (``poison=6fa1+93c0``).  Unknown keys are a loud
    error — a typo that silently disabled chaos would invalidate a
    whole test run.
    """
    spec: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ReproError(
                f"chaos spec entries must look like key=value, got {part!r}"
            )
        if key in _FLOAT_KEYS:
            spec[f"{key}_p"] = float(value)
        elif key in ("slow_s", "hang_s"):
            spec[key] = float(value)
        elif key == "seed":
            spec[key] = int(value)
        elif key in ("poison", "poison_numba"):
            spec[key] = tuple(p for p in value.split("+") if p)
        else:
            raise ReproError(
                f"unknown chaos key {key!r}; expected one of "
                "seed, crash, hang, slow, slow_s, hang_s, "
                "poison, poison_numba"
            )
    return ChaosSpec(**spec)


def chaos_from_env() -> ChaosSpec | None:
    """The environment-configured chaos spec, or ``None`` when off."""
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    spec = parse_chaos(raw)
    return spec if spec else None
