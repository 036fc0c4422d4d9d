"""Deterministic fault injection for the engine stack.

The engine's fault handling (an optimizer failure sends the raw plan to
the same executor; a fault executing a plan is one typed
``SRLRuntimeError``; a failed memo store is skipped) and its
restore-on-exception guarantees are only trustworthy if they are
*exercised*.  This module
plants named injection points at the seams where real failures happen,
and lets a seeded :class:`ChaosPolicy` make each of them raise, delay, or
hand back corrupt-on-purpose data:

==========================  ================================================
injection point             where it fires
==========================  ================================================
``relalg.join.probe``       once per Join / JoinProject execution, before
                            the probe loop (corrupt: the probe-side index
                            is built over a wrong-arity row)
``optimize.pass.<name>``    before each optimizer pass (``simplify``,
                            ``pushdown``, ``prune``, ``reorder``, ``fuse``,
                            ``delta``, ``share``); corrupt: the pass
                            returns a plan with the wrong output columns
``plan.fixpoint.round``     once per fixpoint round (corrupt: a
                            wrong-arity row is smuggled into the round's
                            derived rows)
``engine.memo.store``       before a memo table stores an entry (corrupt:
                            the stored rows are garbage)
``service.worker.crash``    in a query-service worker, between receiving a
                            request and evaluating it; a ``raise`` here is
                            escalated by the worker main loop to
                            ``os._exit`` — a real process death, not an
                            exception the engine could absorb
``service.net.drop``        around one protocol frame write (raise: the
                            frame never leaves; corrupt: the frame is
                            truncated mid-payload)
``service.queue.overflow``  in admission control, before capacity is
                            checked; a ``raise`` forces a load-shed as if
                            the queue were full
==========================  ================================================

Corruption is *detectable by construction*: every corrupt payload a site
offers is one the engine's own validation (arity checks in
``IndexedRelation``, the optimizer's output-columns invariant, memo-row
validation) must catch.  The chaos differential suite asserts that under
every fault the engine either returns the correct answer or raises a
clean typed error — never a wrong answer.

The module is dependency-light on purpose (stdlib only, no imports from
``repro.core``): the engine imports *us*, and the hot-path cost when no
policy is installed is one global load and a ``None`` check.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "Fault",
    "INJECTION_POINTS",
    "active_policy",
    "chaos",
    "chaos_point",
    "install_policy",
    "uninstall_policy",
]

#: Every injection point the engine registers, for sweep-style tests.
#: (``optimize.pass.<name>`` is one logical point per optimizer pass.)
INJECTION_POINTS: tuple[str, ...] = (
    "relalg.join.probe",
    "optimize.pass.simplify",
    "optimize.pass.pushdown",
    "optimize.pass.prune",
    "optimize.pass.reorder",
    "optimize.pass.fuse",
    "optimize.pass.delta",
    "optimize.pass.share",
    "plan.fixpoint.round",
    "engine.memo.store",
    "ivm.dred.overdelete",
    "ivm.dred.rederive",
    "ivm.memo.patch",
    "service.worker.crash",
    "service.net.drop",
    "service.queue.overflow",
)

ACTIONS = ("raise", "delay", "corrupt")


class ChaosError(RuntimeError):
    """The exception an injected ``raise`` fault throws.

    Deliberately *not* an :class:`~repro.core.errors.SRLError`: injected
    faults model internal bugs and infrastructure failures, which the
    engine must absorb or report as its own typed error without a
    matching except clause for this specific type.
    """

    def __init__(self, point: str):
        super().__init__(f"chaos fault injected at {point}")
        self.point = point


@dataclass(frozen=True)
class Fault:
    """One arming rule: *what* to do *where*, and how often.

    ``point`` matches an injection point exactly, by ``"prefix.*"`` glob,
    or everything with ``"*"``.  ``probability`` is evaluated against the
    policy's seeded RNG, so a sweep is reproducible.  ``max_fires`` caps
    how many times this fault triggers (``None`` = unlimited); a fault
    that fires on every fixpoint round would otherwise starve a fallback
    that re-enters the same code path.
    """

    point: str
    action: str = "raise"
    probability: float = 1.0
    delay_seconds: float = 0.0
    max_fires: int | None = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}; "
                             f"expected one of {ACTIONS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("Fault.probability must be in [0, 1]")

    def matches(self, point: str) -> bool:
        if self.point == "*" or self.point == point:
            return True
        if self.point.endswith(".*"):
            return point.startswith(self.point[:-1])
        return False


@dataclass
class ChaosPolicy:
    """A seeded, deterministic set of armed faults plus a fire log.

    ``fired`` records ``(point, action)`` per trigger, so tests can
    assert a sweep actually exercised the site it aimed at.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0
    fired: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.faults = tuple(self.faults)
        self.rng = random.Random(self.seed)
        self._fires: dict[int, int] = {}

    def apply(self, point: str, payload: Any,
              corrupt: Callable[[Any], Any] | None) -> Any:
        """Run the armed faults for ``point``.  Returns the payload —
        possibly replaced by a corrupt variant — after raising/delaying
        as configured."""
        for index, fault in enumerate(self.faults):
            if not fault.matches(point):
                continue
            if fault.max_fires is not None and \
                    self._fires.get(index, 0) >= fault.max_fires:
                continue
            if fault.probability < 1.0 and \
                    self.rng.random() >= fault.probability:
                continue
            self._fires[index] = self._fires.get(index, 0) + 1
            self.fired.append((point, fault.action))
            if fault.action == "delay":
                time.sleep(fault.delay_seconds)
            elif fault.action == "raise":
                raise ChaosError(point)
            elif corrupt is not None:  # "corrupt"
                payload = corrupt(payload)
            # "corrupt" at a site that offers no corrupt payload degrades
            # to a no-op: the site has nothing it could hand back wrong.
        return payload


#: The single installed policy.  ``None`` keeps :func:`chaos_point` to a
#: global load + comparison on the hot path.
_ACTIVE: ChaosPolicy | None = None


def chaos_point(point: str, payload: Any = None,
                corrupt: Callable[[Any], Any] | None = None) -> Any:
    """The engine-side hook.  With no policy installed this is a no-op
    returning ``payload`` unchanged; with one installed, the policy
    decides whether to raise, delay, or substitute ``corrupt(payload)``."""
    policy = _ACTIVE
    if policy is None:
        return payload
    return policy.apply(point, payload, corrupt)


def install_policy(policy: ChaosPolicy) -> None:
    global _ACTIVE
    _ACTIVE = policy


def uninstall_policy() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_policy() -> ChaosPolicy | None:
    return _ACTIVE


@contextmanager
def chaos(*faults: Fault, seed: int = 0) -> Iterator[ChaosPolicy]:
    """Scoped installation: ``with chaos(Fault("relalg.join.probe")):``."""
    policy = ChaosPolicy(tuple(faults), seed=seed)
    install_policy(policy)
    try:
        yield policy
    finally:
        uninstall_policy()


# ----------------------------------------------------- cross-process arming
#
# Query-service workers are separate processes: a policy installed in the
# parent does not exist in the child.  The pool serializes the policy into
# the child's environment; the worker main() arms it before serving.

#: The environment variable a worker reads its chaos policy from.
CHAOS_ENV = "REPRO_CHAOS"


def policy_to_json(policy: ChaosPolicy) -> str:
    """The policy as a JSON string fit for :data:`CHAOS_ENV`."""
    import json

    return json.dumps({
        "seed": policy.seed,
        "faults": [
            {"point": fault.point, "action": fault.action,
             "probability": fault.probability,
             "delay_seconds": fault.delay_seconds,
             "max_fires": fault.max_fires}
            for fault in policy.faults
        ],
    })


def policy_from_json(raw: str) -> ChaosPolicy:
    """Rebuild a policy from :func:`policy_to_json` output.  Raises
    ``ValueError`` on anything malformed (a worker would rather die loudly
    at spawn than serve with a half-armed policy)."""
    import json

    data = json.loads(raw)
    if not isinstance(data, dict) or not isinstance(data.get("faults"), list):
        raise ValueError(f"chaos policy JSON must be an object with a "
                         f"'faults' list, got {raw!r}")
    faults = tuple(
        Fault(point=spec["point"], action=spec.get("action", "raise"),
              probability=spec.get("probability", 1.0),
              delay_seconds=spec.get("delay_seconds", 0.0),
              max_fires=spec.get("max_fires", 1))
        for spec in data["faults"]
    )
    return ChaosPolicy(faults, seed=int(data.get("seed", 0)))


def install_policy_from_env() -> ChaosPolicy | None:
    """Arm the policy serialized in :data:`CHAOS_ENV`, if any — the worker
    process's half of the cross-process handshake.  Returns the installed
    policy (or ``None`` when the variable is unset)."""
    import os

    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return None
    policy = policy_from_json(raw)
    install_policy(policy)
    return policy
