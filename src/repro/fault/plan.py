"""Deterministic fault injection: seeded plans of scheduled failures.

The fault-tolerance layer (execution guards, worker recovery,
crash-safe persistence) exists for events that are rare and
non-deterministic in production: a pathological schedule hanging the
interpreter, a fork worker dying, a power cut truncating a cache file.
Testing recovery paths against *real* occurrences of those events is
hopeless, so this module makes failure an injectable, replayable input:

* :class:`FaultEvent` — one scheduled fault: a *site* (``"exec"``,
  ``"worker"``, ``"write"``, ``"respawn"``), the 1-based *occurrence* of
  the guarded call at that site it fires on, and the fault *kind*
  (``"timeout"``, ``"error"``, ``"kill"``, ``"partial_write"``,
  ``"fail"``).
* :class:`FaultPlan` — a set of events plus per-site occurrence
  counters.  Injection points call :meth:`FaultPlan.draw` (which counts
  one occurrence and returns the fault to inject, if any); identical
  plans driven through identical code paths fire identically, so a
  recovered run can be asserted reward-identical to a fault-free run.
  Plans are built explicitly, parsed from a compact CLI spec
  (:meth:`FaultPlan.parse`, the ``repro train --chaos`` argument), or
  randomized from a seed (:func:`random_plan`, the hypothesis-test
  entry point).

Installation: components accept an explicit ``plan=``; the module-level
:func:`install_plan` / :func:`active_plan` registry backs the CLI path
where threading a plan through every constructor is impractical.  The
registry is parent-process-only — forked children start with no plan
(see :func:`_clear_plan_after_fork`) so a worker never double-fires
events the rollout pool drives from the parent.  Exec events therefore
fire only where executions run in the parent: in-process collection,
not ``--workers`` pool workers.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

#: site -> fault kinds that may fire there
SITE_KINDS = {
    "exec": ("timeout", "error"),
    "worker": ("kill",),
    "write": ("partial_write",),
    "respawn": ("fail",),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` on the ``occurrence``-th
    guarded call at ``site`` (1-based)."""

    site: str
    occurrence: int
    kind: str

    def __post_init__(self) -> None:
        kinds = SITE_KINDS.get(self.site)
        if kinds is None:
            raise ValueError(
                f"unknown fault site {self.site!r}; one of {sorted(SITE_KINDS)}"
            )
        if self.kind not in kinds:
            raise ValueError(
                f"fault kind {self.kind!r} cannot fire at site "
                f"{self.site!r}; one of {kinds}"
            )
        if self.occurrence < 1:
            raise ValueError(
                f"occurrences are 1-based, got {self.occurrence}"
            )


@dataclass
class FiredFault:
    """Telemetry: one event that actually fired."""

    site: str
    occurrence: int
    kind: str
    context: str = ""


class FaultPlan:
    """A deterministic schedule of injected faults.

    Thread-safe: occurrence counters are lock-protected, so guarded
    executors on several threads draw a consistent global order.  Each
    event fires at most once; :attr:`fired` records what actually fired
    (with the context string the injection point supplied), and
    :meth:`exhausted` says whether every scheduled event has fired —
    the chaos-smoke assertion that a run actually exercised its plan.
    """

    def __init__(self, events: Iterator[FaultEvent] | list[FaultEvent] = ()):
        self.events = tuple(events)
        by_site: dict[str, dict[int, FaultEvent]] = {}
        for event in self.events:
            slot = by_site.setdefault(event.site, {})
            if event.occurrence in slot:
                raise ValueError(
                    f"two events scheduled for {event.site!r} occurrence "
                    f"{event.occurrence}"
                )
            slot[event.occurrence] = event
        self._by_site = by_site
        self._counters: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        self._lock = threading.Lock()

    def draw(self, site: str, context: str = "") -> str | None:
        """Count one occurrence at ``site``; the fault kind to inject
        now, or None."""
        with self._lock:
            count = self._counters.get(site, 0) + 1
            self._counters[site] = count
            event = self._by_site.get(site, {}).get(count)
            if event is None:
                return None
            self.fired.append(
                FiredFault(site, count, event.kind, context)
            )
            return event.kind

    def occurrences(self, site: str) -> int:
        """How many guarded calls have been counted at ``site``."""
        with self._lock:
            return self._counters.get(site, 0)

    def exhausted(self) -> bool:
        """True when every scheduled event has fired."""
        with self._lock:
            return len(self.fired) == len(self.events)

    def pending(self) -> list[FaultEvent]:
        """Events that have not fired yet."""
        with self._lock:
            fired = {(f.site, f.occurrence) for f in self.fired}
        return [
            e for e in self.events if (e.site, e.occurrence) not in fired
        ]

    def reset(self) -> None:
        """Rewind all counters and telemetry (reuse one plan twice)."""
        with self._lock:
            self._counters.clear()
            self.fired.clear()

    def report(self) -> str:
        """Human-readable summary of fired / pending events."""
        lines = [f"fault plan: {len(self.fired)}/{len(self.events)} fired"]
        for fault in self.fired:
            suffix = f" ({fault.context})" if fault.context else ""
            lines.append(
                f"  fired   {fault.site}#{fault.occurrence}: "
                f"{fault.kind}{suffix}"
            )
        for event in self.pending():
            lines.append(
                f"  pending {event.site}#{event.occurrence}: {event.kind}"
            )
        return "\n".join(lines)

    # -- construction -----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact spec string (the ``--chaos``
        argument).

        Two token forms, comma-separated:

        * explicit events — ``site.kind@occurrence``, e.g.
          ``exec.timeout@3,worker.kill@2,write.partial_write@1``;
        * randomized counts — ``kills=N``, ``timeouts=N``, ``errors=N``,
          ``partial_writes=N`` placed by ``seed=S`` within the first
          ``horizon=H`` occurrences (defaults: seed 0, horizon 12).

        A path to a JSON file written by :meth:`to_json` also works.
        """
        spec = spec.strip()
        if not spec:
            return cls()
        path = Path(spec)
        if spec.endswith(".json") or path.is_file():
            return cls.from_json(path.read_text())
        events: list[FaultEvent] = []
        counts = {"kills": 0, "timeouts": 0, "errors": 0, "partial_writes": 0}
        seed, horizon = 0, 12
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "@" in token:
                site_kind, _, occurrence = token.partition("@")
                site, _, kind = site_kind.partition(".")
                events.append(FaultEvent(site, int(occurrence), kind))
            elif "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                if key == "seed":
                    seed = int(value)
                elif key == "horizon":
                    horizon = int(value)
                elif key in counts:
                    counts[key] = int(value)
                else:
                    raise ValueError(
                        f"unknown chaos token {token!r}; counts are "
                        f"{sorted(counts)} plus seed=/horizon="
                    )
            else:
                raise ValueError(
                    f"cannot parse chaos token {token!r}; expected "
                    "site.kind@occurrence or key=value"
                )
        if any(counts.values()):
            events.extend(
                _randomized_events(counts, seed=seed, horizon=horizon)
            )
        return cls(events)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            FaultEvent(row["site"], int(row["occurrence"]), row["kind"])
            for row in payload.get("events", [])
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "events": [
                    {
                        "site": e.site,
                        "occurrence": e.occurrence,
                        "kind": e.kind,
                    }
                    for e in self.events
                ]
            },
            indent=2,
            sort_keys=True,
        )

    def __repr__(self) -> str:
        tokens = ",".join(
            f"{e.site}.{e.kind}@{e.occurrence}" for e in self.events
        )
        return f"FaultPlan({tokens!r})"


def _randomized_events(
    counts: dict[str, int], seed: int, horizon: int
) -> list[FaultEvent]:
    """Place ``counts`` faults at seed-drawn distinct occurrences."""
    rng = np.random.default_rng(seed)
    sites = {
        "kills": ("worker", "kill"),
        "timeouts": ("exec", "timeout"),
        "errors": ("exec", "error"),
        "partial_writes": ("write", "partial_write"),
    }
    events: list[FaultEvent] = []
    taken: dict[str, set[int]] = {}
    for name in sorted(counts):  # fixed draw order: deterministic
        number = counts[name]
        if not number:
            continue
        site, kind = sites[name]
        used = taken.setdefault(site, set())
        free = [o for o in range(1, horizon + 1) if o not in used]
        if number > len(free):
            raise ValueError(
                f"{number} {name} do not fit in horizon {horizon} "
                f"({len(free)} free occurrences at site {site!r})"
            )
        for occurrence in rng.choice(len(free), size=number, replace=False):
            chosen = free[int(occurrence)]
            used.add(chosen)
            events.append(FaultEvent(site, chosen, kind))
    return events


def random_plan(
    seed: int,
    max_kills: int = 2,
    max_timeouts: int = 2,
    max_errors: int = 2,
    max_partial_writes: int = 2,
    horizon: int = 10,
) -> FaultPlan:
    """A seed-deterministic random plan (the property-test generator)."""
    rng = np.random.default_rng(seed)
    counts = {
        "kills": int(rng.integers(0, max_kills + 1)),
        "timeouts": int(rng.integers(0, max_timeouts + 1)),
        "errors": int(rng.integers(0, max_errors + 1)),
        "partial_writes": int(rng.integers(0, max_partial_writes + 1)),
    }
    return FaultPlan(
        _randomized_events(counts, seed=seed + 1, horizon=horizon)
    )


# ---------------------------------------------------------------------------
# Process-wide installation (the CLI path)
# ---------------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` as the process-wide default (None uninstalls).

    Injection sites that were not handed an explicit plan consult this
    registry; with nothing installed (the default) every site is a
    single ``is None`` check, so the fault-free path stays free.
    """
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> FaultPlan | None:
    """The installed process-wide plan, if any."""
    return _ACTIVE


@contextmanager
def chaos(plan: FaultPlan):
    """Install ``plan`` for the duration of a with-block (tests)."""
    previous = _ACTIVE
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def _clear_plan_after_fork() -> None:
    """Forked children never inherit the parent's plan.

    Injection is parent-driven: the rollout pool kills workers and the
    parent's guards/writers fire exec/write events.  A child that kept
    the plan would double-fire the same occurrences on its own guarded
    calls, making recovery non-deterministic.
    """
    global _ACTIVE
    _ACTIVE = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_clear_plan_after_fork)


__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FiredFault",
    "SITE_KINDS",
    "active_plan",
    "chaos",
    "install_plan",
    "random_plan",
]
