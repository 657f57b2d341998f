"""Outside-in tracer: spans around calls into each layer's public functions.

The tracer never edits ``src/``.  :meth:`Tracer.install` replaces each
traced function by a timing wrapper at every place it is bound by name:
the class attribute for methods, and for module-level functions every
loaded ``repro`` module whose namespace holds the same object (``nest_time``
is imported by name into four modules, and a wrapper in only one of them
would miss the calls made through the others).  :meth:`Tracer.uninstall`
puts every original back.

Spans (name, start, end, parent) stay in memory until :meth:`Tracer.write`.
Self time (a span's duration minus the time its direct children cover),
call counts and parent/child call pairs are also accumulated per phase as
spans close, so reports need no second pass over the span list.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (span name, "module:qualified.name") of every traced function.  Several
#: functions may share a span name; their self times add up.
TRACED = (
    ("rl.collect", "repro.rl.ppo:PPOTrainer.collect"),
    ("rl.update", "repro.rl.ppo:PPOTrainer.update"),
    ("rl.act", "repro.rl.agent:ActorCritic.act"),
    ("rl.act", "repro.rl.agent:ActorCritic.act_batch"),
    ("rl.evaluate", "repro.rl.agent:ActorCritic.evaluate"),
    ("nn.backward", "repro.nn.tensor:Tensor.backward"),
    ("nn.adam_step", "repro.nn.optim:Adam.step"),
    ("env.reset", "repro.env.environment:MlirRlEnv.reset"),
    ("env.step", "repro.env.environment:MlirRlEnv.step"),
    ("env.mask_lookup", "repro.env.masking:MaskCache.lookup"),
    ("env.compute_mask", "repro.env.masking:compute_mask"),
    ("env.features", "repro.env.features:op_features"),
    ("machine.run_scheduled", "repro.machine.service:CachingExecutor.run_scheduled"),
    ("machine.run_baseline", "repro.machine.service:CachingExecutor.run_baseline"),
    ("machine.nest_time", "repro.machine.timing:nest_time"),
    ("transforms.apply", "repro.transforms.pipeline:ScheduledFunction.apply"),
    ("transforms.clone", "repro.transforms.pipeline:ScheduledFunction.clone"),
    (
        "transforms.schedule_key",
        "repro.transforms.pipeline:ScheduledFunction.schedule_key",
    ),
    ("transforms.lower", "repro.transforms.pipeline:ScheduledFunction.lower"),
    ("transforms.lower", "repro.transforms.lowering:lower_scheduled_op"),
    ("baselines.optimize", "repro.baselines.reference_agent:BeamSearchAgent.optimize"),
    ("datasets.draw", "repro.datasets.generator:sample_spec"),
    ("datasets.draw", "repro.datasets.generator:emit"),
    ("datasets.draw", "repro.datasets.registry:training_dataset"),
)


def resolve(target: str):
    """(owner, attribute name, object) for a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Records spans around traced calls.

    A tracer that was never installed records nothing, so workloads can
    set :attr:`phase` unconditionally.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: label stamped on every span that starts while it is set
        self.phase = "setup"
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.self_seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.total_seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: (phase, parent span name, child span name) -> calls
        self.pair_calls: dict[tuple[str, str, str], int] = defaultdict(int)
        #: phase -> seconds covered by spans without a parent
        self.top_seconds: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- patching ---------------------------------------------------------------

    def install(self, traced=TRACED) -> None:
        """Wrap every traced function wherever it is bound by name."""
        for name, target in traced:
            owner, attribute, original = resolve(target)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if not (module_name == "repro" or module_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        self.enabled = True

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        owned = attribute in vars(owner)
        self._patches.append((owner, attribute, original, owned))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding (idempotent)."""
        self.enabled = False
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            return tracer._call(name, function, args, kwargs)

        return traced

    # -- recording ----------------------------------------------------------------

    def _call(self, name: str, function, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        phase = self.phase
        frame = [name, 0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            key = (phase, name)
            self.self_seconds[key] += duration - frame[1]
            self.total_seconds[key] += duration
            self.calls[key] += 1
            if parent is None:
                self.top_seconds[phase] += duration
                parent_id = -1
            else:
                parent[1] += duration
                parent_id = parent[2]
                self.pair_calls[(phase, parent[0], name)] += 1
            self.spans.append((span_id, name, start, end, parent_id, phase))

    # -- reading ------------------------------------------------------------------

    def self_time(self, phase: str, *names: str) -> float:
        return sum(self.self_seconds.get((phase, name), 0.0) for name in names)

    def total_time(self, phase: str, name: str) -> float:
        return self.total_seconds.get((phase, name), 0.0)

    def count(self, phase: str, name: str) -> int:
        return self.calls.get((phase, name), 0)

    def pair_count(self, phase: str, parent: str, child: str) -> int:
        return self.pair_calls.get((phase, parent, child), 0)

    def span_count(self, phase: str) -> int:
        return sum(n for (p, _), n in self.calls.items() if p == phase)

    def write(self, path: Path) -> None:
        """Write the spans as a compact ``.npz`` (ids, names, times, parents)."""
        import numpy as np

        spans = sorted(self.spans)
        names = sorted({span[1] for span in spans})
        phases = sorted({span[5] for span in spans})
        name_index = {name: i for i, name in enumerate(names)}
        phase_index = {phase: i for i, phase in enumerate(phases)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_id=np.array([s[0] for s in spans], dtype=np.int64),
            name=np.array([name_index[s[1]] for s in spans], dtype=np.int16),
            start=np.array([s[2] for s in spans], dtype=np.float64),
            end=np.array([s[3] for s in spans], dtype=np.float64),
            parent=np.array([s[4] for s in spans], dtype=np.int64),
            phase=np.array([phase_index[s[5]] for s in spans], dtype=np.int8),
            names=np.array(names),
            phases=np.array(phases),
        )

    def wrapper_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds over a plain call (calibrated here)."""

        def plain():
            return None

        traced = self._wrap("trace.calibration", plain)
        enabled, phase = self.enabled, self.phase
        self.enabled, self.phase = True, "calibration"
        spans = len(self.spans)
        try:
            start = time.perf_counter()
            for _ in range(calls):
                plain()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - start
        finally:
            self.enabled, self.phase = enabled, phase
            del self.spans[spans:]
        return max(wrapped - bare, 0.0) / calls
