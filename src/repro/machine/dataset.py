"""Cache→dataset exporter and cost-model plumbing.

The schedule level of the :class:`~repro.machine.service.ExecutionCache`
already accumulates exactly what a learned cost model trains on: its
keys are identity-free (machine spec, structural function fingerprint,
whole-function schedule state) tuples and its values the measured
whole-function timings.  This module turns those entries into a
fixed-layout numeric dataset and provides the consumer of a trained
model:

* :func:`sample_features` — the deterministic feature pipeline: a
  machine block (:meth:`~repro.machine.spec.MachineSpec.features`, the
  same descriptor RL observations condition on), a program block
  derived from the function fingerprint (per-op loop bounds, access
  counts, body costs), and a schedule block derived from the schedule
  key (per-op extents, loop order, tile bands, parallel/vector/fusion
  state).  Everything is computed from structural tuples — no live IR
  objects — so the same cache contents featurize byte-identically
  across runs and processes.
* :func:`export_dataset` / :class:`CostDataset` — drain a cache into
  (features, log-runtime) training pairs, sorted canonically.
* :func:`build_corpus` — sweep generator programs (plus any explicitly
  provided functions) through random legal schedules on a caching
  executor, populating the cache the exporter drains.
* :class:`ScheduleCostEvaluator` — batched candidate scoring for
  greedy/beam search: one model forward pass ranks a whole expansion
  without lowering or timing anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from ..ir.ops import FuncOp
from ..transforms.pipeline import ScheduledFunction
from ..transforms.records import Transformation
from ..transforms.scheduled_op import TransformError
from .executor import Executor
from .persist import encode_value
from .service import CachingExecutor, ExecutionCache, func_fingerprint
from .spec import MACHINE_FEATURE_SIZE, XEON_E5_2680_V4, MachineSpec

#: Bump when the feature layout below changes: saved models record the
#: version they were trained with, and consumers refuse to score with a
#: stale layout.
FEATURE_VERSION = 1

#: Fixed feature-layout sizes.  Ops/dims/bands beyond the caps fold into
#: the aggregate block (never silently change the vector length).
MAX_OPS = 8
MAX_DIMS = 8
MAX_BANDS = 3

#: Per-op program block: loop count, per-dim log bounds, access/write
#: counts, body flops/uops, reduction-dim count.
PROGRAM_OP_FEATURES = 1 + MAX_DIMS + 5
#: Loop slots encoded per tile band (beyond them: folded into counts).
BAND_LOOPS = 4
#: Per-band features: parallel flag + loop count + per-loop detail
#: (which dim, log trip, log tile, parallel) — locality depends on
#: *which* dims are tiled at what sizes, so bands are not aggregated.
BAND_FEATURES = 2 + 4 * BAND_LOOPS
#: Per-op schedule block: presence flag, per-dim log extents, loop
#: order, band count + per-band detail, vector/fusion flags,
#: annotation count.
SCHEDULE_OP_FEATURES = (
    1 + MAX_DIMS + MAX_DIMS + 1 + MAX_BANDS * BAND_FEATURES + 4
)
#: Function-level aggregates: op count, overflow ops, log total points,
#: log total flops, log baseline seconds.  The baseline anchor is the
#: load-bearing one: the model only has to learn a schedule's *relative*
#: effect, not absolute runtime scale across programs spanning orders of
#: magnitude (at search time it costs one real baseline probe per
#: function, amortized over every candidate scored).
GLOBAL_FEATURES = 5

#: Length of one cost-model input row.
FEATURE_SIZE = (
    MACHINE_FEATURE_SIZE
    + GLOBAL_FEATURES
    + MAX_OPS * PROGRAM_OP_FEATURES
    + MAX_OPS * SCHEDULE_OP_FEATURES
)

_LOG_EXTENT_SCALE = 20.0   # matches the env's loop-bound log scaling
_LOG_FLOPS_SCALE = 50.0


def _log2(value: float, scale: float) -> float:
    return math.log2(1.0 + max(0.0, float(value))) / scale


def _program_op_block(op_entry: tuple) -> list[float]:
    """Features of one fingerprinted (unscheduled) op."""
    num_loops, bounds, accesses, _results, flops, uops, reductions = op_entry
    block = [num_loops / 12.0]
    for dim in range(MAX_DIMS):
        block.append(
            _log2(bounds[dim], _LOG_EXTENT_SCALE) if dim < len(bounds) else 0.0
        )
    writes = sum(1 for access in accesses if access[3])
    block += [
        len(accesses) / 14.0,
        writes / 2.0,
        _log2(flops, 10.0),
        _log2(uops, 10.0),
        len(reductions) / 4.0,
    ]
    return block


@lru_cache(maxsize=1 << 12)
def _extent_features(extents: tuple) -> tuple[float, ...]:
    part = [
        math.log2(1 + extent) / _LOG_EXTENT_SCALE
        for extent in extents[:MAX_DIMS]
    ]
    return tuple(part + [0.0] * (MAX_DIMS - len(part)))


@lru_cache(maxsize=1 << 12)
def _order_features(order: tuple) -> tuple[float, ...]:
    part = [(position + 1) / 12.0 for position in order[:MAX_DIMS]]
    return tuple(part + [0.0] * (MAX_DIMS - len(part)))


@lru_cache(maxsize=1 << 12)
def _band_features(band: tuple) -> tuple[float, ...]:
    log2 = math.log2
    parallel, loops = band
    part = [1.0 if parallel else 0.0, len(loops) / 4.0]
    for dim, trip, tile, loop_parallel in loops[:BAND_LOOPS]:
        part += [
            (dim + 1) / 12.0,
            log2(1 + trip) / _LOG_EXTENT_SCALE,
            log2(1 + tile) / _LOG_EXTENT_SCALE,
            1.0 if loop_parallel else 0.0,
        ]
    return tuple(part + [0.0] * (BAND_FEATURES - len(part)))


_NO_BAND = (0.0,) * BAND_FEATURES


def clear_feature_caches() -> None:
    """Empty the by-value part caches above, so the next scoring run
    featurizes from cold."""
    for part in (_extent_features, _order_features, _band_features):
        part.cache_clear()


def _schedule_op_block(state: tuple | None) -> list[float]:
    """Features of one op's schedule state (state_key tuple), or zeros
    for a never-scheduled op (baseline lowering).

    Hot path of candidate scoring (every beam expansion builds exactly
    one novel op block; the rest hit the evaluator's memo).  A novel
    block mostly inherits its extents, loop order and tile bands from
    the parent state, so those parts are cached by value; state
    components are non-negative ints straight from ``state_key``.
    """
    if state is None:
        return [0.0] * SCHEDULE_OP_FEATURES
    extents, order, bands, vectorized, fused_into, fused, annotations = state
    block = [1.0]
    block += _extent_features(extents)
    block += _order_features(order)
    block.append(len(bands) / 4.0)
    for index in range(MAX_BANDS):
        block += (
            _band_features(bands[index]) if index < len(bands) else _NO_BAND
        )
    block += [
        1.0 if vectorized else 0.0,
        1.0 if fused_into else 0.0,
        len(fused) / 4.0,
        len(annotations) / 4.0,
    ]
    return block


def _static_blocks(
    spec: MachineSpec, fingerprint: tuple, baseline_seconds: float
) -> list[float]:
    """Machine + global + program blocks (schedule-independent)."""
    values: list[float] = list(spec.features())
    total_points = 0.0
    total_flops = 0.0
    for op_entry in fingerprint:
        points = 1.0
        for bound in op_entry[1]:
            points *= bound
        total_points += points
        total_flops += points * op_entry[4]
    values += [
        min(len(fingerprint), 4 * MAX_OPS) / float(2 * MAX_OPS),
        max(0, len(fingerprint) - MAX_OPS) / float(2 * MAX_OPS),
        _log2(total_points, 2 * _LOG_EXTENT_SCALE),
        _log2(total_flops, _LOG_FLOPS_SCALE),
        math.log(max(baseline_seconds, 1e-12)) / 20.0,
    ]
    for index in range(MAX_OPS):
        if index < len(fingerprint):
            values += _program_op_block(fingerprint[index])
        else:
            values += [0.0] * PROGRAM_OP_FEATURES
    return values


def _schedule_blocks(state: tuple | None) -> list[float]:
    """All MAX_OPS schedule blocks for one whole-function state."""
    blocks: list[float] = []
    for index in range(MAX_OPS):
        op_state = (
            state[index] if state is not None and index < len(state) else None
        )
        blocks += _schedule_op_block(op_state)
    return blocks


def sample_features(
    spec: MachineSpec,
    fingerprint: tuple,
    state: tuple | None,
    baseline_seconds: float,
) -> np.ndarray:
    """One cost-model input row for (machine, program, schedule).

    ``fingerprint`` is :func:`~repro.machine.service.func_fingerprint`
    output; ``state`` is
    :meth:`~repro.transforms.pipeline.ScheduledFunction.schedule_key`
    output, or None for the baseline (unscheduled) lowering;
    ``baseline_seconds`` is the program's unscheduled runtime on
    ``spec`` (the scale anchor).
    """
    return np.asarray(
        _static_blocks(spec, fingerprint, baseline_seconds)
        + _schedule_blocks(state),
        dtype=np.float32,
    )


# ---------------------------------------------------------------------------
# Dataset export
# ---------------------------------------------------------------------------


@dataclass
class CostDataset:
    """A cost-model training set: feature rows and log-runtime targets."""

    features: np.ndarray    # (n, FEATURE_SIZE) float32
    targets: np.ndarray     # (n,) float32, log(seconds)
    feature_version: int = FEATURE_VERSION

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def save(self, path: str | Path) -> None:
        np.savez(
            path,
            features=self.features,
            targets=self.targets,
            feature_version=np.asarray([self.feature_version]),
        )

    @staticmethod
    def load(path: str | Path) -> "CostDataset":
        with np.load(path) as data:
            return CostDataset(
                features=data["features"],
                targets=data["targets"],
                feature_version=int(data["feature_version"][0]),
            )


def export_dataset(cache: ExecutionCache) -> CostDataset:
    """Drain a cache's schedule-level entries into a training set.

    Every (spec, fingerprint, schedule state) → breakdown entry becomes
    one (features, log seconds) pair; baseline entries contribute
    all-zero schedule blocks.  The baseline-anchor feature is joined
    from the cache's own baseline entry for the same (spec,
    fingerprint, hooks) — scheduled entries without one are skipped
    (:func:`build_corpus` always baselines first).  Rows are sorted by
    the canonical JSON encoding of their keys, so the same cache
    contents always export a byte-identical dataset — across runs and
    across fork workers.  Entries with non-positive timings or
    unencodable keys are skipped.
    """
    items = [
        (key, breakdown)
        for level, key, breakdown in cache.entries()
        if level == "schedule"
    ]
    baselines: dict[tuple, float] = {}
    for key, breakdown in items:
        if (
            isinstance(key, tuple)
            and len(key) == 4
            and key[0] == "baseline"
            and breakdown.total > 0.0
        ):
            baselines[(key[1], key[2], key[3])] = breakdown.total
    rows: list[tuple[str, np.ndarray, float]] = []
    for key, breakdown in items:
        parsed = _parse_schedule_key(key)
        if parsed is None or breakdown.total <= 0.0:
            continue
        spec, fingerprint, state = parsed
        baseline_seconds = baselines.get((spec, fingerprint, key[-1]))
        if baseline_seconds is None:
            continue
        try:
            sort_key = json.dumps(encode_value(key), sort_keys=True)
        except ValueError:
            continue
        rows.append(
            (
                sort_key,
                sample_features(spec, fingerprint, state, baseline_seconds),
                math.log(breakdown.total),
            )
        )
    rows.sort(key=lambda row: row[0])
    if not rows:
        return CostDataset(
            features=np.zeros((0, FEATURE_SIZE), dtype=np.float32),
            targets=np.zeros((0,), dtype=np.float32),
        )
    features = np.stack([row[1] for row in rows])
    targets = np.asarray([row[2] for row in rows], dtype=np.float32)
    return CostDataset(features=features, targets=targets)


def _parse_schedule_key(
    key: tuple,
) -> tuple[MachineSpec, tuple, tuple | None] | None:
    """(spec, fingerprint, state|None) from a schedule-level cache key."""
    if not isinstance(key, tuple) or not key:
        return None
    if key[0] == "baseline" and len(key) == 4:
        _tag, spec, fingerprint, _hooks = key
        state = None
    elif key[0] == "scheduled" and len(key) == 5:
        _tag, spec, fingerprint, state, _hooks = key
    else:
        return None
    if not isinstance(spec, MachineSpec) or not isinstance(fingerprint, tuple):
        return None
    return spec, fingerprint, state


# ---------------------------------------------------------------------------
# Corpus builder
# ---------------------------------------------------------------------------


def _random_walk(
    func: FuncOp,
    rng: np.random.Generator,
    config,
    max_steps: int,
    executor: CachingExecutor,
) -> None:
    """One random legal schedule walk, timing **every prefix state**.

    Search expands schedules step by step, so the cost model must rank
    partial schedules, not just finished ones: each applied transform is
    followed by a whole-function timing, landing one schedule-cache
    entry per prefix (the cache dedups revisited states by key).
    """
    from ..transforms.registry import spec_for_record, view_for

    view = view_for(config)
    scheduled = ScheduledFunction(func)
    for op in func.body:
        schedule = scheduled.schedule_of(op)
        if schedule.num_loops > config.max_loops:
            continue
        steps = int(rng.integers(0, max_steps + 1))
        for _ in range(steps):
            schedule = scheduled.schedule_of(op)
            if schedule.is_terminal():
                break
            candidates: list[Transformation] = []
            has_producer = scheduled.fusable_producer_of(op) is not None
            for transform_spec in view.by_search_priority():
                candidates.extend(
                    transform_spec.search_candidates(
                        schedule, has_producer, config
                    )
                )
            if not candidates:
                break
            record = candidates[int(rng.integers(len(candidates)))]
            try:
                scheduled.apply(op, record)
            except TransformError:
                continue
            executor.run_scheduled(scheduled)
            record_spec = spec_for_record(type(record))
            if record_spec is not None and record_spec.ends_op:
                break


def build_corpus(
    num_programs: int = 64,
    schedules_per_program: int = 4,
    seed: int = 0,
    machine: MachineSpec | str = XEON_E5_2680_V4,
    config=None,
    extra_programs: Sequence[FuncOp] = (),
    cache: ExecutionCache | None = None,
) -> ExecutionCache:
    """Populate (and return) an execution cache with timed schedules.

    Sweeps ``num_programs`` generator programs plus ``extra_programs``
    (e.g. the Table-II training suite): each is baseline-timed and then
    run under ``schedules_per_program`` random legal schedules through a
    :class:`~repro.machine.service.CachingExecutor`, so every timing
    lands in the schedule-level cache the exporter drains.  Fully
    deterministic in ``seed`` — the generator replays identically in
    fork workers, and schedule sampling consumes one rng stream.
    """
    from ..datasets.generator import generate_program

    if config is None:
        from ..env.config import PAPER_CONFIG

        config = PAPER_CONFIG
    if isinstance(machine, str):
        from .registry import spec as resolve

        machine = resolve(machine)
    # The exporter joins every scheduled entry with its program's
    # baseline entry; LRU eviction would silently sever that join (the
    # baselines are the *oldest* entries), so the corpus cache is sized
    # far above any realistic collection run instead of the service
    # default tuned for training steps.
    executor = CachingExecutor(
        machine,
        cache=cache if cache is not None else ExecutionCache(maxsize=1 << 20),
    )
    rng = np.random.default_rng(seed)
    programs = [generate_program(rng) for _ in range(num_programs)]
    programs += list(extra_programs)
    for func in programs:
        executor.run_baseline(func)
        for _ in range(schedules_per_program):
            _random_walk(
                func, rng, config, config.max_schedule_length, executor
            )
    return executor.cache


# ---------------------------------------------------------------------------
# Model consumers: search evaluator + executor
# ---------------------------------------------------------------------------


class CostPredictor(Protocol):
    """What this module needs from a trained model (see
    :class:`repro.nn.cost_model.CostModel`)."""

    feature_version: int

    def predict_seconds(self, features: np.ndarray) -> np.ndarray:
        ...


def check_model_compatible(model: CostPredictor) -> None:
    """Raise when a model was trained on a different feature layout."""
    version = getattr(model, "feature_version", None)
    if version != FEATURE_VERSION:
        raise ValueError(
            f"cost model was trained with feature layout v{version}, "
            f"this build expects v{FEATURE_VERSION}; re-run "
            "`repro cost-export` + `repro cost-train`"
        )


@dataclass
class CostEvalStats:
    """Telemetry of one evaluator: batched forward-pass accounting."""

    batches: int = 0
    scored: int = 0
    fallbacks: int = 0

    def snapshot(self) -> dict:
        return {
            "batches": self.batches,
            "scored": self.scored,
            "fallbacks": self.fallbacks,
        }


class ScheduleCostEvaluator:
    """Batched cost-model scoring of candidate schedule states.

    ``score_batch`` featurizes every keyable candidate — reusing the
    schedule keys the caller already computed for deduplication when
    given — and ranks the whole expansion with **one** model forward
    pass.  Unkeyable candidates score None; callers fall back to real
    evaluation for those.

    Per-candidate work is a handful of dict lookups: the static
    (machine + program + baseline-anchor) prefix is memoized per
    function fingerprint (the baseline anchor costs one real
    ``run_baseline`` per function — pass the search's caching executor
    to make it a cache hit), and per-op schedule blocks are memoized by
    state tuple, since beam expansions differ from their parent in one
    op only.
    """

    def __init__(
        self,
        model: CostPredictor,
        spec: MachineSpec,
        executor: Executor | None = None,
    ):
        check_model_compatible(model)
        self.model = model
        self.spec = spec
        self.executor = executor if executor is not None else Executor(spec)
        self.stats = CostEvalStats()
        self._static_size = MACHINE_FEATURE_SIZE + GLOBAL_FEATURES + (
            MAX_OPS * PROGRAM_OP_FEATURES
        )
        self._prefix_memo: dict[int, np.ndarray] = {}
        self._block_memo: dict[tuple | None, np.ndarray] = {
            None: np.asarray(_schedule_op_block(None), dtype=np.float32)
        }

    def _op_block(self, op_state: tuple | None) -> np.ndarray:
        block = self._block_memo.get(op_state)
        if block is None:
            block = np.asarray(
                _schedule_op_block(op_state), dtype=np.float32
            )
            self._block_memo[op_state] = block
        return block

    def _prefix(self, scheduled: ScheduledFunction) -> np.ndarray | None:
        fingerprint = func_fingerprint(scheduled.func)
        if fingerprint is None:
            return None
        prefix = self._prefix_memo.get(id(fingerprint))
        if prefix is None:
            baseline = self.executor.run_baseline(scheduled.func).seconds
            prefix = np.asarray(
                _static_blocks(self.spec, fingerprint, baseline),
                dtype=np.float32,
            )
            self._prefix_memo[id(fingerprint)] = prefix
        return prefix

    def score_batch(
        self,
        candidates: Sequence[ScheduledFunction],
        keys: Sequence[tuple | None] | None = None,
    ) -> list[float | None]:
        """Predicted whole-function seconds per candidate (None when the
        candidate cannot be keyed/featurized)."""
        scores: list[float | None] = [None] * len(candidates)
        # Zero rows: a never-scheduled op's block is all zeros, so only
        # the prefix and the scheduled ops' blocks are written.
        batch = np.zeros((len(candidates), FEATURE_SIZE), dtype=np.float32)
        static = self._static_size
        width = SCHEDULE_OP_FEATURES
        filled = 0
        positions: list[int] = []
        func: FuncOp | None = None
        prefix: np.ndarray | None = None
        for index, scheduled in enumerate(candidates):
            state = keys[index] if keys is not None else None
            if state is None:
                state = scheduled.schedule_key()
                if state is None:
                    self.stats.fallbacks += 1
                    continue
            if scheduled.func is not func:
                # one search's expansions all share one function
                func = scheduled.func
                prefix = self._prefix(scheduled)
            if prefix is None:
                self.stats.fallbacks += 1
                continue
            row = batch[filled]
            row[:static] = prefix
            start = static
            for op_state in state[:MAX_OPS]:
                if op_state is not None:
                    row[start : start + width] = self._op_block(op_state)
                start += width
            filled += 1
            positions.append(index)
        if filled:
            predictions = self.model.predict_seconds(batch[:filled])
            for position, seconds in zip(positions, predictions.tolist()):
                scores[position] = seconds
            self.stats.batches += 1
            self.stats.scored += filled
        return scores


class RecordingEvaluator:
    """Corpus-collection evaluator: scores candidates with **real**
    whole-function timings through a caching executor.

    Plugging this into a beam/greedy agent makes every search-visited
    state land in the executor's schedule-level cache — training data
    drawn from exactly the distribution model-guided search must later
    discriminate over (random walks alone skew toward bad schedules;
    search spends its time choosing among good ones).
    """

    def __init__(self, executor: Executor):
        self.executor = executor

    def score_batch(
        self,
        candidates: Sequence[ScheduledFunction],
        keys: Sequence[tuple | None] | None = None,
    ) -> list[float | None]:
        del keys
        return [
            self.executor.run_scheduled(scheduled).seconds
            for scheduled in candidates
        ]
