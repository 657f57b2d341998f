"""Memoized execution service: schedule-keyed timing cache.

The cost model (:func:`repro.machine.timing.nest_time`) is deterministic,
so two structurally identical lowered nests always time the same.  Yet the
hot paths — RL reward evaluation, baselines, the benchmark harness — keep
re-timing identical schedules: every episode re-times the same baseline,
every pointer sub-step and no-op re-times an unchanged schedule, and
evaluation suites time the same nests across methods.

This module removes that redundancy with a two-level cache:

* :func:`nest_fingerprint` — a canonical structural key for a lowered
  nest: loop structure (dim/trip/span/parallel/vector/unroll flags), access
  matrices with tensor ids renamed to first-appearance indices, scalar
  body costs, reduction dims, and the full fused-producer tree with
  recompute factors.  Two nests with equal fingerprints are
  indistinguishable to the cost model.
* :func:`func_fingerprint` — a structural fingerprint of a whole
  function's unscheduled ops (canonical value ids capture the
  producer→consumer links).  Combined with
  :meth:`~repro.transforms.pipeline.ScheduledFunction.schedule_key` it
  keys the **schedule level**: a hit replays the stored whole-function
  timing without calling ``lower_function`` or ``nest_fingerprint`` at
  all — the per-step fast path of RL data collection.
* :class:`ExecutionCache` — the nest and schedule levels on one LRU
  implementation, plus hit/miss/eviction counters, lock-protected.
  :meth:`~ExecutionCache.entries` is its one listing of (identity-free,
  picklable) entries; :meth:`~ExecutionCache.drain_updates` /
  :meth:`~ExecutionCache.absorb_updates` ship new ones between rollout
  worker processes.
* :class:`CachingExecutor` — a drop-in :class:`~repro.machine.executor.
  Executor` that consults the schedule level first and falls back to
  per-nest timings through the nest level.  Cached and uncached results
  are bit-identical (the cache stores the exact breakdown the model
  produced).
* :func:`pooled_executor` — a per-spec shared ``CachingExecutor`` so
  independent consumers (baselines, evaluation runners, vectorized
  environments) share one cache within a process.  Thread-safe; forked
  children start from an empty pool.

Cache keys are full structural tuples, not hashes, so different nests or
schedules can never collide.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..ir.ops import FuncOp
from ..transforms.loop_nest import LoweredNest
from ..transforms.lowering import access_patterns, lower_baseline
from ..transforms.pipeline import ScheduledFunction
from ..transforms.registry import lowering_hooks
from .executor import ExecutionResult, Executor
from .spec import XEON_E5_2680_V4, MachineSpec
from .timing import TimingBreakdown, nest_time

Fingerprint = tuple


def _canonical_tensor_ids(nest: LoweredNest) -> dict[int, int]:
    """Rename raw ``id()``-based tensor ids to first-appearance indices.

    The renaming walks the nest and its fused producers in a fixed order,
    so two structurally identical nests built from different Python
    objects map to the same canonical ids.
    """
    mapping: dict[int, int] = {}

    def visit(node: LoweredNest) -> None:
        for access in node.accesses:
            if access.tensor_id not in mapping:
                mapping[access.tensor_id] = len(mapping)
        for fused in node.fused:
            visit(fused.nest)

    visit(nest)
    return mapping


def _fingerprint_with(nest: LoweredNest, ids: dict[int, int]) -> Fingerprint:
    loops = tuple(
        (
            loop.dim,
            loop.trip,
            loop.span,
            loop.parallel,
            loop.vector,
            loop.unroll,
        )
        for loop in nest.loops
    )
    accesses = tuple(
        (
            access.tensor_shape,
            access.element_bytes,
            access.matrix,
            access.is_write,
            ids[access.tensor_id],
        )
        for access in nest.accesses
    )
    fused = tuple(
        (
            _fingerprint_with(child.nest, ids),
            child.recompute,
            tuple(
                sorted(
                    ids[raw]
                    for raw in child.intermediate_ids
                    if raw in ids
                )
            ),
        )
        for child in nest.fused
    )
    return (
        loops,
        accesses,
        nest.flops_per_point,
        nest.arith_uops,
        tuple(sorted(nest.reduction_dims)),
        nest.vectorized,
        fused,
    )


def nest_fingerprint(nest: LoweredNest) -> Fingerprint:
    """Canonical structural key of a lowered nest (plus fused producers).

    Captures everything :func:`~repro.machine.timing.nest_time` reads;
    intermediate tensor ids that never appear in any access are dropped
    (they cannot affect traffic).
    """
    return _fingerprint_with(nest, _canonical_tensor_ids(nest))


_FUNC_FP_ATTR = "_repro_struct_fingerprint"


def func_fingerprint(func: FuncOp) -> Fingerprint | None:
    """Structural fingerprint of a function's unscheduled ops.

    Canonicalizes every value id to its first-appearance index across
    the whole body (operands then results, in body order), so two
    separately built but structurally identical functions — including
    their producer→consumer links, the input of the schedule-level
    cache's fusion semantics — share a fingerprint.  Cached on the
    function object (revalidated against the tuple of body op ids, so an
    appended op invalidates it).  Returns None when an op cannot be
    fingerprinted; callers then skip the schedule-keyed fast path.
    """
    token = tuple(id(op) for op in func.body)
    cached = getattr(func, _FUNC_FP_ATTR, None)
    if cached is not None and cached[0] == token:
        return cached[1]
    try:
        value_ids: dict[int, int] = {}

        def canonical(value: object) -> int:
            raw = id(value)
            if raw not in value_ids:
                value_ids[raw] = len(value_ids)
            return value_ids[raw]

        ops = []
        for op in func.body:
            for value in op.operands:
                canonical(value)
            for value in op.results:
                canonical(value)
            accesses = tuple(
                (
                    access.tensor_shape,
                    access.element_bytes,
                    access.matrix,
                    access.is_write,
                    value_ids[access.tensor_id],
                )
                for access in access_patterns(op)
            )
            ops.append(
                (
                    op.num_loops,
                    tuple(op.loop_bounds()),
                    accesses,
                    tuple(value_ids[id(result)] for result in op.results),
                    op.body.flops_per_point(),
                    op.body.arith_uops_per_point(),
                    tuple(op.reduction_dims()),
                )
            )
        fingerprint: Fingerprint = tuple(ops)
    except Exception:
        return None
    setattr(func, _FUNC_FP_ATTR, (token, fingerprint))
    return fingerprint


def _active_lowering_hooks() -> tuple[str, ...]:
    """Names of registered lowering hooks, part of every schedule key.

    Registering a plugin that post-processes lowered loops changes what
    a schedule state lowers to, so cached schedule-level entries from
    before the registration must not be replayed.
    """
    return tuple(sorted(spec.name for spec in lowering_hooks()))


@dataclass
class CacheStats:
    """Hit/miss telemetry of one :class:`ExecutionCache`.

    ``hits``/``misses`` count timing lookups at *both* levels: a
    schedule-level hit (whole function replayed without lowering)
    counts one hit, a schedule-level miss counts one miss **and** falls
    through to per-nest lookups which count individually.  The
    ``schedule_*`` fields break out the schedule level on its own.
    Evictions count every entry a level drops to stay within its size,
    whether a local insert or absorbed foreign entries overflowed it.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    schedule_hits: int = 0
    schedule_misses: int = 0
    schedule_evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def evaluations(self) -> int:
        """Cost-model evaluations actually performed (nest-level
        misses; a schedule-level miss alone evaluates nothing — it only
        falls through)."""
        return self.misses - self.schedule_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "requests": self.requests,
            "evaluations": self.evaluations,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "schedule_hits": self.schedule_hits,
            "schedule_misses": self.schedule_misses,
            "schedule_evictions": self.schedule_evictions,
        }


class CacheFormatError(ValueError):
    """A cache file is malformed: names the file and what offended.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    call sites keep working; new call sites can catch this precisely
    (and consult :attr:`path`/:attr:`detail`) or pass ``salvage=True``
    to :meth:`ExecutionCache.load` to recover the valid prefix instead.
    """

    def __init__(self, path, detail: str):
        super().__init__(f"cache file {path}: {detail}")
        self.path = Path(path)
        self.detail = detail


def _salvage_rows(text: str) -> list:
    """The longest valid prefix of entry rows in a truncated save file.

    Save files are one compact JSON object whose ``"entries"`` array
    holds one row per cache entry; a torn write cuts the array mid-row,
    making the whole document unparseable.  Walking rows with
    ``raw_decode`` recovers every complete row before the tear.
    """
    marker = '"entries":['
    start = text.find(marker)
    if start < 0:
        marker = '"entries": ['
        start = text.find(marker)
        if start < 0:
            return []
    decoder = json.JSONDecoder()
    position = start + len(marker)
    rows = []
    while position < len(text):
        while position < len(text) and text[position] in ", \t\n\r":
            position += 1
        if position >= len(text) or text[position] == "]":
            break
        try:
            row, position = decoder.raw_decode(text, position)
        except json.JSONDecodeError:
            break
        rows.append(row)
    return rows


class _LRU:
    """One bounded cache level: a lookup refreshes the entry's recency,
    an insert stores it as the most recent and drops the least recent
    entry past ``maxsize``.

    Unlocked and uncounted: :class:`ExecutionCache` holds its lock
    around every call and counts what :meth:`put` reports.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.entries: OrderedDict[tuple, TimingBreakdown] = OrderedDict()

    def get(self, key: tuple) -> TimingBreakdown | None:
        hit = self.entries.get(key)
        if hit is not None:
            self.entries.move_to_end(key)
        return hit

    def put(self, key: tuple, value: TimingBreakdown) -> bool:
        """Store ``value`` as most recent; True when an entry was evicted.

        ``move_to_end``: re-inserting a present key (say, a racing
        thread timed it meanwhile) must refresh its recency, or a fresh
        result keeps a stale LRU slot and is evicted as if old.
        """
        self.entries[key] = value
        self.entries.move_to_end(key)
        if len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
            return True
        return False


class ExecutionCache:
    """Two LRU levels of timing results.

    * **nest level** — (spec, :func:`nest_fingerprint`) → per-nest
      :class:`TimingBreakdown`.  Requires lowering the schedule and
      fingerprinting each nest, but shares structurally identical nests
      across schedules and functions.
    * **schedule level** — (spec, :func:`func_fingerprint`,
      :meth:`~repro.transforms.pipeline.ScheduledFunction.schedule_key`)
      → the summed function breakdown.  A hit skips ``lower_function``
      and ``nest_fingerprint`` entirely (the per-step fast path); a miss
      falls back to the nest level, so results are bit-identical either
      way.  ``schedule_maxsize=0`` disables it (nest-level-only
      semantics).

    Both keys are identity-free structural tuples, so entries are valid
    across processes.  :meth:`entries` lists every entry — the one
    listing that saving, dataset export and worker warm-starts read —
    and :meth:`drain_updates`/:meth:`absorb_updates` ship new entries
    between rollout workers.  All mutation is lock-protected, so one
    cache may be shared across threads.
    """

    def __init__(self, maxsize: int = 8192, schedule_maxsize: int | None = None):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self._levels = {
            "nest": _LRU(maxsize),
            "schedule": _LRU(
                maxsize if schedule_maxsize is None else schedule_maxsize
            ),
        }
        #: keys inserted locally since the last drain (for worker sync).
        #: Journaling starts at the first :meth:`drain_updates` call —
        #: the default single-process path never drains, and must not
        #: accumulate one key per miss for the process lifetime.
        self._updates: list[tuple[str, tuple]] = []
        self._journaling = False
        self._journal_overflow = False
        self._lock = threading.RLock()
        self.stats = CacheStats()

    @property
    def maxsize(self) -> int:
        return self._levels["nest"].maxsize

    @property
    def schedule_maxsize(self) -> int:
        return self._levels["schedule"].maxsize

    def __len__(self) -> int:
        return len(self._levels["nest"].entries)

    @property
    def schedule_entries(self) -> int:
        return len(self._levels["schedule"].entries)

    def _insert(self, level: str, key: tuple, value: TimingBreakdown) -> None:
        """The one insert path (caller holds the lock)."""
        if self._levels[level].put(key, value):
            if level == "nest":
                self.stats.evictions += 1
            else:
                self.stats.schedule_evictions += 1

    def _journal(self, level: str, key: tuple) -> None:
        """Record a local insert for the next drain (caller holds the lock)."""
        if not self._journaling:
            return
        self._updates.append((level, key))
        if len(self._updates) > self.maxsize + self.schedule_maxsize:
            # A consumer started draining but stopped: drop the journal
            # and fall back to a full export on the next drain.
            self._updates.clear()
            self._journal_overflow = True

    def timed(
        self, spec: MachineSpec, nest: LoweredNest
    ) -> TimingBreakdown:
        """The breakdown of ``nest`` under ``spec``, computed on miss."""
        key = (spec, nest_fingerprint(nest))
        with self._lock:
            hit = self._levels["nest"].get(key)
            if hit is not None:
                self.stats.hits += 1
                return hit
            self.stats.misses += 1
        breakdown = nest_time(
            nest, spec, skip_tensor_ids=nest.fused_skip_ids()
        )
        with self._lock:
            self._insert("nest", key, breakdown)
            self._journal("nest", key)
        return breakdown

    def schedule_get(self, key: tuple) -> TimingBreakdown | None:
        """Cached whole-function breakdown for a schedule key, if any."""
        if self.schedule_maxsize < 1:
            return None
        with self._lock:
            hit = self._levels["schedule"].get(key)
            if hit is None:
                self.stats.misses += 1
                self.stats.schedule_misses += 1
                return None
            self.stats.hits += 1
            self.stats.schedule_hits += 1
            return hit

    def schedule_put(self, key: tuple, breakdown: TimingBreakdown) -> None:
        if self.schedule_maxsize < 1:
            return
        with self._lock:
            self._insert("schedule", key, breakdown)
            self._journal("schedule", key)

    # -- listing and cross-worker sync ------------------------------------------

    def entries(self) -> list[tuple[str, tuple, TimingBreakdown]]:
        """Every entry as a (level, key, breakdown) triple: the nest
        level, then the schedule level, each least recent first.

        The triples are structural and picklable: :meth:`save` encodes
        them, the dataset exporter reads the schedule level, a
        rollout pool warm-starts a respawned worker with them, and the
        first drain ships them.
        """
        with self._lock:
            return [
                (level, key, value)
                for level, lru in self._levels.items()
                for key, value in lru.entries.items()
            ]

    def drain_updates(self) -> list[tuple[str, tuple, TimingBreakdown]]:
        """Entries inserted locally since the last drain (still present).

        Parallel rollout workers exchange these :meth:`entries`-format
        triples to keep their caches warm with each other's timings.
        The first drain (and any drain after a journal overflow) returns
        :meth:`entries`, so a late-joining consumer still gets the full
        state; later drains cost time in the new entries only.
        """
        with self._lock:
            if not self._journaling or self._journal_overflow:
                self._journaling = True
                self._journal_overflow = False
                self._updates.clear()
                return self.entries()
            out = []
            for level, key in self._updates:
                value = self._levels[level].entries.get(key)
                if value is not None:
                    out.append((level, key, value))
            self._updates.clear()
            return out

    def absorb_updates(
        self, updates: list[tuple[str, tuple, TimingBreakdown]]
    ) -> int:
        """Insert foreign entries; returns how many were new.

        Keys already present are skipped.  Absorbed entries are not
        journaled (their sender already shipped them) and count no hits
        or misses, but the evictions they cause are counted.
        """
        added = 0
        with self._lock:
            for level, key, value in updates:
                lru = self._levels[level]
                if lru.maxsize < 1 or key in lru.entries:
                    continue
                self._insert(level, key, value)
                added += 1
        return added

    # -- persistence ------------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write both cache levels to ``path`` as JSON; returns the
        number of entries written.

        Rows are the :meth:`entries` triples, encoded by
        :mod:`repro.machine.persist` and sorted canonically — the same
        cache contents always produce a byte-identical file.  Entries
        whose keys fall outside the persistable space (e.g. exotic
        plugin annotations) are skipped, never corrupted.

        The write is atomic (temp + rename) with a ``.sha256`` content
        sidecar, so a crash mid-save never truncates the previous cache
        and a torn write is detected on load.
        """
        from ..fault.atomic import atomic_write_text
        from .persist import encode_entry

        rows = []
        for level, key, value in self.entries():
            row = encode_entry(level, key, value)
            if row is not None:
                rows.append(row)
        rows.sort(key=lambda row: json.dumps(row, sort_keys=True))
        payload = {"version": 1, "entries": rows}
        atomic_write_text(
            Path(path),
            json.dumps(payload, sort_keys=True, separators=(",", ":")),
        )
        return len(rows)

    def load(self, path: str | Path, salvage: bool = False) -> int:
        """Absorb entries from a :meth:`save` file; returns how many
        were new.  Loaded timings are bit-identical to the saved ones,
        and keys stay spec-keyed (a reconstructed
        :class:`~repro.machine.spec.MachineSpec` compares equal to the
        registered one), so a warm cache survives restarts.

        Malformed files raise :class:`CacheFormatError` naming the file
        and the offending entry; a ``feature_version`` mismatch (files
        written by a different feature pipeline) is ignored with a
        warning rather than poisoning the cache.  With ``salvage=True``
        a corrupt/truncated file loads its valid prefix of entries
        instead, and a warning reports how much was dropped.
        """
        import warnings

        from ..fault.atomic import CorruptArtifactError, verify_checksum
        from .persist import PersistError, decode_entry

        path = Path(path)
        text = path.read_text()
        try:
            verify_checksum(path)
        except CorruptArtifactError:
            if not salvage:
                raise
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            if not salvage:
                raise CacheFormatError(
                    path, f"malformed JSON: {error}"
                ) from error
            payload = None
        if payload is not None and not isinstance(payload, dict):
            raise CacheFormatError(
                path, f"expected a JSON object, got {type(payload).__name__}"
            )
        if payload is not None:
            version = payload.get("version")
            if version != 1:
                raise CacheFormatError(
                    path, f"unsupported cache file version {version!r}"
                )
            feature_version = payload.get("feature_version")
            if feature_version is not None:
                from .dataset import FEATURE_VERSION

                if feature_version != FEATURE_VERSION:
                    warnings.warn(
                        f"ignoring cache file {path}: feature_version "
                        f"{feature_version!r} != current {FEATURE_VERSION!r}",
                        stacklevel=2,
                    )
                    return 0
            rows = payload.get("entries", [])
        else:
            rows = _salvage_rows(text)
        updates = []
        dropped = 0
        for row in rows:
            try:
                update = decode_entry(row)
                if update[0] not in self._levels:
                    raise PersistError(f"unknown cache level {update[0]!r}")
                updates.append(update)
            except (PersistError, TypeError, ValueError, KeyError) as error:
                if not salvage:
                    raise CacheFormatError(
                        path, f"corrupt cache entry {row!r}: {error}"
                    ) from error
                dropped += 1
        if salvage and (payload is None or dropped):
            warnings.warn(
                f"salvaged {len(updates)} cache entries from {path}"
                + (f"; dropped {dropped} corrupt entries" if dropped else "")
                + ("" if payload is not None else " (truncated file)"),
                stacklevel=2,
            )
        return self.absorb_updates(updates)

    def clear(self) -> None:
        with self._lock:
            for lru in self._levels.values():
                lru.entries.clear()
            self._updates.clear()


class CachingExecutor(Executor):
    """An :class:`Executor` whose per-nest timings are memoized.

    Semantics-preserving by construction: on a miss the exact
    :func:`nest_time` result is stored and replayed verbatim on later
    hits, so cached and uncached timings are bit-identical.  A cache can
    be shared between executors (see :func:`pooled_executor`); pass one
    to choose its size.
    """

    def __init__(
        self,
        spec: MachineSpec = XEON_E5_2680_V4,
        cache: ExecutionCache | None = None,
    ):
        super().__init__(spec)
        # NB: an empty ExecutionCache is falsy (it has __len__), so the
        # sentinel must be an explicit None check.
        self.cache = cache if cache is not None else ExecutionCache()

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def _timed_nests(self, nests: list[LoweredNest]) -> ExecutionResult:
        total = TimingBreakdown(0.0, 0.0, 0.0, 0.0, 1)
        for nest in nests:
            total = total + self.cache.timed(self.spec, nest)
        return ExecutionResult(total.total, total)

    def _baseline_key(self, func: FuncOp) -> tuple | None:
        fingerprint = func_fingerprint(func)
        if fingerprint is None:
            return None
        return ("baseline", self.spec, fingerprint, _active_lowering_hooks())

    def _schedule_key(self, scheduled: ScheduledFunction) -> tuple | None:
        fingerprint = func_fingerprint(scheduled.func)
        if fingerprint is None:
            return None
        state = scheduled.schedule_key()
        if state is None:
            return None
        return (
            "scheduled",
            self.spec,
            fingerprint,
            state,
            _active_lowering_hooks(),
        )

    def run_baseline(self, func: FuncOp) -> ExecutionResult:
        key = self._baseline_key(func)
        if key is not None:
            hit = self.cache.schedule_get(key)
            if hit is not None:
                return ExecutionResult(hit.total, hit)
        result = self._timed_nests([lower_baseline(op) for op in func.body])
        if key is not None:
            self.cache.schedule_put(key, result.breakdown)
        return result

    def run_scheduled(self, scheduled: ScheduledFunction) -> ExecutionResult:
        key = self._schedule_key(scheduled)
        if key is not None:
            hit = self.cache.schedule_get(key)
            if hit is not None:
                return ExecutionResult(hit.total, hit)
        result = self._timed_nests(scheduled.lower())
        if key is not None:
            self.cache.schedule_put(key, result.breakdown)
        return result


def retargeted_executor(executor: Executor, spec: MachineSpec) -> Executor:
    """A replacement for ``executor`` that times on ``spec``.

    Caching executors keep their cache — entries are spec-keyed, so
    warm timings of other machines stay valid and can never replay
    across specs; plain executors are rebuilt on the new spec.  The
    one ``set_machine`` retarget rule shared by every environment.

    Executors that know how to retarget themselves (e.g. the fault
    layer's :class:`~repro.fault.guard.GuardedExecutor`, which must keep
    its policy and quarantine wrapped around the retargeted inner
    executor) expose a ``retargeted(spec)`` method and are deferred to.
    """
    retarget = getattr(executor, "retargeted", None)
    if callable(retarget):
        return retarget(spec)
    cache = getattr(executor, "cache", None)
    if cache is not None:
        return CachingExecutor(spec, cache=cache)
    return type(executor)(spec)


_POOL: dict[MachineSpec, CachingExecutor] = {}
_POOL_LOCK = threading.Lock()


def pooled_executor(
    spec: MachineSpec | str = XEON_E5_2680_V4,
) -> CachingExecutor:
    """The process-wide shared caching executor for ``spec``.

    Baselines, evaluation runners, and vectorized environments that time
    the same functions all hit one cache instead of recomputing.  One
    executor per machine spec — ``spec`` may also be a registry name
    (see :mod:`repro.machine.registry`), so every consumer of the same
    hardware scenario shares one pool entry.  Thread-safe: concurrent
    callers get the same executor (whose cache is itself
    lock-protected), and forked children start from an empty pool
    rather than mutating an LRU shared with the parent's threads.
    """
    if isinstance(spec, str):
        from .registry import spec as resolve

        spec = resolve(spec)
    # Capture the lock once: an at-fork callback rebinding the module
    # global mid-call must not make acquire and release see different
    # lock objects.
    lock = _POOL_LOCK
    with lock:
        executor = _POOL.get(spec)
        if executor is None:
            executor = CachingExecutor(spec)
            _POOL[spec] = executor
        return executor


def reset_pool() -> None:
    """Drop all pooled executors (test isolation).

    Idempotent and thread-safe: concurrent resets (including one racing
    an at-fork callback) each rebind the pool to a fresh dict rather
    than mutating a dict another caller may be iterating, so a double
    reset is a no-op and readers see either the old or the new pool,
    never a half-cleared one.
    """
    global _POOL
    lock = _POOL_LOCK
    with lock:
        _POOL = {}


def _reset_pool_after_fork() -> None:
    """Give forked children a fresh pool (and a fresh, unheld lock).

    A child forked mid-``pooled_executor`` would otherwise inherit a
    lock held by a parent thread that does not exist in the child, and
    would share cache *state* sized/counted for the parent process.
    Rebinds (never mutates) both globals — the child is single-threaded
    at this point, and any parent thread mid-operation on the old
    objects held only the old lock.
    """
    global _POOL_LOCK, _POOL
    _POOL_LOCK = threading.Lock()
    _POOL = {}


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_pool_after_fork)
