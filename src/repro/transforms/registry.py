"""The transform registry — the action space as data, not code.

Every transformation the system knows is described by one
:class:`TransformSpec` plugin bundling

* its **dependence rule** (:meth:`TransformSpec.banned_dims`), from
  which its §IV-A2 action masks and its verifier messages both derive,
* its **sub-action parameter space** and decode logic (the §IV-A1
  multi-discrete components and the §VII-D flat-table entries),
* its **apply/lowering hook** into the schedule pipeline,
* its **policy head spec** (what logits the actor must produce), and
* optional **search candidates** for the beam/greedy baselines and an
  optional **history slot** for the Appendix A encoding.

The environment, the masks, the PPO agent's heads, the flat-action
ablation, and the search baselines are all derived from the registry, so
adding a transformation is *registration plus configuration* — no edits
to ``env/environment.py``, ``env/masking.py`` or ``rl/policy.py``
(``transforms/unrolling.py`` is the worked example).

Two layers:

* the **global registry** (:func:`register_transform`) holds every spec
  the process knows, keyed by name; record types map back to their spec
  so :meth:`~repro.transforms.pipeline.ScheduledFunction.apply` can
  dispatch any registered record.
* a **registry view** (:func:`view_for`) is the ordered, per-config
  action space: ``EnvConfig.transforms`` names the active specs; their
  position is the transformation-head index.  The paper's six transforms
  in head order are the default, so default-config observation sizes,
  masks and checkpoints are unchanged.

This module never imports ``repro.env`` at import time (``repro.env``
imports it); the few env types specs need (``EnvAction``, ``FlatAction``)
are imported lazily inside methods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .fusion import fuse_producers
from .interchange import (
    apply_interchange,
    enumerated_candidates,
    rotation_permutations,
)
from .multi_fusion import MultiTiledFusion
from .records import (
    Interchange,
    NoTransformation,
    TiledFusion,
    TiledParallelization,
    Tiling,
    TransformKind,
    Transformation,
    Vectorization,
)
from .scheduled_op import ScheduledOp, TransformError
from .tiling import apply_tiled_parallelization, apply_tiling
from .vectorization import apply_vectorization, can_vectorize

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..analysis.dependence import OpDependences
    from ..env.actions import EnvAction, FlatAction
    from ..env.config import EnvConfig
    from ..env.environment import MlirRlEnv
    from ..env.history import ActionHistory
    from ..env.masking import ActionMask
    from ..ir.ops import LinalgOp
    from .loop_nest import Loop
    from .pipeline import ScheduledFunction


class PluginKind(int):
    """An ``int`` transformation id carrying a readable name.

    Built-in transforms keep their :class:`TransformKind` members; specs
    activated outside the paper's head order get a ``PluginKind`` whose
    value is the view index (e.g. ``unrolling`` appended after the six
    defaults prints as ``unrolling`` and compares equal to ``6``).
    """

    name: str

    def __new__(cls, value: int, name: str) -> "PluginKind":
        obj = super().__new__(cls, value)
        obj.name = name
        return obj

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"PluginKind({int(self)}, {self.name!r})"

    def __reduce__(self) -> tuple[type, tuple[int, str]]:
        # Default int-subclass pickling bypasses __new__ and drops the
        # name; masks carrying plugin kinds cross process boundaries in
        # the async vector env, so rebuild explicitly.
        return (PluginKind, (int(self), self.name))


@dataclass(frozen=True)
class HeadSpec:
    """The policy-head / sub-action shape of one transform.

    ``name`` keys the actor's logits dict, ``mask_key`` keys
    :attr:`~repro.env.masking.ActionMask.params` (several specs may share
    one mask), and ``slot`` identifies the multi-discrete component
    (the three tiled transforms share the paper's single tile vector).
    ``rows == 0`` means a single categorical of ``cols`` options;
    ``rows > 0`` means one categorical per row (the per-loop-level tile
    distributions).
    """

    name: str
    mask_key: str
    slot: str
    rows: int
    cols: int


@dataclass
class MaskContext:
    """Everything a spec's masking predicate may inspect."""

    schedule: ScheduledOp
    config: "EnvConfig"
    has_producer: bool
    pointer_placed: tuple[int, ...] = ()
    in_pointer_sequence: bool = False

    @property
    def depth_overflow(self) -> bool:
        """Deeper than the fixed-size heads/features can express."""
        return self.schedule.num_loops > self.config.max_loops

    @property
    def terminal(self) -> bool:
        return self.schedule.is_terminal()

    @cached_property
    def dep(self) -> "OpDependences":
        """The op's dependence facts, analysed on first use.

        :func:`~repro.analysis.dependence.analyze_op` memoizes on the op,
        so only an op's first mask pays for the analysis.  Imported
        lazily: ``repro.analysis`` imports this package for the verifier.
        """
        from ..analysis.dependence import analyze_op

        return analyze_op(self.schedule.op)


def _enumerated_interchange(config: "EnvConfig") -> bool:
    """Mode check without importing ``repro.env.config`` at import time."""
    return getattr(config.interchange_mode, "value", None) == "enumerated"


def interchange_head_size(config: "EnvConfig") -> int:
    if _enumerated_interchange(config):
        return max(3 * config.max_loops - 6, 1)
    return config.max_loops


def _trivial_tile_mask(config: "EnvConfig") -> np.ndarray:
    """(N, M) mask with only the "no tile" candidate legal per row."""
    mask = np.zeros((config.max_loops, config.num_tile_sizes), dtype=bool)
    mask[:, 0] = True
    return mask


def _tile_size_mask(ctx: MaskContext, banned: frozenset[int]) -> np.ndarray:
    """(N, M) mask of legal tile-size candidates per loop position.

    Candidate 0 (no tiling) is always legal; a non-zero candidate is
    legal when the position's extent exceeds 1, its original dimension
    is not ``banned`` and the size does not exceed the extent.
    """
    config, schedule = ctx.config, ctx.schedule
    mask = _trivial_tile_mask(config)
    for position in range(schedule.num_loops):
        extent = schedule.extent_at(position)
        if extent <= 1 or schedule.order[position] in banned:
            continue
        for index, size in enumerate(config.tile_sizes):
            if index and size <= extent:
                mask[position, index] = True
    return mask


def _dim_kind(dep: "OpDependences", dim: int) -> str:
    return (
        "non-uniform (coupled)" if dim in dep.coupled else "dependence-carried"
    )


class TransformSpec:
    """One registered transformation (see the module docstring).

    Subclasses override the hooks they need; the defaults describe a
    parameter-less, non-terminal transform with no search candidates and
    no history slot.
    """

    #: Registry name — what ``EnvConfig.transforms`` refers to.
    name: str = ""
    #: Record dataclasses this spec applies (dispatch key for
    #: ``ScheduledFunction.apply``).
    record_types: tuple[type, ...] = ()
    #: True when a legal application ends the current operation
    #: (vectorization / no-transformation).
    ends_op: bool = False
    #: True for the always-legal stop action (flat-mask fallback).
    is_stop: bool = False
    #: False for record-only specs (apply-dispatch only, never part of
    #: an action space — e.g. multi-producer fusion for search agents).
    action_capable: bool = True
    #: Candidate-generation order for the search baselines (lower first);
    #: the seed emitted parallelization, tiling, fusion, interchange,
    #: vectorization — preserved so beam tie-breaking is unchanged.
    search_priority: int = 100

    # -- policy head / sub-action space ---------------------------------------

    def head(self, config: "EnvConfig") -> HeadSpec | None:
        """The parameter head this transform samples, or None."""
        return None

    # -- masking ---------------------------------------------------------------

    def param_mask(self, ctx: MaskContext) -> np.ndarray | None:
        """Boolean legality of every sub-action (shape per :meth:`head`):
        structural limits plus :meth:`banned_dims` applied to
        ``ctx.dep``."""
        return None

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        """Transformation-head legality in the current state."""
        raise NotImplementedError

    def forces_continuation(self, ctx: MaskContext) -> bool:
        """True mid multi-step sub-sequence (level-pointer interchange)."""
        return False

    # -- the dependence rule ---------------------------------------------------

    def banned_dims(self, dep: "OpDependences") -> frozenset[int]:
        """This spec's one dependence rule: the op's original dimensions
        it may not tile, move or parallelize.

        The param mask, the head bit and :meth:`violations` all derive
        from it.  The default (nothing banned) is right for transforms
        that keep each output element's sequential iteration order
        (vectorization, unrolling, the stop action).
        """
        return frozenset()

    def touched_dims(
        self, schedule: ScheduledOp, record: Transformation
    ) -> list[int]:
        """Original dimensions ``record`` tiles, moves or parallelizes in
        ``schedule``'s current state (none for a malformed record: the
        apply layer rejects it)."""
        return []

    def violations(
        self,
        dep: "OpDependences",
        schedule: ScheduledOp,
        record: Transformation,
        has_producer: bool,
    ) -> list[str]:
        """Why applying ``record`` in ``schedule``'s current state breaks
        the rule: one reason per touched banned dimension."""
        banned = self.banned_dims(dep)
        return [
            f"touches {_dim_kind(dep, dim)} dimension d{dim}"
            for dim in self.touched_dims(schedule, record)
            if dim in banned
        ]

    # -- decoding / encoding ---------------------------------------------------

    def decode(
        self, action: "EnvAction", num_loops: int, config: "EnvConfig"
    ) -> Transformation | None:
        """Decode an :class:`~repro.env.actions.EnvAction` to a record.

        None means "consumed a step without a record" (all-zero tilings,
        level-pointer sub-steps).
        """
        raise NotImplementedError

    def to_env_action(
        self,
        kind: int,
        config: "EnvConfig",
        tile_indices: np.ndarray | None = None,
        choice: int = -1,
    ) -> "EnvAction":
        """Build the EnvAction for sampled head outputs."""
        from ..env.actions import EnvAction

        return EnvAction(kind)

    # -- multi-step sub-sequences ---------------------------------------------

    def is_multistep(self, config: "EnvConfig") -> bool:
        """True when one record is assembled across several env steps."""
        return False

    def multistep(
        self,
        env: "MlirRlEnv",
        schedule: ScheduledOp,
        history: "ActionHistory",
        action: "EnvAction",
    ) -> tuple[bool, Transformation | None, bool]:
        """One sub-step; returns (done_with_op, applied_record, illegal)."""
        raise NotImplementedError

    # -- application -----------------------------------------------------------

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        """Apply ``record`` to ``op``'s schedule inside ``scheduled``."""
        raise NotImplementedError

    def lower_loops(
        self, schedule: ScheduledOp, loops: "list[Loop]"
    ) -> "list[Loop]":
        """Post-process the lowered loop list (identity by default)."""
        return loops

    # -- flat action space (ablation §VII-D2) ----------------------------------

    def flat_entries(self, config: "EnvConfig", kind: int) -> "list[FlatAction]":
        """This spec's entries of the flat action table."""
        return []

    def flat_legal(
        self,
        flat: "FlatAction",
        mask: "ActionMask",
        num_loops: int,
        config: "EnvConfig",
    ) -> bool:
        """Legality of one flat entry once the kind itself is legal."""
        return True

    def flat_record(self, flat: "FlatAction", num_loops: int) -> Transformation:
        """Decode one flat entry into a transformation record."""
        raise NotImplementedError

    # -- search baselines ------------------------------------------------------

    def search_candidates(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        config: "EnvConfig",
    ) -> list[Transformation]:
        """Pruned candidates for one beam-search expansion."""
        return []

    # -- action history (Appendix A) -------------------------------------------

    def history_shape(self, config: "EnvConfig") -> tuple[int, ...] | None:
        """Per-step shape of this spec's extra history slot, or None.

        The six built-ins use the fixed Appendix A tensors owned by
        :class:`~repro.env.history.ActionHistory`; plugins declare a slot
        here so the observation layout stays registry-derived.
        """
        return None

    def record_history(
        self, history: "ActionHistory", record: Transformation
    ) -> None:
        """Write one applied record into the plugin history slot."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TransformSpec {self.name}>"


# ---------------------------------------------------------------------------
# Global registry
# ---------------------------------------------------------------------------

_SPECS: dict[str, TransformSpec] = {}
_RECORD_SPECS: dict[type, TransformSpec] = {}
_VIEWS: dict[object, "RegistryView"] = {}

#: Built-in names in the paper's head order (TransformKind values).
BUILTIN_TRANSFORMS: tuple[str, ...] = (
    "tiling",
    "tiled_parallelization",
    "tiled_fusion",
    "interchange",
    "vectorization",
    "no_transformation",
)

_BUILTIN_KINDS = {
    name: TransformKind(index)
    for index, name in enumerate(BUILTIN_TRANSFORMS)
}


def register_transform(spec: TransformSpec) -> TransformSpec:
    """Register ``spec`` globally (idempotent per name for reloads)."""
    if not spec.name:
        raise ValueError("transform spec needs a name")
    existing = _SPECS.get(spec.name)
    if existing is not None and type(existing) is not type(spec):
        raise ValueError(f"transform {spec.name!r} already registered")
    _SPECS[spec.name] = spec
    for record_type in spec.record_types:
        _RECORD_SPECS[record_type] = spec
    _VIEWS.clear()
    return spec


def actionable_transforms() -> tuple[str, ...]:
    """Names of the transforms that may appear in an action space."""
    return tuple(
        name for name, spec in _SPECS.items() if spec.action_capable
    )


def get_spec(name: str) -> TransformSpec:
    spec = _SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown transformation {name!r}; registered: {sorted(_SPECS)}"
        )
    return spec


def spec_for_record(record_type: type) -> TransformSpec | None:
    """The spec whose :attr:`record_types` covers ``record_type``.

    O(1) on the hot path (``ScheduledFunction.apply``,
    ``ActionHistory.record``): exact types are dict-keyed at
    registration; record subclasses resolve once and are cached.
    """
    spec = _RECORD_SPECS.get(record_type)
    if spec is not None:
        return spec
    for candidate in _SPECS.values():  # subclass fallback, cached
        if issubclass(record_type, candidate.record_types or ()):
            _RECORD_SPECS[record_type] = candidate
            return candidate
    return None


def lowering_hooks() -> list[TransformSpec]:
    """Registered specs that post-process lowered loop nests."""
    return [
        spec
        for spec in _SPECS.values()
        if type(spec).lower_loops is not TransformSpec.lower_loops
    ]


class RegistryView:
    """The ordered active action space of one config.

    ``kinds[i]`` is the transformation-head id of ``specs[i]`` — the
    matching :class:`TransformKind` member when the name sits at its
    paper position, else a :class:`PluginKind`.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.names = tuple(names)
        self.specs = tuple(get_spec(name) for name in names)
        for spec in self.specs:
            if not spec.action_capable:
                raise ValueError(
                    f"transform {spec.name!r} is record-only and cannot "
                    "be part of an action space; pick from "
                    f"{sorted(actionable_transforms())}"
                )
        if not any(spec.is_stop for spec in self.specs):
            # The environment's liveness guarantee (masks always offer
            # an action) and the flat agent's fallback both rest on an
            # always-legal stop being present.
            raise ValueError(
                f"action space {self.names} has no stop transform; "
                "include 'no_transformation' (or another is_stop spec)"
            )
        kinds = []
        for index, name in enumerate(self.names):
            builtin = _BUILTIN_KINDS.get(name)
            if builtin is not None and int(builtin) == index:
                kinds.append(builtin)
            else:
                kinds.append(PluginKind(index, name))
        self.kinds: tuple = tuple(kinds)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[TransformSpec]:
        return iter(self.specs)

    def items(self) -> Iterator[tuple[TransformSpec, object]]:
        """(spec, kind) pairs in head order."""
        return zip(self.specs, self.kinds)

    def spec_at(self, kind: int) -> TransformSpec:
        index = int(kind)
        if not 0 <= index < len(self.specs):
            raise ValueError(f"unknown action kind {kind}")
        return self.specs[index]

    def item(self, kind: int) -> tuple[TransformSpec, object]:
        index = int(kind)
        if not 0 <= index < len(self.specs):
            raise ValueError(f"unknown action kind {kind}")
        return self.specs[index], self.kinds[index]

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def heads(self, config: "EnvConfig") -> list[HeadSpec]:
        """Distinct policy heads in first-appearance order."""
        out: list[HeadSpec] = []
        seen: set[str] = set()
        for spec in self.specs:
            head = spec.head(config)
            if head is not None and head.name not in seen:
                seen.add(head.name)
                out.append(head)
        return out

    def slots(self, config: "EnvConfig") -> list[HeadSpec]:
        """Distinct sub-action slots (multi-discrete components)."""
        out: list[HeadSpec] = []
        seen: set[str] = set()
        for spec in self.specs:
            head = spec.head(config)
            if head is not None and head.slot not in seen:
                seen.add(head.slot)
                out.append(head)
        return out

    def by_search_priority(self) -> list[TransformSpec]:
        return sorted(self.specs, key=lambda spec: spec.search_priority)


def view_for(config: "EnvConfig") -> RegistryView:
    """The (cached) registry view of ``config.transforms``."""
    view = _VIEWS.get(config)
    if view is None:
        view = RegistryView(config.transforms)
        _VIEWS[config] = view
    return view


# ---------------------------------------------------------------------------
# Built-in specs: the paper's six transformations
# ---------------------------------------------------------------------------


class _TiledSpecBase(TransformSpec):
    """Shared machinery of the three tiled transformations."""

    head_name: str = ""
    mask_key: str = "tiles"
    record_class: type = Tiling

    def head(self, config: "EnvConfig") -> HeadSpec:
        return HeadSpec(
            self.head_name,
            self.mask_key,
            "tiles",
            config.max_loops,
            config.num_tile_sizes,
        )

    def banned_dims(self, dep: "OpDependences") -> frozenset[int]:
        # Strip-mining a dimension preserves every single-dimension
        # distance vector (the mixed-radix re-encoding is monotone per
        # dim), so sequential tiling only endangers coupled dims.
        return dep.coupled

    def touched_dims(
        self, schedule: ScheduledOp, record: Transformation
    ) -> list[int]:
        sizes = record.sizes[: schedule.num_loops]
        return [
            schedule.order[position]
            for position, size in enumerate(sizes)
            if size > 0
        ]

    def param_mask(self, ctx: MaskContext) -> np.ndarray:
        if ctx.depth_overflow:
            return _trivial_tile_mask(ctx.config)
        return _tile_size_mask(ctx, self.banned_dims(ctx.dep))

    def _any_tile(
        self, ctx: MaskContext, param_mask: np.ndarray
    ) -> bool:
        return bool(param_mask[: ctx.schedule.num_loops, 1:].any())

    def decode(
        self, action: "EnvAction", num_loops: int, config: "EnvConfig"
    ) -> Transformation | None:
        from ..env.actions import tile_sizes_from_indices

        if action.tile_indices is None:
            raise ValueError(f"{action.kind} requires tile indices")
        sizes = tile_sizes_from_indices(
            action.tile_indices, num_loops, config
        )
        if all(size == 0 for size in sizes):
            return None  # a no-op that still consumes a step
        return self.record_class(sizes)

    def to_env_action(
        self,
        kind: int,
        config: "EnvConfig",
        tile_indices: np.ndarray | None = None,
        choice: int = -1,
    ) -> "EnvAction":
        from ..env.actions import EnvAction

        assert tile_indices is not None
        return EnvAction(
            kind, tile_indices=tuple(int(i) for i in tile_indices)
        )

    def flat_entries(self, config: "EnvConfig", kind: int) -> "list[FlatAction]":
        from ..env.actions import FlatAction

        return [
            FlatAction(
                kind, level=level, tile_size=size, spec_name=self.name
            )
            for level in range(config.max_loops)
            for size in config.tile_sizes[1:]
        ]

    def flat_legal(
        self,
        flat: "FlatAction",
        mask: "ActionMask",
        num_loops: int,
        config: "EnvConfig",
    ) -> bool:
        size_index = config.tile_sizes.index(flat.tile_size)
        return bool(mask.params[self.mask_key][flat.level, size_index])

    def flat_record(self, flat: "FlatAction", num_loops: int) -> Transformation:
        sizes = tuple(
            flat.tile_size if position == flat.level else 0
            for position in range(num_loops)
        )
        return self.record_class(sizes)

    # search helpers -----------------------------------------------------------

    @staticmethod
    def _tile_vector(
        num_loops: int, positions: tuple[int, ...], size: int
    ) -> tuple[int, ...]:
        return tuple(
            size if p in positions else 0 for p in range(num_loops)
        )

    @staticmethod
    def _parallel_positions(schedule: ScheduledOp) -> list[int]:
        from ..ir.ops import IteratorType

        return [
            p
            for p in range(schedule.num_loops)
            if schedule.iterator_type_at(p) is IteratorType.PARALLEL
            and schedule.extent_at(p) > 1
        ][:4]


class TilingSpec(_TiledSpecBase):
    name = "tiling"
    head_name = "tiling"
    mask_key = "tiles"
    record_types = (Tiling,)
    record_class = Tiling
    search_priority = 1
    #: Beam-search tile sizes per position (a pruned candidate subset).
    search_sizes = (4, 8, 32, 64)

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return not ctx.terminal and self._any_tile(ctx, param_mask)

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        apply_tiling(scheduled.schedule_of(op), record)

    def search_candidates(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        config: "EnvConfig",
    ) -> list[Transformation]:
        if len(schedule.bands) >= 2:
            return []
        tileable = [
            p
            for p in range(schedule.num_loops)
            if schedule.extent_at(p) > 1
        ][:4]
        candidates = []
        for count in (1, 2):
            for positions in itertools.combinations(tileable, count):
                for size in self.search_sizes:
                    if all(
                        size <= schedule.extent_at(p) for p in positions
                    ):
                        candidates.append(
                            Tiling(
                                self._tile_vector(
                                    schedule.num_loops, positions, size
                                )
                            )
                        )
        return candidates


class TiledParallelizationSpec(_TiledSpecBase):
    name = "tiled_parallelization"
    head_name = "parallelization"
    mask_key = "tiles_parallel"
    record_types = (TiledParallelization,)
    record_class = TiledParallelization
    search_priority = 0
    search_sizes = (1, 4, 8, 16, 32, 64)

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return (
            not ctx.terminal
            and self._any_tile(ctx, param_mask)
            # An op fused into a consumer executes inside the consumer's
            # tile loops and cannot open a nested parallel region.
            and ctx.schedule.fused_into is None
        )

    def banned_dims(self, dep: "OpDependences") -> frozenset[int]:
        return dep.carried | dep.coupled

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        apply_tiled_parallelization(scheduled.schedule_of(op), record)

    def search_candidates(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        config: "EnvConfig",
    ) -> list[Transformation]:
        has_parallel_band = any(
            band.parallel for band in schedule.bands
        )
        if has_parallel_band or schedule.fused_into is not None:
            return []
        positions_pool = self._parallel_positions(schedule)
        candidates = []
        for count in (1, 2, 3):
            for positions in itertools.combinations(
                positions_pool, min(count, len(positions_pool))
            ):
                if len(positions) != count:
                    continue
                for size in self.search_sizes:
                    if all(
                        size <= schedule.extent_at(p) for p in positions
                    ):
                        candidates.append(
                            TiledParallelization(
                                self._tile_vector(
                                    schedule.num_loops, positions, size
                                )
                            )
                        )
        return candidates


class TiledFusionSpec(_TiledSpecBase):
    name = "tiled_fusion"
    head_name = "fusion"
    mask_key = "tiles"
    record_types = (TiledFusion,)
    record_class = TiledFusion
    search_priority = 2
    search_sizes = (8, 32)

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return (
            not ctx.terminal
            and self._any_tile(ctx, param_mask)
            and ctx.has_producer
        )

    def violations(
        self,
        dep: "OpDependences",
        schedule: ScheduledOp,
        record: Transformation,
        has_producer: bool,
    ) -> list[str]:
        issues = super().violations(dep, schedule, record, has_producer)
        if not has_producer:
            issues.append("no flow producer available to fuse")
        return issues

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        producer = scheduled.fusable_producer_of(op)
        if producer is None:
            raise TransformError(f"{op.name} has no fusable producer")
        fuse_producers(
            scheduled.schedule_of(op),
            [scheduled.schedule_of(producer.op)],
            record,
        )

    def search_candidates(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        config: "EnvConfig",
    ) -> list[Transformation]:
        if not has_producer:
            return []
        positions = tuple(self._parallel_positions(schedule)[:2])
        candidates = []
        for size in self.search_sizes:
            if positions and all(
                size <= schedule.extent_at(p) for p in positions
            ):
                candidates.append(
                    TiledFusion(
                        self._tile_vector(
                            schedule.num_loops, positions, size
                        )
                    )
                )
        return candidates


class MultiTiledFusionSpec(TransformSpec):
    """Record-only spec: multi-producer fusion is applied by search
    agents and library users, never sampled by the RL action space."""

    name = "multi_tiled_fusion"
    record_types = (MultiTiledFusion,)
    action_capable = False

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return False

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        producers = scheduled.fusable_producers_of(op)
        if not producers:
            raise TransformError(f"{op.name} has no fusable producers")
        fuse_producers(
            scheduled.schedule_of(op),
            [scheduled.schedule_of(producer.op) for producer in producers],
            record,
        )


class InterchangeSpec(TransformSpec):
    name = "interchange"
    record_types = (Interchange,)
    search_priority = 3

    def head(self, config: "EnvConfig") -> HeadSpec:
        return HeadSpec(
            "interchange",
            "interchange",
            "interchange",
            0,
            interchange_head_size(config),
        )

    def banned_dims(self, dep: "OpDependences") -> frozenset[int]:
        # Permuting loops preserves every single-dimension distance
        # vector (its sole `<` component stays `<` wherever the loop
        # lands), so interchange is only constrained by coupled dims:
        # reordering two entangled `*` dimensions may flip a dependence
        # direction.
        return dep.coupled

    def touched_dims(
        self, schedule: ScheduledOp, record: Transformation
    ) -> list[int]:
        perm = record.permutation
        if len(perm) != schedule.num_loops or sorted(perm) != list(
            range(schedule.num_loops)
        ):
            return []  # malformed: the apply layer rejects it
        return sorted(
            schedule.order[p] for p, q in enumerate(perm) if p != q
        )

    def param_mask(self, ctx: MaskContext) -> np.ndarray:
        config, schedule = ctx.config, ctx.schedule
        size = interchange_head_size(config)
        mask = np.zeros(size, dtype=bool)
        if ctx.depth_overflow:
            # Deeper than the head can express: interchange unavailable.
            return mask
        banned = self.banned_dims(ctx.dep)
        if _enumerated_interchange(config):
            # Real candidates for this op's depth come first in the
            # padded head; candidates touching positions beyond
            # num_loops or moving a banned dim are masked.
            num_loops, order = schedule.num_loops, schedule.order
            padded = enumerated_candidates(config.max_loops)
            for index, perm in enumerate(padded):
                moved = [p for p, q in enumerate(perm) if p != q]
                if all(p < num_loops and order[p] not in banned for p in moved):
                    mask[index] = True
            return mask
        if banned:
            # A pointer sequence places every loop, so it cannot promise
            # to leave a banned dim in place: no sequence may start.
            return mask
        for loop in range(min(schedule.num_loops, size)):
            if loop not in ctx.pointer_placed:
                mask[loop] = True
        return mask

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return (
            not ctx.terminal
            and not ctx.depth_overflow
            and ctx.schedule.num_loops >= 2
            and param_mask is not None
            and bool(param_mask.any())
        )

    def forces_continuation(self, ctx: MaskContext) -> bool:
        return ctx.in_pointer_sequence and not ctx.depth_overflow

    def is_multistep(self, config: "EnvConfig") -> bool:
        return not _enumerated_interchange(config)

    def multistep(
        self,
        env: "MlirRlEnv",
        schedule: ScheduledOp,
        history: "ActionHistory",
        action: "EnvAction",
    ) -> tuple[bool, Transformation | None, bool]:
        """One level-pointer sub-step (paper Appendix B)."""
        loop = action.pointer_loop
        if loop is None or not (0 <= loop < schedule.num_loops):
            return False, None, True
        if loop in env._pointer_placed:
            return False, None, True
        position = len(env._pointer_placed)
        env._pointer_placed.append(loop)
        history.record_partial_interchange(position, loop)
        if len(env._pointer_placed) < schedule.num_loops:
            return False, None, False
        # Permutation complete: apply it as one interchange record.
        record = Interchange(tuple(env._pointer_placed))
        try:
            assert env.scheduled is not None and env._current is not None
            env.scheduled.apply(env._current, record)
        except TransformError:
            # The permutation was never applied: erase the partial
            # one-hot rows so later observations don't describe a
            # phantom interchange.
            history.rollback_partial_interchange(env._pointer_placed)
            env._pointer_placed = []
            return False, None, True
        history.record(record)
        env._pointer_placed = []
        return False, record, False

    def decode(
        self, action: "EnvAction", num_loops: int, config: "EnvConfig"
    ) -> Transformation | None:
        if _enumerated_interchange(config):
            if action.interchange_candidate is None:
                raise ValueError(
                    "enumerated interchange requires a candidate"
                )
            # The head (and its mask) enumerate candidates over the
            # padded max_loops space; truncate to this op's depth.
            # Masking guarantees the moved positions are below
            # num_loops.
            candidates = enumerated_candidates(config.max_loops)
            full = candidates[action.interchange_candidate]
            return Interchange(tuple(full[:num_loops]))
        return None  # level pointers: assembled by the environment

    def to_env_action(
        self,
        kind: int,
        config: "EnvConfig",
        tile_indices: np.ndarray | None = None,
        choice: int = -1,
    ) -> "EnvAction":
        from ..env.actions import EnvAction

        if _enumerated_interchange(config):
            return EnvAction(kind, interchange_candidate=choice)
        return EnvAction(kind, pointer_loop=choice)

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        apply_interchange(scheduled.schedule_of(op), record)

    def flat_entries(self, config: "EnvConfig", kind: int) -> "list[FlatAction]":
        from ..env.actions import FlatAction

        return [
            FlatAction(
                kind, permutation=perm, choice=index, spec_name=self.name
            )
            for index, perm in enumerate(
                enumerated_candidates(config.max_loops)
            )
        ]

    def flat_legal(
        self,
        flat: "FlatAction",
        mask: "ActionMask",
        num_loops: int,
        config: "EnvConfig",
    ) -> bool:
        if _enumerated_interchange(config):
            # ``choice`` indexes the same candidate list as the head.
            return bool(mask.params["interchange"][flat.choice])
        # The pointer head is only on when no dim is banned, so depth is
        # all that is left to check.
        moved = [p for p, q in enumerate(flat.permutation) if p != q]
        return all(p < num_loops for p in moved)

    def flat_record(self, flat: "FlatAction", num_loops: int) -> Transformation:
        # The table stores padded max_loops permutations; truncate to
        # the op's depth exactly like the hierarchical decode does.
        # (The seed applied the padded permutation, so every flat
        # interchange on an op shallower than N was rejected as an
        # illegal action — flat and hierarchical agents now reach the
        # same records.)
        if num_loops < len(flat.permutation):
            return Interchange(flat.permutation[:num_loops])
        return Interchange(flat.permutation)

    def search_candidates(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        config: "EnvConfig",
    ) -> list[Transformation]:
        if schedule.num_loops < 2:
            return []
        return [
            Interchange(perm)
            for perm in rotation_permutations(schedule.num_loops)
        ]


class VectorizationSpec(TransformSpec):
    name = "vectorization"
    record_types = (Vectorization,)
    ends_op = True
    search_priority = 4

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return (
            not ctx.terminal
            and not ctx.depth_overflow
            and can_vectorize(ctx.schedule)
        )

    def decode(
        self, action: "EnvAction", num_loops: int, config: "EnvConfig"
    ) -> Transformation | None:
        return Vectorization()

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        apply_vectorization(scheduled.schedule_of(op), record)

    def flat_entries(self, config: "EnvConfig", kind: int) -> "list[FlatAction]":
        from ..env.actions import FlatAction

        return [FlatAction(kind, spec_name=self.name)]

    def flat_record(self, flat: "FlatAction", num_loops: int) -> Transformation:
        return Vectorization()

    def search_candidates(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        config: "EnvConfig",
    ) -> list[Transformation]:
        if can_vectorize(schedule):
            return [Vectorization()]
        return []


class NoTransformationSpec(TransformSpec):
    name = "no_transformation"
    record_types = (NoTransformation,)
    ends_op = True
    is_stop = True

    def is_legal(
        self, ctx: MaskContext, param_mask: np.ndarray | None
    ) -> bool:
        return True

    def decode(
        self, action: "EnvAction", num_loops: int, config: "EnvConfig"
    ) -> Transformation | None:
        return NoTransformation()

    def apply(
        self,
        scheduled: "ScheduledFunction",
        op: "LinalgOp",
        record: Transformation,
    ) -> None:
        scheduled.schedule_of(op).history.append(record)

    def flat_entries(self, config: "EnvConfig", kind: int) -> "list[FlatAction]":
        from ..env.actions import FlatAction

        return [FlatAction(kind, spec_name=self.name)]

    def flat_record(self, flat: "FlatAction", num_loops: int) -> Transformation:
        return NoTransformation()


register_transform(TilingSpec())
register_transform(TiledParallelizationSpec())
register_transform(TiledFusionSpec())
register_transform(InterchangeSpec())
register_transform(VectorizationSpec())
register_transform(NoTransformationSpec())
register_transform(MultiTiledFusionSpec())
