"""Action masks (paper §IV-A2), derived from the transform registry.

Not every action is valid in every state.  The environment computes
boolean masks from the current schedule state and hands them to the
policy, which renormalizes its distributions over the legal subset.
Each registered :class:`~repro.transforms.registry.TransformSpec`
contributes its sub-action mask and head predicate, both derived from
its one dependence rule (``banned_dims``) applied to the op's analysed
dependences, so :func:`compute_mask` contains no transform-specific
code; with the default view the masks are the paper's:

* vectorization is masked when the innermost loop exceeds 512 iterations
  (MLIR fully unrolls it) or the op class fails the vectorizer's
  preconditions;
* tiled parallelization may not tile a dimension that carries a
  dependence, and an op already fused into a consumer cannot open a
  nested parallel region;
* tiling, tiled fusion and interchange may not touch a coupled
  (non-uniform) dimension;
* tiled fusion needs a not-yet-fused producer;
* during a level-pointer interchange, the agent is forced to continue
  the interchange, and already-placed loops are masked out.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..transforms.records import TransformKind
from ..transforms.registry import MaskContext, view_for
from ..transforms.scheduled_op import ScheduledOp
from .config import EnvConfig


@dataclass
class ActionMask:
    """Masks for every policy head; True = legal.

    ``params`` maps sub-action mask keys to their arrays — for the
    default registry view: ``"tiles"`` (N, M; tiling and tiled fusion),
    ``"tiles_parallel"`` (N, M), and ``"interchange"`` (3N-6 or N).
    The seed's named accessors remain as properties.
    """

    transformation: np.ndarray            # (num active transforms,)
    params: dict[str, np.ndarray] = field(default_factory=dict)
    forced_interchange: bool = False      # mid multi-step sub-sequence
    kinds: tuple = ()                     # head-index -> registry kind

    @property
    def tile_tiling(self) -> np.ndarray:
        return self.params["tiles"]

    @property
    def tile_parallel(self) -> np.ndarray:
        return self.params["tiles_parallel"]

    @property
    def interchange(self) -> np.ndarray:
        return self.params["interchange"]

    def legal_transformations(self) -> list:
        """Legal registry kinds — :class:`TransformKind` members for the
        default view."""
        kinds = self.kinds or tuple(
            TransformKind(i) for i in range(len(self.transformation))
        )
        return [
            kinds[i]
            for i, legal in enumerate(self.transformation)
            if legal
        ]


def compute_mask(
    schedule: ScheduledOp,
    config: EnvConfig,
    has_producer: bool,
    pointer_placed: tuple[int, ...] = (),
    in_pointer_sequence: bool = False,
) -> ActionMask:
    """The full action mask for the current state.

    Generic over the registry view: every active spec computes its
    sub-action mask, then either one spec forces continuation of a
    multi-step sub-sequence or each spec's legality predicate fills the
    transformation head.
    """
    view = view_for(config)
    ctx = MaskContext(
        schedule,
        config,
        has_producer,
        tuple(pointer_placed),
        in_pointer_sequence,
    )
    params: dict[str, np.ndarray] = {}
    heads = {}
    for spec in view:
        head = spec.head(config)
        heads[spec.name] = head
        if head is None or head.mask_key in params:
            continue
        params[head.mask_key] = spec.param_mask(ctx)

    transformation = np.zeros(len(view), dtype=bool)
    for index, spec in enumerate(view):
        if spec.forces_continuation(ctx):
            transformation[index] = True
            return ActionMask(
                transformation,
                params,
                forced_interchange=True,
                kinds=view.kinds,
            )
    for index, spec in enumerate(view):
        head = heads[spec.name]
        param = params.get(head.mask_key) if head is not None else None
        transformation[index] = spec.is_legal(ctx, param)
    return ActionMask(transformation, params, kinds=view.kinds)


def mask_cache_key(
    schedule: ScheduledOp,
    has_producer: bool,
    pointer_placed: tuple[int, ...],
    in_pointer_sequence: bool,
) -> tuple:
    """The state a mask depends on under one config, as a hashable key.

    Every legality predicate reads only the op's static properties
    (kind, indexing maps and the dependences analysed from them —
    covered by holding the op object itself in the key, which also pins
    its identity) plus the mutable schedule state captured by
    :meth:`~repro.transforms.scheduled_op.ScheduledOp.state_key` and
    the pointer-sequence arguments.  Equal keys therefore yield equal
    masks for one config; a :class:`MaskCache` holds one config's masks.
    """
    return (
        schedule.op,
        schedule.state_key(),
        has_producer,
        pointer_placed,
        in_pointer_sequence,
    )


#: Masks one :class:`MaskCache` keeps before evicting the least recently
#: used.
MASK_CACHE_SIZE = 4096


class MaskCache:
    """Bounded LRU of one config's :func:`compute_mask` results, keyed
    by :func:`mask_cache_key`.

    Masks recur heavily: every pointer sub-step, illegal action and
    no-op re-observes an unchanged state, and every episode on the same
    function starts from the same empty schedules.  Each cache serves
    the one ``config`` it was built with, so it can never hand one
    config another's mask.  Cached masks are shared objects — consumers
    read them (and copy the arrays they store, as the agent already
    does), never mutate them.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self._entries: OrderedDict[tuple, ActionMask] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        schedule: ScheduledOp,
        has_producer: bool,
        pointer_placed: tuple[int, ...] = (),
        in_pointer_sequence: bool = False,
    ) -> ActionMask:
        key = mask_cache_key(
            schedule, has_producer, pointer_placed, in_pointer_sequence
        )
        mask = self._entries.get(key)
        if mask is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return mask
        self.misses += 1
        mask = compute_mask(
            schedule,
            self.config,
            has_producer=has_producer,
            pointer_placed=pointer_placed,
            in_pointer_sequence=in_pointer_sequence,
        )
        # Shared across steps/episodes: freeze the arrays so accidental
        # in-place edits fail loudly instead of corrupting the cache.
        mask.transformation.setflags(write=False)
        for param in mask.params.values():
            param.setflags(write=False)
        self._entries[key] = mask
        if len(self._entries) > MASK_CACHE_SIZE:
            self._entries.popitem(last=False)
        return mask
