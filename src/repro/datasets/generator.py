"""Random loop-nest program generator and training curriculum (paper §VI).

The paper trains its agent on randomly generated programs so the policy
generalizes past the benchmarks it is evaluated on.  This module opens
that axis: a seeded generator that emits verified :class:`FuncOp`
programs spanning randomized elementwise chains, reductions, matmul-like
contractions, convolution/pooling stencils, and mixed 2-D/4-D
compositions, with randomized shapes, chain lengths, and op counts.

Generation is **spec-driven**: :func:`sample_spec` draws a
:class:`ProgramSpec` — family, source-shape pool indices, and one
:class:`OpSpec` per op — and :func:`emit` replays the spec into a
function.  A spec can be replayed in two *shape universes*:

* ``full``  — training-scale shapes (the programs the agent sees);
* ``smoke`` — the same ops over tiny shapes, cheap enough for the
  numerical interpreter to execute every operation.

Shape-dependent admissibility guards (a stencil needs enough spatial
extent, pooling needs a full window) are evaluated in *both* universes
during sampling, so the smoke replica always has the exact op sequence
of the full program and the interpreter smoke-run in
:func:`verify_program` exercises the real emitted structure.

On top of the generator sits :class:`CurriculumSampler`, a stage-keyed
sampler (stages bound nest depth and op count, Pearl-style staged
training) usable directly as a PPO trainer sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import builders
from ..ir.interpreter import evaluate_op, random_operands
from ..ir.ops import FuncOp, IRError, LinalgOp, Value

# ---------------------------------------------------------------------------
# Shape universes
# ---------------------------------------------------------------------------

#: Pool of 2-D dimension extents (rows/cols/contraction depth) at
#: training scale and at interpreter-smoke scale.  Indices into these
#: pools — not the extents themselves — are stored in specs, so one spec
#: replays consistently in either universe.
_FULL_DIMS_2D = (32, 48, 64, 96, 128, 192, 256)
_SMOKE_DIMS_2D = (3, 4, 5, 6, 7, 8, 9)

#: 4-D NHWC pools: spatial extents and channel counts.
_FULL_SPATIAL = (14, 16, 28, 32)
_SMOKE_SPATIAL = (7, 8, 9, 10)
_FULL_CHANNELS = (8, 16, 32, 48)
_SMOKE_CHANNELS = (2, 3, 4, 5)

#: Batch extents for 3-D batched contractions.
_FULL_BATCH = (4, 8, 16)
_SMOKE_BATCH = (2, 2, 3)

#: Convolution kernel sizes and pooling windows (same in both universes;
#: the admissibility guard keeps them applicable).
_KERNELS = (1, 3)
_POOL_WINDOWS = (2, 3)


@dataclass(frozen=True)
class ShapeUniverse:
    """One consistent set of extent pools a spec can be replayed in."""

    dims_2d: tuple[int, ...]
    spatial: tuple[int, ...]
    channels: tuple[int, ...]
    batch: tuple[int, ...]


FULL = ShapeUniverse(_FULL_DIMS_2D, _FULL_SPATIAL, _FULL_CHANNELS, _FULL_BATCH)
SMOKE = ShapeUniverse(
    _SMOKE_DIMS_2D, _SMOKE_SPATIAL, _SMOKE_CHANNELS, _SMOKE_BATCH
)


# ---------------------------------------------------------------------------
# Families and stages
# ---------------------------------------------------------------------------

#: Op kinds by loop-nest depth (iteration-space dimensionality) — the
#: quantity curriculum stages bound.
OP_DEPTHS: dict[str, int] = {
    "add2d": 2,
    "mul2d": 2,
    "relu2d": 2,
    "sigmoid2d": 2,
    "softmax2d": 3,
    "matmul": 3,
    "batch_matmul": 4,
    "add4d": 4,
    "relu4d": 4,
    "sigmoid4d": 4,
    "pooling": 6,
    "conv2d": 7,
}

#: Program families -> (source rank, candidate op kinds).  The family
#: fixes which tensor rank the chain flows through; the stage's depth
#: cap then filters the candidates.
FAMILIES: dict[str, tuple[int, tuple[str, ...]]] = {
    # randomized elementwise chains
    "elementwise2d": (2, ("add2d", "mul2d", "relu2d", "sigmoid2d")),
    # reductions: row softmax + elementwise glue
    "reduction2d": (2, ("softmax2d", "add2d", "relu2d")),
    # matmul-like contractions (2-D chain)
    "contraction": (2, ("matmul", "add2d", "relu2d")),
    # batched contractions (3-D chain)
    "contraction3d": (3, ("batch_matmul",)),
    # convolution / pooling stencils over NHWC activations
    "stencil": (4, ("conv2d", "pooling", "relu4d")),
    # mixed compositions
    "mixed2d": (2, ("matmul", "softmax2d", "add2d", "mul2d", "relu2d",
                    "sigmoid2d")),
    "mixed4d": (4, ("conv2d", "pooling", "add4d", "relu4d", "sigmoid4d")),
}


@dataclass(frozen=True)
class Stage:
    """One curriculum stage: which families, how deep, how long.

    ``max_depth`` caps each op's loop-nest depth (``LinalgOp.num_loops``)
    and ``min_ops``/``max_ops`` bound the program's op count — the two
    axes the curriculum ramps.
    """

    name: str
    families: tuple[str, ...]
    min_ops: int
    max_ops: int
    max_depth: int

    def __post_init__(self) -> None:
        if not 1 <= self.min_ops <= self.max_ops:
            raise ValueError(
                f"stage {self.name!r}: need 1 <= min_ops <= max_ops, got "
                f"{self.min_ops}..{self.max_ops}"
            )
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ValueError(
                f"stage {self.name!r}: unknown families {unknown}; "
                f"available: {sorted(FAMILIES)}"
            )
        for family in self.families:
            _, kinds = FAMILIES[family]
            if not any(OP_DEPTHS[k] <= self.max_depth for k in kinds):
                raise ValueError(
                    f"stage {self.name!r}: family {family!r} has no op "
                    f"within max_depth={self.max_depth}"
                )

    def kinds_for(self, family: str) -> tuple[str, ...]:
        """The family's op kinds admitted by this stage's depth cap."""
        _, kinds = FAMILIES[family]
        return tuple(k for k in kinds if OP_DEPTHS[k] <= self.max_depth)


#: The default curriculum: shallow single-op elementwise programs up to
#: deep mixed 2-D/4-D compositions with stencils and contractions.
DEFAULT_CURRICULUM: tuple[Stage, ...] = (
    Stage("warmup", ("elementwise2d",), 1, 2, 2),
    Stage("single", ("elementwise2d", "reduction2d", "contraction"), 1, 3, 3),
    Stage(
        "chains",
        ("contraction", "contraction3d", "reduction2d", "mixed2d"),
        2, 5, 4,
    ),
    Stage(
        "deep",
        ("contraction", "contraction3d", "stencil", "mixed2d", "mixed4d"),
        3, 8, 7,
    ),
)

#: The stage used when no curriculum is requested: everything at once.
FULL_STAGE: Stage = Stage("full", tuple(FAMILIES), 1, 8, 7)


def stage_named(name: str) -> Stage:
    """Look up a stage of the default curriculum (or ``full``)."""
    if name == FULL_STAGE.name:
        return FULL_STAGE
    for stage in DEFAULT_CURRICULUM:
        if stage.name == name:
            return stage
    known = [s.name for s in DEFAULT_CURRICULUM] + [FULL_STAGE.name]
    raise ValueError(f"unknown stage {name!r}; available: {known}")


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """One op of a program spec: a kind plus pool-index parameters.

    ``params`` meaning by kind: matmul/batch_matmul -> (inner dim index),
    conv2d -> (kernel index, out-channel index), pooling -> (window
    index, stride), elementwise/softmax -> ().
    """

    kind: str
    params: tuple[int, ...] = ()


@dataclass(frozen=True)
class ProgramSpec:
    """A fully deterministic program description.

    Replaying the spec (:func:`emit`) in a given universe always builds
    the same function; the spec itself is hashable and picklable, so it
    can cross process boundaries and key caches.
    """

    family: str
    stage: str
    source: tuple[int, ...]  # pool indices of the source tensor dims
    ops: tuple[OpSpec, ...]


def _source_shape(
    spec: ProgramSpec, universe: ShapeUniverse
) -> tuple[int, ...]:
    rank, _ = FAMILIES[spec.family]
    if rank == 2:
        rows, cols = spec.source
        return (universe.dims_2d[rows], universe.dims_2d[cols])
    if rank == 3:
        batch, rows, cols = spec.source
        return (
            universe.batch[batch],
            universe.dims_2d[rows],
            universe.dims_2d[cols],
        )
    spatial, channels = spec.source
    return (1, universe.spatial[spatial], universe.spatial[spatial],
            universe.channels[channels])


def _admissible(kind: str, shape: tuple[int, ...], params: tuple[int, ...]) -> bool:
    """Whether ``kind`` applies to a chain value of ``shape``.

    Called on the full *and* the smoke shape during sampling so both
    replicas of a spec take the same branch.
    """
    if kind == "conv2d":
        kernel = _KERNELS[params[0]]
        _, height, width, _ = shape
        return height >= kernel + 2 and width >= kernel + 2
    if kind == "pooling":
        window = _POOL_WINDOWS[params[0]]
        stride = params[1]
        _, height, width, _ = shape
        return height >= window + stride and width >= window + stride
    return True


def _append_op(
    func: FuncOp,
    current: Value,
    op_spec: OpSpec,
    universe: ShapeUniverse,
) -> LinalgOp:
    """Append one spec'd op consuming ``current``; returns the new op."""
    kind = op_spec.kind
    shape = current.type.shape
    if kind in ("add2d", "add4d"):
        rhs = builders.tensor(list(shape))
        func.arguments.append(rhs)
        return func.append(builders.add(current, rhs, builders.empty(list(shape))))
    if kind == "mul2d":
        rhs = builders.tensor(list(shape))
        func.arguments.append(rhs)
        return func.append(builders.mul(current, rhs, builders.empty(list(shape))))
    if kind in ("relu2d", "relu4d"):
        return func.append(builders.relu(current, builders.empty(list(shape))))
    if kind in ("sigmoid2d", "sigmoid4d"):
        return func.append(
            builders.sigmoid(current, builders.empty(list(shape)))
        )
    if kind == "softmax2d":
        return func.append(
            builders.softmax_2d(current, builders.empty(list(shape)))
        )
    if kind == "matmul":
        rows, cols = shape
        inner = universe.dims_2d[op_spec.params[0]]
        rhs = builders.tensor([cols, inner])
        func.arguments.append(rhs)
        return func.append(
            builders.matmul(current, rhs, builders.empty([rows, inner]))
        )
    if kind == "batch_matmul":
        batch, rows, cols = shape
        inner = universe.dims_2d[op_spec.params[0]]
        rhs = builders.tensor([batch, cols, inner])
        func.arguments.append(rhs)
        return func.append(
            builders.batch_matmul(
                current, rhs, builders.empty([batch, rows, inner])
            )
        )
    if kind == "conv2d":
        batch, height, width, channels = shape
        kernel = _KERNELS[op_spec.params[0]]
        out_channels = universe.channels[op_spec.params[1]]
        filter_ = builders.tensor([kernel, kernel, channels, out_channels])
        func.arguments.append(filter_)
        out = builders.empty(
            [batch, height - kernel + 1, width - kernel + 1, out_channels]
        )
        return func.append(builders.conv_2d_nhwc_hwcf(current, filter_, out))
    if kind == "pooling":
        batch, height, width, channels = shape
        window = _POOL_WINDOWS[op_spec.params[0]]
        stride = op_spec.params[1]
        out_h = (height - window) // stride + 1
        out_w = (width - window) // stride + 1
        out = builders.empty([batch, out_h, out_w, channels])
        return func.append(
            builders.pooling_nhwc_max(
                current, out, (window, window), (stride, stride)
            )
        )
    raise ValueError(f"unknown generated op kind {op_spec.kind!r}")


def _sample_op_params(rng: np.random.Generator, kind: str) -> tuple[int, ...]:
    if kind in ("matmul", "batch_matmul"):
        return (int(rng.integers(len(_FULL_DIMS_2D))),)
    if kind == "conv2d":
        return (
            int(rng.integers(len(_KERNELS))),
            int(rng.integers(len(_FULL_CHANNELS))),
        )
    if kind == "pooling":
        return (
            int(rng.integers(len(_POOL_WINDOWS))),
            int(rng.integers(1, 3)),  # stride 1 or 2
        )
    return ()


#: Fallback per chain rank when a sampled op is inadmissible at the
#: current shape (in either universe): an always-legal elementwise op,
#: mirroring how :mod:`.sequences` degrades too-small convolutions.
_FALLBACK_BY_RANK = {2: "relu2d", 3: "batch_matmul", 4: "relu4d"}


def sample_spec(rng: np.random.Generator, stage: Stage) -> ProgramSpec:
    """Draw one program spec within ``stage``'s depth/op-count bounds.

    Sampling simulates the chain's shape evolution in the full *and*
    smoke universes and only admits ops legal in both, so the spec's
    smoke replica is structurally identical to its training-scale form.
    """
    family = str(rng.choice(list(stage.families)))
    rank, _ = FAMILIES[family]
    kinds = stage.kinds_for(family)
    if rank == 2:
        source = (
            int(rng.integers(len(_FULL_DIMS_2D))),
            int(rng.integers(len(_FULL_DIMS_2D))),
        )
    elif rank == 3:
        source = (
            int(rng.integers(len(_FULL_BATCH))),
            int(rng.integers(len(_FULL_DIMS_2D))),
            int(rng.integers(len(_FULL_DIMS_2D))),
        )
    else:
        source = (
            int(rng.integers(len(_FULL_SPATIAL))),
            int(rng.integers(len(_FULL_CHANNELS))),
        )
    count = int(rng.integers(stage.min_ops, stage.max_ops + 1))

    # Track shapes in both universes to keep guard outcomes aligned.
    probe = ProgramSpec(family, stage.name, source, ())
    shapes = {
        "full": _source_shape(probe, FULL),
        "smoke": _source_shape(probe, SMOKE),
    }
    ops: list[OpSpec] = []
    for _ in range(count):
        kind = str(rng.choice(list(kinds)))
        params = _sample_op_params(rng, kind)
        if not all(
            _admissible(kind, shape, params) for shape in shapes.values()
        ):
            kind = _FALLBACK_BY_RANK[rank]
            params = _sample_op_params(rng, kind)
        ops.append(OpSpec(kind, params))
        shapes = {
            key: _next_shape(shapes[key], ops[-1], universe)
            for key, universe in (("full", FULL), ("smoke", SMOKE))
        }
    return ProgramSpec(family, stage.name, source, tuple(ops))


def _next_shape(
    shape: tuple[int, ...], op_spec: OpSpec, universe: ShapeUniverse
) -> tuple[int, ...]:
    """The chain value's shape after applying ``op_spec``."""
    kind = op_spec.kind
    if kind == "matmul":
        return (shape[0], universe.dims_2d[op_spec.params[0]])
    if kind == "batch_matmul":
        return (shape[0], shape[1], universe.dims_2d[op_spec.params[0]])
    if kind == "conv2d":
        kernel = _KERNELS[op_spec.params[0]]
        out_channels = universe.channels[op_spec.params[1]]
        return (
            shape[0],
            shape[1] - kernel + 1,
            shape[2] - kernel + 1,
            out_channels,
        )
    if kind == "pooling":
        window = _POOL_WINDOWS[op_spec.params[0]]
        stride = op_spec.params[1]
        return (
            shape[0],
            (shape[1] - window) // stride + 1,
            (shape[2] - window) // stride + 1,
            shape[3],
        )
    return shape  # elementwise / softmax preserve shape


def emit(spec: ProgramSpec, universe: ShapeUniverse = FULL) -> FuncOp:
    """Replay a spec into a verified function in ``universe``."""
    source_shape = _source_shape(spec, universe)
    source = builders.tensor(list(source_shape))
    func = FuncOp(f"gen_{spec.family}_{spec.stage}", [source])
    current = source
    for op_spec in spec.ops:
        op = _append_op(func, current, op_spec, universe)
        current = op.result()
    func.returns = [current]
    func.verify_ssa()
    return func


def generate_program(
    rng: np.random.Generator, stage: Stage = FULL_STAGE
) -> FuncOp:
    """One fresh verified random program within ``stage``'s bounds."""
    return emit(sample_spec(rng, stage), FULL)


# ---------------------------------------------------------------------------
# Verification: SSA + interpreter smoke-run
# ---------------------------------------------------------------------------


def smoke_run(func: FuncOp, rng: np.random.Generator) -> None:
    """Interpret every op of ``func`` on random operands.

    Ops execute independently (function-level dataflow is covered by
    ``verify_ssa``): each gets random inputs and zero-initialized
    outputs, and must produce finite results of the declared shape.
    Raises on any interpreter error or non-finite output.
    """
    for op in func.body:
        outputs = evaluate_op(op, random_operands(op, rng))
        for value, array in zip(op.outputs, outputs):
            if tuple(array.shape) != value.type.shape:
                raise IRError(
                    f"{func.name}/{op.name}: interpreted shape "
                    f"{array.shape} != declared {value.type.shape}"
                )
            if not np.all(np.isfinite(array)):
                raise IRError(
                    f"{func.name}/{op.name}: non-finite interpreter output"
                )


def verify_program(spec: ProgramSpec, rng: np.random.Generator) -> FuncOp:
    """Full verification of one spec; returns the training-scale function.

    Checks, in order: the full emission passes ``verify_ssa`` and every
    op's loop bounds are inferable; the smoke replica (same ops, tiny
    shapes) passes ``verify_ssa`` and a numerical interpreter run.
    """
    func = emit(spec, FULL)
    for op in func.body:
        op.loop_bounds()  # raises IRError if any extent is uninferable
    replica = emit(spec, SMOKE)
    if [op.name for op in replica.body] != [op.name for op in func.body]:
        raise IRError(
            f"{func.name}: smoke replica structure diverged from the "
            "training-scale emission"
        )
    smoke_run(replica, rng)
    return func


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


class CurriculumSampler:
    """A stage-keyed program sampler for the PPO trainer.

    Callable with the trainer's generator (the standard sampler
    protocol).  Draws advance a counter; every ``episodes_per_stage``
    draws the curriculum moves to the next :class:`Stage`, ending at the
    last.  Instances expose ``state_dict``/``load_state_dict`` so
    resumed training continues at the exact stage and draw count it
    stopped at.
    """

    def __init__(
        self,
        stages: tuple[Stage, ...] = DEFAULT_CURRICULUM,
        episodes_per_stage: int = 256,
    ):
        if not stages:
            raise ValueError("CurriculumSampler needs at least one stage")
        if episodes_per_stage < 1:
            raise ValueError(
                f"episodes_per_stage must be >= 1, got {episodes_per_stage}"
            )
        self.stages = tuple(stages)
        self.episodes_per_stage = episodes_per_stage
        self.draws = 0

    @property
    def stage_index(self) -> int:
        return min(
            self.draws // self.episodes_per_stage, len(self.stages) - 1
        )

    @property
    def stage(self) -> Stage:
        return self.stages[self.stage_index]

    def __call__(self, rng: np.random.Generator) -> FuncOp:
        stage = self.stage
        self.draws += 1
        return generate_program(rng, stage)

    def state_dict(self) -> dict:
        return {
            "draws": self.draws,
            "episodes_per_stage": self.episodes_per_stage,
            "stages": [stage.name for stage in self.stages],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a saved position; the stage *schedule* must match.

        ``draws`` alone is meaningless under a different
        ``episodes_per_stage`` or stage list — silently reinterpreting
        it would put the resumed run on a different curriculum than the
        one it was saved from.
        """
        saved_eps = state.get("episodes_per_stage")
        if saved_eps is not None and saved_eps != self.episodes_per_stage:
            raise ValueError(
                f"curriculum state was saved with episodes_per_stage="
                f"{saved_eps} but the sampler uses "
                f"{self.episodes_per_stage}; resume with the same "
                "--curriculum value"
            )
        saved_stages = state.get("stages")
        current_stages = [stage.name for stage in self.stages]
        if saved_stages is not None and saved_stages != current_stages:
            raise ValueError(
                f"curriculum state was saved with stages {saved_stages} "
                f"but the sampler has {current_stages}"
            )
        self.draws = int(state["draws"])


class GeneratedSampler:
    """A single-stage generated-program sampler (no curriculum)."""

    def __init__(self, stage: Stage = FULL_STAGE):
        self.stage = stage

    def __call__(self, rng: np.random.Generator) -> FuncOp:
        return generate_program(rng, self.stage)
