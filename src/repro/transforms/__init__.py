"""Code transformations: the action space of MLIR RL, with MLIR semantics.

Tiling, tiled parallelization, tiled fusion, interchange and
vectorization over scheduled linalg ops, plus lowering to the explicit
loop-nest IR the machine model executes.  Every transformation is a
registered :mod:`~repro.transforms.registry` plugin; loop unrolling
(:mod:`~repro.transforms.unrolling`) is the worked extension example.
"""

from .fusion import (
    fuse_producers,
    intermediate_value_dims,
    is_fusable,
    recompute_factor,
)
from .interchange import (
    apply_interchange,
    enumerated_candidates,
    rotation_permutations,
    swap_candidate_count,
)
from .loop_nest import (
    Access,
    FusedNest,
    Loop,
    LoweredNest,
    coverage_per_dim,
)
from .lowering import (
    access_patterns,
    lower_baseline,
    lower_function,
    lower_scheduled_op,
)
from .parallelization import (
    Parallelize,
    ParallelizationSpec,
    apply_parallelization,
    legal_parallel_positions,
)
from .pipeline import ScheduledFunction
from .records import (
    Interchange,
    NoTransformation,
    TiledFusion,
    TiledParallelization,
    Tiling,
    TransformKind,
    Transformation,
    Vectorization,
    is_permutation,
)
from .loop_printer import print_nest, print_nests
from .multi_fusion import MultiTiledFusion
from .registry import (
    BUILTIN_TRANSFORMS,
    HeadSpec,
    MaskContext,
    PluginKind,
    RegistryView,
    TransformSpec,
    get_spec,
    register_transform,
    spec_for_record,
    view_for,
)
from .scheduled_op import Band, BandLoop, FusedProducer, ScheduledOp, TransformError
from .script import ScriptError, apply_script, parse_script, render_script
from .tiling import apply_tiled_parallelization, apply_tiling
from .unrolling import Unroll, UnrollSpec, apply_unroll, can_unroll
from .vectorization import (
    MAX_VECTOR_INNER_TRIP,
    apply_vectorization,
    can_vectorize,
    vectorization_precondition,
)

__all__ = [
    "BUILTIN_TRANSFORMS",
    "HeadSpec",
    "MaskContext",
    "PluginKind",
    "RegistryView",
    "TransformSpec",
    "Unroll",
    "UnrollSpec",
    "apply_unroll",
    "can_unroll",
    "get_spec",
    "register_transform",
    "rotation_permutations",
    "spec_for_record",
    "view_for",
    "Access",
    "Band",
    "BandLoop",
    "FusedNest",
    "FusedProducer",
    "Interchange",
    "Loop",
    "LoweredNest",
    "MAX_VECTOR_INNER_TRIP",
    "MultiTiledFusion",
    "NoTransformation",
    "Parallelize",
    "ParallelizationSpec",
    "ScheduledFunction",
    "ScheduledOp",
    "TiledFusion",
    "TiledParallelization",
    "Tiling",
    "TransformError",
    "TransformKind",
    "Transformation",
    "Vectorization",
    "ScriptError",
    "access_patterns",
    "apply_interchange",
    "apply_parallelization",
    "apply_script",
    "apply_tiled_parallelization",
    "apply_tiling",
    "apply_vectorization",
    "can_vectorize",
    "coverage_per_dim",
    "enumerated_candidates",
    "fuse_producers",
    "intermediate_value_dims",
    "is_fusable",
    "is_permutation",
    "legal_parallel_positions",
    "lower_baseline",
    "lower_function",
    "lower_scheduled_op",
    "parse_script",
    "print_nest",
    "print_nests",
    "recompute_factor",
    "render_script",
    "swap_candidate_count",
    "vectorization_precondition",
]
