"""CPU performance-model substrate.

A deterministic machine model standing in for the paper's Xeon E5-2680
v4 testbed: analytical cache-traffic analysis, an innermost-loop issue
model, roofline timing with parallel scaling, a trace-driven cache
simulator for validation, and a kernel-library model for the framework
baselines.
"""

from .cache import CacheHierarchy, SetAssociativeCache, iterate_points, simulate_nest
from .dataset import (
    FEATURE_SIZE,
    FEATURE_VERSION,
    CostDataset,
    RecordingEvaluator,
    ScheduleCostEvaluator,
    build_corpus,
    export_dataset,
    sample_features,
)
from .executor import ExecutionResult, Executor
from .service import (
    CacheFormatError,
    CacheStats,
    CachingExecutor,
    ExecutionCache,
    func_fingerprint,
    nest_fingerprint,
    pooled_executor,
    reset_pool,
)
from .kernels import (
    COMPILED_DISPATCH_SECONDS,
    EAGER_DISPATCH_SECONDS,
    KernelProfile,
    fused_group_time,
    kernel_time,
    op_flops,
    operand_bytes,
)
from .registry import (
    DEFAULT_MACHINE,
    machine_names,
    register_machine,
    scaled_spec,
    spec,
)
from .spec import (
    MACHINE_FEATURE_SIZE,
    XEON_E5_2680_V4,
    CacheLevel,
    MachineSpec,
    laptop_spec,
)
from .timing import BodyCost, TimingBreakdown, body_cost, nest_time, nests_time
from .traffic import (
    TrafficReport,
    access_lines,
    block_footprint_bytes,
    compulsory_bytes,
    nest_traffic,
)

__all__ = [
    "BodyCost",
    "CacheHierarchy",
    "CacheLevel",
    "CacheStats",
    "CacheFormatError",
    "CachingExecutor",
    "COMPILED_DISPATCH_SECONDS",
    "CostDataset",
    "DEFAULT_MACHINE",
    "FEATURE_SIZE",
    "FEATURE_VERSION",
    "MACHINE_FEATURE_SIZE",
    "EAGER_DISPATCH_SECONDS",
    "ExecutionCache",
    "ExecutionResult",
    "Executor",
    "KernelProfile",
    "MachineSpec",
    "RecordingEvaluator",
    "ScheduleCostEvaluator",
    "SetAssociativeCache",
    "TimingBreakdown",
    "TrafficReport",
    "XEON_E5_2680_V4",
    "access_lines",
    "block_footprint_bytes",
    "body_cost",
    "build_corpus",
    "export_dataset",
    "compulsory_bytes",
    "fused_group_time",
    "iterate_points",
    "kernel_time",
    "laptop_spec",
    "machine_names",
    "nest_fingerprint",
    "nest_time",
    "nest_traffic",
    "nests_time",
    "op_flops",
    "sample_features",
    "operand_bytes",
    "func_fingerprint",
    "pooled_executor",
    "register_machine",
    "reset_pool",
    "scaled_spec",
    "simulate_nest",
    "spec",
]
