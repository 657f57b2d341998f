"""Tests for action masks (paper §IV-A2)."""

import numpy as np
import pytest

from repro.env import compute_mask, small_config
from repro.env.config import InterchangeMode
from repro.ir import conv_2d_nhwc_hwcf, matmul, pooling_nhwc_max, tensor
from repro.transforms import (
    ScheduledOp,
    TransformKind,
    Vectorization,
    apply_vectorization,
)


def _matmul_schedule(m=64, n=32, k=16):
    return ScheduledOp(
        matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))
    )


class TestTransformationMask:
    def test_fresh_matmul(self):
        config = small_config()
        mask = compute_mask(_matmul_schedule(), config, has_producer=False)
        legal = mask.legal_transformations()
        assert TransformKind.TILING in legal
        assert TransformKind.TILED_PARALLELIZATION in legal
        assert TransformKind.INTERCHANGE in legal
        assert TransformKind.VECTORIZATION in legal
        assert TransformKind.NO_TRANSFORMATION in legal
        assert TransformKind.TILED_FUSION not in legal

    def test_fusion_requires_producer(self):
        config = small_config()
        mask = compute_mask(_matmul_schedule(), config, has_producer=True)
        assert mask.transformation[TransformKind.TILED_FUSION]

    def test_vectorization_masked_above_512(self):
        config = small_config()
        schedule = _matmul_schedule(8, 8, 1024)  # innermost k = 1024
        mask = compute_mask(schedule, config, has_producer=False)
        assert not mask.transformation[TransformKind.VECTORIZATION]

    def test_vectorization_masked_for_pooling(self):
        config = small_config()
        op = pooling_nhwc_max(
            tensor([1, 8, 8, 4]), tensor([1, 4, 4, 4]), (2, 2), (2, 2)
        )
        mask = compute_mask(ScheduledOp(op), config, has_producer=False)
        assert not mask.transformation[TransformKind.VECTORIZATION]

    def test_vectorization_masked_for_conv(self):
        config = small_config()
        op = conv_2d_nhwc_hwcf(
            tensor([1, 8, 8, 4]), tensor([3, 3, 4, 8]), tensor([1, 6, 6, 8])
        )
        mask = compute_mask(ScheduledOp(op), config, has_producer=False)
        assert not mask.transformation[TransformKind.VECTORIZATION]

    def test_vectorized_op_only_stop(self):
        config = small_config()
        schedule = _matmul_schedule(8, 8, 8)
        apply_vectorization(schedule, Vectorization())
        mask = compute_mask(schedule, config, has_producer=True)
        assert mask.legal_transformations() == [
            TransformKind.NO_TRANSFORMATION
        ]

    def test_stop_always_legal(self):
        config = small_config()
        mask = compute_mask(_matmul_schedule(1, 1, 1), config, False)
        assert mask.transformation[TransformKind.NO_TRANSFORMATION]

    def test_deep_op_only_stop(self):
        """Ops deeper than N cannot be represented (paper sets N=12)."""
        from repro.datasets import site_contraction_nest

        config = small_config()  # max_loops = 6
        rng = np.random.default_rng(0)
        _, op = site_contraction_nest(rng, lattice=8, depth=9)
        mask = compute_mask(ScheduledOp(op), config, has_producer=False)
        assert mask.legal_transformations() == [
            TransformKind.NO_TRANSFORMATION
        ]


class TestTileSizeMasks:
    def test_zero_always_legal(self):
        config = small_config()
        mask = compute_mask(_matmul_schedule(), config, False)
        assert mask.tile_tiling[:, 0].all()

    def test_sizes_capped_by_extent(self):
        config = small_config()  # sizes (0, 1, 4, 8, 16, 32)
        mask = compute_mask(_matmul_schedule(8, 32, 16), config, False)
        # loop 0 extent 8: 16 and 32 illegal
        assert mask.tile_tiling[0, 3]       # 8 legal
        assert not mask.tile_tiling[0, 4]   # 16 illegal
        assert not mask.tile_tiling[0, 5]   # 32 illegal

    def test_parallel_mask_excludes_reduction(self):
        config = small_config()
        mask = compute_mask(_matmul_schedule(), config, False)
        # k (position 2) is a reduction: only "no tile" legal
        assert not mask.tile_parallel[2, 1:].any()
        assert mask.tile_parallel[0, 1:].any()

    def test_padding_rows_only_zero(self):
        config = small_config()
        mask = compute_mask(_matmul_schedule(), config, False)
        assert not mask.tile_tiling[3:, 1:].any()


class TestInterchangeMasks:
    def test_level_pointer_mask_all_loops(self):
        config = small_config(
            interchange_mode=InterchangeMode.LEVEL_POINTERS
        )
        mask = compute_mask(_matmul_schedule(), config, False)
        assert mask.interchange[:3].all()
        assert not mask.interchange[3:].any()

    def test_level_pointer_placed_loops_masked(self):
        """Only placed loops are masked: with (0,) placed, the pointer
        that completes the identity permutation stays legal."""
        config = small_config(
            interchange_mode=InterchangeMode.LEVEL_POINTERS
        )
        for placed in ((1,), (0,)):
            mask = compute_mask(
                _matmul_schedule(),
                config,
                False,
                pointer_placed=placed,
                in_pointer_sequence=True,
            )
            assert mask.forced_interchange
            assert mask.interchange[:3].tolist() == [
                loop not in placed for loop in range(3)
            ]
            only_interchange = mask.legal_transformations()
            assert only_interchange == [TransformKind.INTERCHANGE]

    def test_enumerated_mask_bounds(self):
        config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
        mask = compute_mask(_matmul_schedule(), config, False)
        from repro.transforms import enumerated_candidates

        candidates = enumerated_candidates(config.max_loops)
        for index, perm in enumerate(candidates):
            moved = [p for p, q in enumerate(perm) if p != q]
            expected = all(p < 3 for p in moved)
            assert bool(mask.interchange[index]) == expected
