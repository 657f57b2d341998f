"""Property tests for the random program generator and curriculum.

Every sampled program — across seeds, curriculum stages, and both shape
families — must pass ``verify_ssa``, have inferable loop bounds, lower
through the machine model, and interpret without error at smoke scale;
stage bounds (op count, nest depth) must hold; and the same seed must
reproduce the identical corpus, including in a forked worker process.
"""

import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import MlirBaseline
from repro.datasets import (
    DEFAULT_CURRICULUM,
    FULL_STAGE,
    CurriculumSampler,
    GeneratedSampler,
    Stage,
    generate_program,
    sample_spec,
    stage_named,
    verify_program,
)
from repro.datasets.generator import FAMILIES, OP_DEPTHS, SMOKE, emit
from repro.ir import ModuleOp, print_module

ALL_STAGES = (*DEFAULT_CURRICULUM, FULL_STAGE)


def _corpus_text(seed: int, count: int, stage_name: str = "full") -> str:
    rng = np.random.default_rng(seed)
    stage = stage_named(stage_name)
    return "\n".join(
        print_module(ModuleOp([generate_program(rng, stage)]))
        for _ in range(count)
    )


class TestGeneratedPrograms:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        stage_index=st.integers(0, len(ALL_STAGES) - 1),
    )
    def test_every_program_verifies(self, seed, stage_index):
        """verify_ssa + loop bounds + smoke-replica interpretation, and
        the stage's depth/op-count bounds, for any seed and stage."""
        stage = ALL_STAGES[stage_index]
        rng = np.random.default_rng(seed)
        spec = sample_spec(rng, stage)
        func = verify_program(spec, rng)
        assert stage.min_ops <= len(func.body) <= stage.max_ops
        for op in func.body:
            assert op.num_loops <= stage.max_depth
            assert all(bound > 0 for bound in op.loop_bounds())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_programs_lower_and_time(self, seed):
        """Full-scale emissions run through the machine-model lowering."""
        rng = np.random.default_rng(seed)
        func = generate_program(rng, FULL_STAGE)
        assert MlirBaseline().seconds(func) > 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_smoke_replica_mirrors_full_emission(self, seed):
        """The smoke universe replays the exact op sequence (kinds and
        chain structure) of the training-scale emission."""
        rng = np.random.default_rng(seed)
        spec = sample_spec(rng, FULL_STAGE)
        full = emit(spec)
        replica = emit(spec, SMOKE)
        assert [op.name for op in full.body] == [
            op.name for op in replica.body
        ]
        assert [op.num_loops for op in full.body] == [
            op.num_loops for op in replica.body
        ]

    def test_both_shape_families_appear(self):
        """The full distribution exercises 2-D and 4-D chains."""
        rng = np.random.default_rng(0)
        ranks = set()
        for _ in range(60):
            func = generate_program(rng, FULL_STAGE)
            ranks.add(func.arguments[0].type.rank)
        assert {2, 4} <= ranks

    def test_same_seed_reproduces_corpus(self):
        assert _corpus_text(11, 8) == _corpus_text(11, 8)

    def test_same_seed_reproduces_in_forked_worker(self):
        """A fork worker with the same seed emits the identical corpus."""
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            child = pool.apply(_corpus_text, (23, 6))
        assert child == _corpus_text(23, 6)


class TestStages:
    def test_default_curriculum_ramps(self):
        depths = [stage.max_depth for stage in DEFAULT_CURRICULUM]
        op_caps = [stage.max_ops for stage in DEFAULT_CURRICULUM]
        assert depths == sorted(depths)
        assert op_caps == sorted(op_caps)

    def test_stage_named_lookup(self):
        assert stage_named("full") is FULL_STAGE
        assert stage_named("warmup") is DEFAULT_CURRICULUM[0]
        with pytest.raises(ValueError):
            stage_named("nonexistent")

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            Stage("bad", ("elementwise2d",), 3, 2, 2)  # min > max
        with pytest.raises(ValueError):
            Stage("bad", ("no-such-family",), 1, 2, 2)
        with pytest.raises(ValueError):
            # stencil's shallowest op (relu4d) needs depth 4
            Stage("bad", ("stencil",), 1, 2, 2)

    def test_kinds_for_respects_depth_cap(self):
        stage = Stage("s", ("mixed4d",), 1, 2, 4)
        kinds = stage.kinds_for("mixed4d")
        assert "conv2d" not in kinds and "pooling" not in kinds
        assert all(OP_DEPTHS[k] <= 4 for k in kinds)
        assert set(kinds) <= set(FAMILIES["mixed4d"][1])


class TestCurriculumSampler:
    def test_advances_through_stages(self):
        sampler = CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=2)
        rng = np.random.default_rng(0)
        observed = []
        for _ in range(2 * len(DEFAULT_CURRICULUM) + 3):
            observed.append(sampler.stage.name)
            sampler(rng)
        assert observed[:2] == ["warmup", "warmup"]
        assert observed[2] == "single"
        # sticks at the last stage once exhausted
        assert observed[-1] == DEFAULT_CURRICULUM[-1].name

    def test_draws_respect_current_stage_bounds(self):
        sampler = CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=3)
        rng = np.random.default_rng(1)
        for _ in range(12):
            stage = sampler.stage
            func = sampler(rng)
            assert stage.min_ops <= len(func.body) <= stage.max_ops
            assert all(op.num_loops <= stage.max_depth for op in func.body)

    def test_picklable_with_position(self):
        sampler = CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            sampler(rng)
        clone = pickle.loads(pickle.dumps(sampler))
        assert clone.draws == 5
        assert clone.stage.name == sampler.stage.name
        assert clone.stages == sampler.stages

    def test_state_dict_roundtrip(self):
        sampler = CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=4)
        rng = np.random.default_rng(0)
        for _ in range(9):
            sampler(rng)
        state = sampler.state_dict()
        fresh = CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=4)
        fresh.load_state_dict(state)
        assert fresh.draws == 9
        assert fresh.stage.name == sampler.stage.name

    def test_validation(self):
        with pytest.raises(ValueError):
            CurriculumSampler(())
        with pytest.raises(ValueError):
            CurriculumSampler(DEFAULT_CURRICULUM, episodes_per_stage=0)


class TestGeneratedDataset:
    def test_generated_sampler_protocol(self):
        sampler = GeneratedSampler(FULL_STAGE)
        func = sampler(np.random.default_rng(0))
        func.verify_ssa()
        pickle.loads(pickle.dumps(sampler))
