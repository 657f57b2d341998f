"""Tests for the transform registry, the action-space backends, and the
unrolling plugin.

Covers the PR's acceptance properties:

* the default registry view reproduces the paper's six-way action space
  bit-for-bit (kinds, head shapes, observation sizes);
* encode/decode round-trips over the FULL registry (hypothesis);
* flat and hierarchical backends reach the same Transformation records;
* loop unrolling works purely as a registered plugin — including its
  interaction with vectorization's full-unroll precondition — with zero
  edits to environment/masking/policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.env import (
    EnvAction,
    MlirRlEnv,
    compute_mask,
    decode_action,
    extended_config,
    feature_size,
    flat_action_table,
    multi_discrete_space,
    small_config,
)
from repro.env.config import InterchangeMode
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.nn import Tensor
from repro.rl import (
    ActorCritic,
    FlatActorCritic,
    PPOConfig,
    collect_episode,
    get_backend,
    save_agent,
    load_agent,
)
from repro.rl.policy import PolicyNetwork
from repro.transforms import (
    Interchange,
    NoTransformation,
    ScheduledOp,
    TiledParallelization,
    Tiling,
    TransformError,
    TransformKind,
    Unroll,
    Vectorization,
    apply_unroll,
    can_unroll,
    can_vectorize,
    lower_scheduled_op,
    view_for,
)
from repro.transforms.registry import PluginKind, get_spec


def _matmul_func(m=64, n=16, k=32):
    a, b, c = tensor([m, k]), tensor([k, n]), tensor([m, n])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _matmul_schedule(m=64, n=32, k=16):
    return ScheduledOp(
        matmul(tensor([m, k]), tensor([k, n]), tensor([m, n]))
    )


def _chain_func():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func


class TestDefaultView:
    def test_default_kinds_are_transform_kinds(self):
        view = view_for(small_config())
        assert len(view) == 6
        assert list(view.kinds) == list(TransformKind)
        assert view.names == (
            "tiling",
            "tiled_parallelization",
            "tiled_fusion",
            "interchange",
            "vectorization",
            "no_transformation",
        )

    def test_default_space_matches_paper_layout(self):
        config = small_config()
        space = multi_discrete_space(config)
        n, m = config.max_loops, config.num_tile_sizes
        assert space.nvec == (6, *([m] * n), n)  # level pointers

    def test_default_feature_size_unchanged(self):
        """The seed's closed-form observation size (no plugin slots)."""
        config = small_config()
        n, m = config.max_loops, config.num_tile_sizes
        tau = config.max_schedule_length
        from repro.env import ActionHistory, OP_TYPE_ORDER
        from repro.ir.ops import COUNTED_ARITH_KINDS

        assert ActionHistory.feature_size(config) == (
            3 * tau * n * m + tau * n * n
        )
        assert feature_size(config) == (
            len(OP_TYPE_ORDER)
            + 3 * n
            + 1
            + config.max_arrays * config.max_rank * (n + 1)
            + len(COUNTED_ARITH_KINDS)
            + ActionHistory.feature_size(config)
        )

    def test_unknown_transform_name_raises(self):
        config = small_config(transforms=("tiling", "no_such_transform"))
        with pytest.raises(KeyError):
            view_for(config)

    def test_view_requires_a_stop_transform(self):
        """The env's liveness guarantee and the flat fallback need an
        always-legal stop; a stopless action space is rejected."""
        config = small_config(transforms=("tiling", "vectorization"))
        with pytest.raises(ValueError, match="stop"):
            view_for(config)

    def test_record_only_specs_rejected_from_action_space(self):
        config = small_config(
            transforms=(*small_config().transforms, "multi_tiled_fusion")
        )
        with pytest.raises(ValueError, match="record-only"):
            view_for(config)

    def test_unknown_action_kind_raises(self):
        config = small_config()
        action = EnvAction(99)
        with pytest.raises(ValueError):
            decode_action(action, 3, config)


class TestEnvActionStr:
    def test_record_actions_print_their_record(self):
        """Flat-agent and baseline actions carry a pre-decoded record;
        the log string must show it, not a bare kind."""
        action = EnvAction(
            TransformKind.TILING, record=Tiling((4, 0, 0))
        )
        assert str(action) == "T(4, 0, 0)"
        stop = EnvAction(
            TransformKind.NO_TRANSFORMATION, record=NoTransformation()
        )
        assert str(stop) == "stop"

    def test_sampled_actions_unchanged(self):
        assert (
            str(EnvAction(TransformKind.TILING, tile_indices=(1, 0)))
            == "tiling[1, 0]"
        )
        assert (
            str(EnvAction(TransformKind.INTERCHANGE, pointer_loop=2))
            == "interchange->loop2"
        )


class TestExtendedView:
    def test_unrolling_absent_by_default(self):
        assert "unrolling" not in view_for(small_config()).names

    def test_unrolling_appends_head(self):
        config = extended_config("unrolling")
        view = view_for(config)
        assert view.names[-1] == "unrolling"
        kind = view.kinds[-1]
        assert isinstance(kind, PluginKind)
        assert int(kind) == 6 and str(kind) == "unrolling"

    def test_extended_space_and_features(self):
        config = extended_config("unrolling")
        base = small_config()
        space = multi_discrete_space(config)
        assert space.nvec[0] == 7
        assert space.nvec[-1] == len(config.unroll_factors)
        extra = config.max_schedule_length * len(config.unroll_factors)
        assert feature_size(config) == feature_size(base) + extra

    def test_policy_heads_grow_with_registry(self):
        config = extended_config("unrolling")
        net = PolicyNetwork(config, np.random.default_rng(0), hidden_size=32)
        size = feature_size(config)
        heads = net(Tensor(np.zeros((2, size))), Tensor(np.zeros((2, size))))
        assert heads["transformation"].shape == (2, 7)
        assert heads["unrolling"].shape == (2, len(config.unroll_factors))

    def test_default_checkpoint_shape_stable(self, tmp_path):
        """Default-config agents are untouched by the registry refactor:
        a checkpoint saved by one loads into another."""
        config = small_config()
        agent = ActorCritic(config, np.random.default_rng(0), hidden_size=16)
        path = tmp_path / "agent.npz"
        save_agent(agent, path)
        other = ActorCritic(config, np.random.default_rng(7), hidden_size=16)
        load_agent(other, path)
        for a, b in zip(agent.policy.parameters(), other.policy.parameters()):
            assert np.array_equal(a.data, b.data)


class TestUnrollingSemantics:
    def test_mask_offers_legal_factors_only(self):
        config = extended_config("unrolling")
        schedule = _matmul_schedule(8, 8, 4)  # innermost extent 4
        mask = compute_mask(schedule, config, has_producer=False)
        unroll_mask = mask.params["unrolling"]
        for index, factor in enumerate(config.unroll_factors):
            assert bool(unroll_mask[index]) == (factor <= 4)
        kind = view_for(config).kinds[-1]
        assert mask.transformation[int(kind)]

    def test_vectorized_op_masks_unrolling(self):
        config = extended_config("unrolling")
        schedule = _matmul_schedule(8, 8, 8)
        from repro.transforms import apply_vectorization

        apply_vectorization(schedule, Vectorization())
        mask = compute_mask(schedule, config, has_producer=False)
        assert not mask.params["unrolling"].any()
        assert mask.legal_transformations() == [
            TransformKind.NO_TRANSFORMATION
        ]

    def test_unroll_enables_vectorization(self):
        """The full-unroll precondition interaction: a >512-iteration
        innermost loop is unvectorizable until unrolling shrinks the
        chunk — picked up by the existing mask with no masking edits."""
        schedule = _matmul_schedule(8, 8, 1024)
        assert not can_vectorize(schedule)
        assert can_unroll(schedule, 4)
        apply_unroll(schedule, Unroll(4))
        assert schedule.innermost_extent() == 4
        assert can_vectorize(schedule)

    def test_unroll_illegal_cases(self):
        schedule = _matmul_schedule(8, 8, 4)
        with pytest.raises(TransformError):
            apply_unroll(schedule, Unroll(8))  # factor > extent
        from repro.transforms import apply_vectorization

        vectorized = _matmul_schedule(8, 8, 8)
        apply_vectorization(vectorized, Vectorization())
        with pytest.raises(TransformError):
            apply_unroll(vectorized, Unroll(2))

    def test_unroll_once_per_dim(self):
        """Re-unrolling an already-unrolled chunk is illegal (it would
        strand the first chunk band and overwrite the annotation)."""
        schedule = _matmul_schedule(8, 8, 256)
        apply_unroll(schedule, Unroll(2))
        assert not can_unroll(schedule, 2)
        with pytest.raises(TransformError):
            apply_unroll(schedule, Unroll(2))
        config = extended_config("unrolling")
        mask = compute_mask(schedule, config, has_producer=False)
        assert not mask.params["unrolling"].any()
        kind = view_for(config).index_of("unrolling")
        assert not mask.transformation[kind]

    def test_lowering_marks_unrolled_chunk(self):
        schedule = _matmul_schedule(16, 16, 64)
        apply_unroll(schedule, Unroll(8))
        nest = lower_scheduled_op(schedule)
        inner = nest.loops[-1]
        assert inner.unroll == inner.trip == 8
        # The chunk loop sits directly above its point loop — iteration
        # order is unchanged (that is what distinguishes it from tiling).
        chunk = nest.loops[-2]
        assert chunk.dim == inner.dim and chunk.span == 8
        # Total points are preserved.
        assert nest.total_points() == 16 * 16 * 64

    def test_clone_preserves_unroll_state(self):
        schedule = _matmul_schedule(16, 16, 64)
        apply_unroll(schedule, Unroll(8))
        clone = schedule.clone_state()
        assert clone.annotations == schedule.annotations
        clone.annotations["unroll"][99] = 1
        assert 99 not in schedule.annotations["unroll"]

    def test_history_records_factor_one_hot(self):
        config = extended_config("unrolling")
        from repro.env import ActionHistory

        history = ActionHistory(config)
        history.record(Unroll(4))
        index = config.unroll_factors.index(4)
        assert history.extras["unrolling"][0, index] == 1.0
        assert history.step == 1
        flat = history.flatten()
        assert flat.shape == (ActionHistory.feature_size(config),)
        assert flat.sum() == 1.0


class TestUnrollingInEnvironment:
    def test_episode_with_unroll_action(self):
        config = extended_config("unrolling")
        env = MlirRlEnv(config=config)
        env.reset(_matmul_func(8, 8, 1024))
        kind = view_for(config).kinds[-1]
        factor_index = config.unroll_factors.index(4)
        result = env.step(EnvAction(kind, choice=factor_index))
        assert "illegal" not in result.info
        assert result.info["action"] == "unrolling#choice1"
        # After unrolling, vectorization must be legal again.
        mask = result.observation.mask
        assert mask.transformation[TransformKind.VECTORIZATION]
        result = env.step(EnvAction(TransformKind.VECTORIZATION))
        assert "illegal" not in result.info
        assert result.info["speedup"] > 1.0

    def test_agent_episode_consistency(self):
        """act/evaluate log-prob consistency over the extended registry."""
        config = extended_config("unrolling")
        rng = np.random.default_rng(3)
        agent = ActorCritic(config, rng, hidden_size=32)
        env = MlirRlEnv(config=config)
        trajectory = collect_episode(env, agent, _chain_func(), rng)
        log_probs, entropy, values = agent.evaluate(trajectory.steps)
        recorded = np.array([s.log_prob for s in trajectory.steps])
        assert np.allclose(log_probs.numpy(), recorded, atol=1e-8)

    def test_flat_agent_episode_with_unrolling(self):
        config = extended_config(
            "unrolling", interchange_mode=InterchangeMode.ENUMERATED
        )
        rng = np.random.default_rng(0)
        agent = FlatActorCritic(config, rng, hidden_size=32)
        env = MlirRlEnv(config=config)
        trajectory = collect_episode(env, agent, _matmul_func(), rng)
        assert len(trajectory) >= 1
        log_probs, _, _ = agent.evaluate(trajectory.steps)
        recorded = np.array([s.log_prob for s in trajectory.steps])
        assert np.allclose(log_probs.numpy(), recorded, atol=1e-8)

    def test_beam_search_explores_unrolling(self):
        """The search baselines consume the registry: an unrolling
        config makes the beam consider Unroll candidates."""
        from repro.baselines.reference_agent import (
            candidate_transformations,
        )

        config = extended_config("unrolling")
        schedule = _matmul_schedule(8, 8, 1024)
        candidates = candidate_transformations(schedule, False, config)
        assert any(isinstance(c, Unroll) for c in candidates)
        # Default config: no Unroll candidates, seed ordering preserved
        # (parallelization block first, stop never offered).
        default = candidate_transformations(
            _matmul_schedule(), False, small_config()
        )
        assert not any(isinstance(c, Unroll) for c in default)
        assert isinstance(default[0], TiledParallelization)


class TestBackends:
    def test_get_backend_names(self):
        config = small_config()
        assert get_backend("hierarchical", config).name == "hierarchical"
        assert get_backend("flat", config).name == "flat"
        with pytest.raises(ValueError):
            get_backend("nope", config)

    def test_action_spaces(self):
        config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
        hier = get_backend("hierarchical", config)
        flat = get_backend("flat", config)
        assert hier.action_space().nvec[0] == 6
        assert flat.action_space().n == len(flat_action_table(config))

    def test_backends_collect_episodes(self):
        config = small_config(interchange_mode=InterchangeMode.ENUMERATED)
        rng = np.random.default_rng(0)
        for name in ("hierarchical", "flat"):
            backend = get_backend(name, config)
            agent = backend.build_agent(rng, hidden_size=32)
            env = MlirRlEnv(config=config)
            trajectory = collect_episode(env, agent, _matmul_func(), rng)
            assert len(trajectory) >= 1
            assert trajectory.speedup > 0

    def test_ppo_config_rejects_degenerate_num_envs(self):
        with pytest.raises(ValueError):
            PPOConfig(num_envs=0)
        with pytest.raises(ValueError):
            PPOConfig(num_envs=-3)
        assert PPOConfig(num_envs=1).num_envs == 1


class TestFlatHierarchicalParity:
    """Both backends decode to the same Transformation records."""

    @staticmethod
    def _hierarchical_equivalent(flat, config):
        """Re-encode a flat entry as a hierarchical EnvAction."""
        spec = get_spec(flat.spec_name)
        head = spec.head(config)
        if head is None:
            return EnvAction(flat.kind)
        if head.rows:
            size_index = config.tile_sizes.index(flat.tile_size)
            indices = tuple(
                size_index if level == flat.level else 0
                for level in range(config.max_loops)
            )
            return EnvAction(flat.kind, tile_indices=indices)
        if flat.permutation:
            from repro.transforms import enumerated_candidates

            candidate = enumerated_candidates(config.max_loops).index(
                flat.permutation
            )
            return EnvAction(flat.kind, interchange_candidate=candidate)
        return EnvAction(flat.kind, choice=flat.choice)

    @pytest.mark.parametrize("extra", [(), ("unrolling",)])
    def test_parity_over_full_table(self, extra):
        config = extended_config(
            *extra, interchange_mode=InterchangeMode.ENUMERATED
        )
        num_loops = 3
        for flat in flat_action_table(config):
            flat_record = flat.to_record(num_loops)
            action = self._hierarchical_equivalent(flat, config)
            decoded = decode_action(action, num_loops, config)
            if flat.permutation:
                # The flat table stores padded max_loops permutations;
                # hierarchical decoding truncates to the op's depth.
                assert decoded.permutation == flat.permutation[:num_loops]
            elif decoded is None:
                # Entries tiling a level beyond this op's depth decode
                # to a no-op step; the flat record is the matching
                # all-zero tiling (masked illegal at this depth anyway).
                assert getattr(flat_record, "sizes", None) == (
                    (0,) * num_loops
                )
            else:
                assert decoded == flat_record

    def test_parity_through_environment(self):
        """Applying both encodings of one action yields identical
        schedule state."""
        config = extended_config(
            "unrolling", interchange_mode=InterchangeMode.ENUMERATED
        )
        table = flat_action_table(config)
        # one representative per spec name
        chosen = {}
        for flat in table:
            chosen.setdefault(flat.spec_name, flat)
        for flat in chosen.values():
            env_a = MlirRlEnv(config=config)
            env_b = MlirRlEnv(config=config)
            env_a.reset(_matmul_func())
            env_b.reset(_matmul_func())
            op_a, op_b = env_a.current_op, env_b.current_op
            num_loops = env_a.current_schedule().num_loops
            record_action = EnvAction(
                flat.kind, record=flat.to_record(num_loops)
            )
            hier_action = TestFlatHierarchicalParity._hierarchical_equivalent(
                flat, config
            )
            result_a = env_a.step(record_action)
            result_b = env_b.step(hier_action)
            assert ("illegal" in result_a.info) == (
                "illegal" in result_b.info
            ), flat
            if "illegal" in result_a.info:
                continue
            history_a = env_a.scheduled.schedule_of(op_a).history
            history_b = env_b.scheduled.schedule_of(op_b).history
            assert [str(h) for h in history_a] == [
                str(h) for h in history_b
            ]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encode_decode_roundtrip_full_registry(data):
    """Property: every registered transform x every legal sub-action
    encodes to an EnvAction and decodes back to the expected record."""
    config = extended_config(
        "unrolling", interchange_mode=InterchangeMode.ENUMERATED
    )
    m = data.draw(st.sampled_from([4, 8, 64]), label="m")
    k = data.draw(st.sampled_from([2, 16, 600]), label="k")
    schedule = _matmul_schedule(m, 8, k)
    mask = compute_mask(schedule, config, has_producer=True)
    view = view_for(config)
    legal_kinds = [
        index
        for index in range(len(view))
        if mask.transformation[index]
    ]
    kind_index = data.draw(st.sampled_from(legal_kinds), label="kind")
    spec, kind = view.item(kind_index)
    head = spec.head(config)
    tile_indices = None
    choice = -1
    if head is not None:
        param_mask = mask.params[head.mask_key]
        if head.rows:
            tile_indices = np.array(
                [
                    data.draw(
                        st.sampled_from(
                            list(np.flatnonzero(param_mask[row]))
                        ),
                        label=f"row{row}",
                    )
                    for row in range(head.rows)
                ],
                dtype=np.int64,
            )
        else:
            choice = int(
                data.draw(
                    st.sampled_from(list(np.flatnonzero(param_mask))),
                    label="choice",
                )
            )
    action = spec.to_env_action(
        kind, config, tile_indices=tile_indices, choice=choice
    )
    record = decode_action(action, schedule.num_loops, config)

    if spec.name == "no_transformation":
        assert isinstance(record, NoTransformation)
    elif spec.name == "vectorization":
        assert isinstance(record, Vectorization)
    elif spec.name == "unrolling":
        assert isinstance(record, Unroll)
        assert record.factor == config.unroll_factors[choice]
    elif spec.name == "interchange":
        assert isinstance(record, Interchange)
        assert sorted(record.permutation) == list(
            range(schedule.num_loops)
        )
    else:
        expected = tuple(
            config.tile_sizes[i]
            for i in tile_indices[: schedule.num_loops]
        )
        if all(size == 0 for size in expected):
            assert record is None  # all-zero tiling is a no-op step
        else:
            assert record.sizes == expected
            assert type(record) in spec.record_types
