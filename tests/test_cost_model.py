"""Learned cost model: persistence, export determinism, guided search.

Covers the cache→dataset pipeline end to end: the JSON codec for cache
entries round-trips every persistable value (hypothesis), a saved cache
reloads with bit-identical timings and working spec-keyed lookups, the
exporter emits a byte-identical dataset across runs and fork workers,
beam search dedups identical candidate schedules before scoring, a
trained model predicts identically after save/load, model-guided
greedy/beam search runs end to end, and the CLI verbs chain together.
"""

import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BeamSearchAgent, GreedyAgent, MlirBaseline
from repro.cli import main
from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.machine import (
    FEATURE_SIZE,
    FEATURE_VERSION,
    CachingExecutor,
    ExecutionCache,
    Executor,
    ScheduleCostEvaluator,
    XEON_E5_2680_V4,
    build_corpus,
    export_dataset,
    func_fingerprint,
    sample_features,
)
from repro.machine.dataset import check_model_compatible
from repro.machine.persist import (
    PersistError,
    decode_value,
    encode_value,
)
from repro.machine.timing import TimingBreakdown
from repro.nn import (
    CostModel,
    load_cost_model,
    save_cost_model,
    train_cost_model,
)


def _mm():
    a, b, c = tensor([64, 48]), tensor([48, 32]), tensor([64, 32])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func


def _chain():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func


def _small_corpus(seed=3):
    return build_corpus(
        num_programs=3,
        schedules_per_program=2,
        seed=seed,
        extra_programs=[_mm(), _chain()],
    )


def _export_bytes(seed):
    """Module-level so a fork worker can run it (pool.apply pickles)."""
    dataset = export_dataset(_small_corpus(seed))
    return dataset.features.tobytes() + dataset.targets.tobytes()


@pytest.fixture(scope="module")
def corpus_cache():
    return _small_corpus()


@pytest.fixture(scope="module")
def trained(corpus_cache):
    dataset = export_dataset(corpus_cache)
    model, metrics = train_cost_model(dataset, seed=0, epochs=10)
    return model, metrics, dataset


# ---------------------------------------------------------------------------
# Persistence codec
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(0, 100), max_size=4).map(frozenset),
    ),
    max_leaves=12,
)


_loops = st.tuples(
    st.integers(0, 9), st.integers(0, 4096), st.integers(0, 512), st.booleans()
)
_op_states = st.tuples(
    st.lists(st.integers(0, 4096), max_size=10).map(tuple),  # extents
    st.lists(st.integers(0, 9), max_size=10).map(tuple),  # order
    st.lists(
        st.tuples(st.booleans(), st.lists(_loops, max_size=6).map(tuple)),
        max_size=5,
    ).map(tuple),  # bands
    st.booleans(),  # vectorized
    st.booleans(),  # fused into a consumer
    st.lists(st.integers(0, 7), max_size=3).map(tuple),  # fused producers
    st.lists(st.text(max_size=3), max_size=3).map(tuple),  # annotations
)


def _reference_op_block(state):
    """The per-op schedule block spelled out slot by slot."""
    from repro.machine.dataset import (
        BAND_FEATURES,
        BAND_LOOPS,
        MAX_BANDS,
        MAX_DIMS,
    )

    def log_extent(value):
        return math.log2(1 + value) / 20.0

    extents, order, bands, vectorized, fused_into, fused, annotations = state
    block = [1.0]
    for dim in range(MAX_DIMS):
        block.append(log_extent(extents[dim]) if dim < len(extents) else 0.0)
    for dim in range(MAX_DIMS):
        block.append((order[dim] + 1) / 12.0 if dim < len(order) else 0.0)
    block.append(len(bands) / 4.0)
    for index in range(MAX_BANDS):
        if index >= len(bands):
            block += [0.0] * BAND_FEATURES
            continue
        parallel, loops = bands[index]
        block += [1.0 if parallel else 0.0, len(loops) / 4.0]
        for slot in range(BAND_LOOPS):
            if slot < len(loops):
                dim, trip, tile, loop_parallel = loops[slot]
                block += [
                    (dim + 1) / 12.0,
                    log_extent(trip),
                    log_extent(tile),
                    1.0 if loop_parallel else 0.0,
                ]
            else:
                block += [0.0] * 4
    block += [
        1.0 if vectorized else 0.0,
        1.0 if fused_into else 0.0,
        len(fused) / 4.0,
        len(annotations) / 4.0,
    ]
    return block


class TestPersistCodec:
    @settings(max_examples=100, deadline=None)
    @given(value=_values)
    def test_round_trip(self, value):
        """decode∘encode is the identity over the persistable space —
        including through an actual JSON serialization."""
        import json

        encoded = json.loads(json.dumps(encode_value(value)))
        assert decode_value(encoded) == value

    def test_spec_and_breakdown_round_trip(self):
        spec = decode_value(encode_value(XEON_E5_2680_V4))
        assert spec == XEON_E5_2680_V4
        assert hash(spec) == hash(XEON_E5_2680_V4)
        breakdown = TimingBreakdown(1.5, 1.0, 0.4, 0.1, 14)
        assert decode_value(encode_value(breakdown)) == breakdown

    def test_unencodable_raises(self):
        with pytest.raises(PersistError):
            encode_value(object())
        with pytest.raises(PersistError):
            decode_value({"unknown-tag": 1})


class TestCachePersistence:
    def test_save_load_round_trip(self, corpus_cache, tmp_path):
        path = tmp_path / "cache.json"
        written = corpus_cache.save(path)
        assert written > 0
        loaded = ExecutionCache()
        assert loaded.load(path) == written
        original = {
            (level, key): value
            for level, key, value in corpus_cache.entries()
        }
        restored = {
            (level, key): value for level, key, value in loaded.entries()
        }
        assert set(restored) == set(original)
        for key, breakdown in original.items():
            assert restored[key] == breakdown  # bit-identical timings

    def test_save_is_deterministic(self, corpus_cache, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        corpus_cache.save(first)
        corpus_cache.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_cache_serves_spec_keyed_lookups(
        self, corpus_cache, tmp_path
    ):
        path = tmp_path / "cache.json"
        corpus_cache.save(path)
        loaded = ExecutionCache()
        loaded.load(path)
        executor = CachingExecutor(XEON_E5_2680_V4, cache=loaded)
        executor.run_baseline(_mm())  # corpus extra program: warm
        assert executor.stats.hits == 1
        assert executor.stats.evaluations == 0

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            ExecutionCache().load(path)


# ---------------------------------------------------------------------------
# Exporter determinism
# ---------------------------------------------------------------------------


class TestExporter:
    def test_layout(self, trained):
        _model, _metrics, dataset = trained
        assert dataset.feature_version == FEATURE_VERSION
        assert dataset.features.shape[1] == FEATURE_SIZE
        assert dataset.features.dtype == np.float32
        assert len(dataset) == dataset.targets.shape[0] > 0

    def test_same_cache_exports_identical_bytes(self):
        assert _export_bytes(7) == _export_bytes(7)

    def test_fork_worker_exports_identical_bytes(self):
        """The property corpus collection across workers relies on."""
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            child = pool.apply(_export_bytes, (7,))
        assert child == _export_bytes(7)

    def test_dataset_npz_round_trip(self, trained, tmp_path):
        from repro.machine import CostDataset

        _model, _metrics, dataset = trained
        path = tmp_path / "ds.npz"
        dataset.save(path)
        loaded = CostDataset.load(path)
        assert np.array_equal(loaded.features, dataset.features)
        assert np.array_equal(loaded.targets, dataset.targets)
        assert loaded.feature_version == dataset.feature_version

    def test_corpus_cache_never_capacity_bound(self, corpus_cache):
        """Baseline entries are the *oldest* in a corpus cache; LRU
        eviction severs the exporter's baseline join (a full-size
        corpus once overflowed the 8192-entry service default and
        exported zero samples).  The corpus cache must have headroom,
        and every schedule-level entry must export."""
        assert corpus_cache.schedule_maxsize >= 1 << 20
        exported = len(export_dataset(corpus_cache))
        assert exported == corpus_cache.schedule_entries

    def test_empty_cache_exports_empty_dataset(self):
        dataset = export_dataset(ExecutionCache())
        assert len(dataset) == 0
        assert dataset.features.shape == (0, FEATURE_SIZE)

    @settings(max_examples=200, deadline=None)
    @given(state=_op_states)
    def test_schedule_op_block_matches_layout(self, state):
        """The cached-part featurizer writes the FEATURE_VERSION 1
        layout, float for float, including dims, bands and band loops
        past their caps (saved models depend on it)."""
        from repro.machine.dataset import _schedule_op_block

        assert _schedule_op_block(state) == _reference_op_block(state)

    def test_clear_feature_caches_empties_parts(self):
        """Cold-cache scoring runs start from empty part caches and
        featurize exactly as a warm run does."""
        from repro.machine.dataset import (
            _band_features,
            _extent_features,
            _order_features,
            _schedule_op_block,
            clear_feature_caches,
        )

        band = (True, ((0, 64, 8, True),))
        state = ((64, 32), (1, 0), (band,), True, False, (), ())
        warm = _schedule_op_block(state)
        clear_feature_caches()
        parts = (_extent_features, _order_features, _band_features)
        assert [part.cache_info().currsize for part in parts] == [0, 0, 0]
        assert _schedule_op_block(state) == warm


# ---------------------------------------------------------------------------
# Model training + persistence
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_training_fits_corpus(self, trained):
        _model, metrics, _dataset = trained
        assert metrics["train_samples"] + metrics["holdout_samples"] == (
            metrics["samples"]
        )
        assert np.isfinite(metrics["final_loss"])
        assert metrics["train_mape"] < 2.0

    def test_save_load_identical_predictions(self, trained, tmp_path):
        model, _metrics, dataset = trained
        path = tmp_path / "model.npz"
        save_cost_model(model, path)
        loaded = load_cost_model(path)
        assert loaded.feature_version == model.feature_version
        original = model.predict_seconds(dataset.features)
        restored = loaded.predict_seconds(dataset.features)
        assert np.array_equal(original, restored)

    def test_version_check(self):
        stale = CostModel(feature_size=4, feature_version=FEATURE_VERSION + 1)
        with pytest.raises(ValueError, match="feature layout"):
            check_model_compatible(stale)
        with pytest.raises(ValueError, match="feature layout"):
            ScheduleCostEvaluator(stale, XEON_E5_2680_V4)

    def test_predictions_are_finite_positive(self, trained):
        model, _metrics, dataset = trained
        predicted = model.predict_seconds(dataset.features)
        assert np.all(np.isfinite(predicted))
        assert np.all(predicted > 0)


# ---------------------------------------------------------------------------
# Model-guided search
# ---------------------------------------------------------------------------


class _SpyEvaluator:
    """Scores everything 1.0 and records the key batches it was given."""

    def __init__(self):
        self.key_batches = []

    def score_batch(self, candidates, keys=None):
        self.key_batches.append(
            list(keys) if keys is not None else [None] * len(candidates)
        )
        return [1.0] * len(candidates)


class TestGuidedSearch:
    def test_beam_dedups_candidates_before_scoring(self):
        """Identical schedules reached via different action orders are
        scored once per expansion round."""
        spy = _SpyEvaluator()
        agent = BeamSearchAgent(beam_width=4, evaluator=spy)
        agent.optimize(_mm())
        expansion_batches = [
            batch for batch in spy.key_batches if len(batch) > 1
        ]
        assert expansion_batches, "beam search never expanded a round"
        for batch in expansion_batches:
            keyed = [key for key in batch if key is not None]
            assert len(keyed) == len(set(keyed))

    def test_cost_guided_greedy_end_to_end(self, trained):
        model, _metrics, _dataset = trained
        executor = CachingExecutor(XEON_E5_2680_V4, cache=ExecutionCache())
        evaluator = ScheduleCostEvaluator(
            model, XEON_E5_2680_V4, executor=executor
        )
        agent = GreedyAgent(executor=executor, evaluator=evaluator)
        func = _mm()
        baseline = MlirBaseline(executor=executor).seconds(func)
        result = agent.run(func)
        assert evaluator.stats.scored > 0
        assert agent.candidates_scored >= evaluator.stats.scored
        # Finalist selection real-evaluates the initial state too, so a
        # cost-guided search never returns a schedule the machine model
        # rates worse than leaving the function untouched.
        assert result.seconds <= baseline * 1.001
        assert result.schedule is not None

    def test_scoring_agrees_with_executor_predictions(self, trained):
        """The evaluator's batched path and a one-off prediction on
        :func:`sample_features` agree."""
        model, _metrics, _dataset = trained
        func = _mm()
        from repro.transforms.pipeline import ScheduledFunction

        scheduled = ScheduledFunction(func)
        evaluator = ScheduleCostEvaluator(model, XEON_E5_2680_V4)
        score = evaluator.score_batch([scheduled])[0]
        features = sample_features(
            XEON_E5_2680_V4,
            func_fingerprint(func),
            scheduled.schedule_key(),
            Executor(XEON_E5_2680_V4).run_baseline(func).seconds,
        )
        predicted = float(model.predict_seconds(features[None, :])[0])
        assert score == pytest.approx(predicted, rel=1e-6)

    def test_batched_rows_are_sample_features(self):
        """Each row score_batch hands the model is byte-identical to
        sample_features — for untouched, tiled, interchanged and fused
        ops, and in a batch that switches between functions."""
        from repro.transforms import Interchange, Tiling, TiledFusion
        from repro.transforms.pipeline import ScheduledFunction

        rows: list[np.ndarray] = []

        class RecordingModel:
            feature_version = FEATURE_VERSION

            def predict_seconds(self, features):
                rows.extend(np.array(features, copy=True))
                return np.ones(len(features), dtype=np.float32)

        chain = _chain()
        first, second = chain.body
        fused = ScheduledFunction(chain)
        fused.apply(second, TiledFusion((16, 16)))
        fused.apply(second, Interchange((1, 0)))
        mm = ScheduledFunction(_mm())
        mm.apply(mm.func.body[0], Tiling((8, 16, 4)))
        producer_only = ScheduledFunction(chain)
        producer_only.apply(first, Tiling((32, 8)))
        candidates = [ScheduledFunction(chain), fused, mm, producer_only]
        executor = Executor(XEON_E5_2680_V4)
        evaluator = ScheduleCostEvaluator(
            RecordingModel(), XEON_E5_2680_V4, executor=executor
        )
        assert evaluator.score_batch(candidates) == [1.0] * len(candidates)
        assert len(rows) == len(candidates)
        for row, scheduled in zip(rows, candidates):
            expected = sample_features(
                XEON_E5_2680_V4,
                func_fingerprint(scheduled.func),
                scheduled.schedule_key(),
                executor.run_baseline(scheduled.func).seconds,
            )
            assert row.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_export_train_chain(self, tmp_path, capsys):
        data = tmp_path / "ds.npz"
        cache = tmp_path / "cache.json"
        model = tmp_path / "model.npz"
        assert (
            main(
                [
                    "cost-export",
                    "--programs",
                    "3",
                    "--schedules",
                    "1",
                    "--seed",
                    "2",
                    "--output",
                    str(data),
                    "--save-cache",
                    str(cache),
                ]
            )
            == 0
        )
        assert data.exists() and cache.exists()
        # Re-export from the saved cache: identical dataset, no re-timing.
        second = tmp_path / "ds2.npz"
        assert (
            main(
                [
                    "cost-export",
                    "--from-cache",
                    str(cache),
                    "--output",
                    str(second),
                ]
            )
            == 0
        )
        with np.load(data) as a, np.load(second) as b:
            assert np.array_equal(a["features"], b["features"])
            assert np.array_equal(a["targets"], b["targets"])
        assert (
            main(
                [
                    "cost-train",
                    "--data",
                    str(data),
                    "--output",
                    str(model),
                    "--epochs",
                    "3",
                ]
            )
            == 0
        )
        assert model.exists()
        out = capsys.readouterr().out
        assert "holdout MAPE" in out
        loaded = load_cost_model(model)
        check_model_compatible(loaded)

    def test_eval_cost_requires_model(self, capsys):
        assert main(["evaluate", "--eval", "cost"]) == 1
        assert "--cost-model" in capsys.readouterr().out

    def test_eval_cost_rejects_missing_model(self, tmp_path, capsys):
        missing = tmp_path / "nope.npz"
        assert (
            main(
                [
                    "evaluate",
                    "--eval",
                    "cost",
                    "--cost-model",
                    str(missing),
                ]
            )
            == 1
        )
        assert "cannot load cost model" in capsys.readouterr().out

    def test_cost_export_rejects_bad_cache(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert (
            main(
                [
                    "cost-export",
                    "--from-cache",
                    str(bad),
                    "--output",
                    str(tmp_path / "ds.npz"),
                ]
            )
            == 1
        )
        assert "cannot load cache" in capsys.readouterr().out
