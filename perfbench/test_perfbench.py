"""Fast tests of the benchmark's own machinery; no workload is run."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro.baselines.mullapudi
import repro.baselines.reference_agent
import repro.machine.executor
import repro.machine.service
import repro.machine.timing
from perfbench import run, speed, steady, workloads
from perfbench.speed import SpeedProbe
from perfbench.tracer import TRACED, Tracer, resolve
from repro.ir.printer import print_func
from repro.machine import Executor
from repro.transforms.pipeline import ScheduledFunction

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


class Layers:
    def outer(self, n: int) -> int:
        return self.inner(n) + self.inner(n)

    def inner(self, n: int) -> int:
        return sum(range(n))


def test_tracer_wraps_every_binding_of_a_function_and_restores_them():
    original = repro.machine.timing.nest_time
    bindings = [
        repro.machine.timing,
        repro.machine.service,
        repro.machine.executor,
        repro.baselines.reference_agent,
        repro.baselines.mullapudi,
    ]
    tracer = Tracer()
    tracer.install(
        [("machine.nest_time", "repro.machine.timing:nest_time"),
         ("transforms.lower", "repro.transforms.pipeline:ScheduledFunction.lower")]
    )
    try:
        for module in bindings:
            assert module.nest_time is not original
            assert module.nest_time.__wrapped__ is original
        tracer.phase = "timed"
        func = workloads.episode_program(seed=1, index=0)
        Executor().run_scheduled(ScheduledFunction(func))
    finally:
        tracer.uninstall()
    for module in bindings:
        assert module.nest_time is original
    assert "lower" in vars(ScheduledFunction)
    assert not hasattr(ScheduledFunction.lower, "__wrapped__")
    assert tracer.count("timed", "transforms.lower") == 1
    assert tracer.count("timed", "machine.nest_time") >= len(func.body)
    names = {span[1] for span in tracer.spans}
    assert names == {"machine.nest_time", "transforms.lower"}


def test_self_time_excludes_children_and_spans_keep_parents():
    tracer = Tracer()
    prefix = f"{__name__}:Layers"
    tracer.install([("outer", f"{prefix}.outer"), ("inner", f"{prefix}.inner")])
    try:
        tracer.phase = "timed"
        Layers().outer(20000)
    finally:
        tracer.uninstall()
    assert not hasattr(Layers.outer, "__wrapped__")
    spans = {span[0]: span for span in tracer.spans}
    (outer,) = [s for s in spans.values() if s[1] == "outer"]
    inner = [s for s in spans.values() if s[1] == "inner"]
    assert outer[4] == -1 and all(s[4] == outer[0] for s in inner)
    children = sum(s[3] - s[2] for s in inner)
    assert abs(tracer.self_time("timed", "outer") - (outer[3] - outer[2] - children)) < 1e-9
    assert tracer.pair_count("timed", "outer", "inner") == 2
    assert tracer.top_seconds["timed"] == outer[3] - outer[2]


def test_every_traced_target_resolves():
    for _, target in TRACED:
        owner, attribute, original = resolve(target)
        assert callable(original) and getattr(owner, attribute) is original


def test_inputs_depend_only_on_the_seed():
    first = print_func(workloads.episode_program(seed=3, index=5))
    again = print_func(workloads.episode_program(seed=3, index=5))
    other = print_func(workloads.episode_program(seed=4, index=5))
    assert first == again and first != other
    draws = [workloads.stream(workloads.LQCD, seed, 0).integers(0, 2**31, size=3)
             for seed in (3, 3, 4)]
    assert list(draws[0]) == list(draws[1]) != list(draws[2])


def test_benchmark_json_names_exactly_the_computed_metrics():
    measurement = workloads.Measurement(
        op_seconds=[1.0, 2.0, 4.0], work=10,
        speedups=[1.0, 4.0], setup_seconds=[0.5, 0.7, 0.6],
        peak_rss_mb=50.0, timed_wall=7.5, attempted=3, slowdown=2.0,
    )
    e2e = run.end_to_end(measurement, import_seconds=0.25)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(e2e)
    assert e2e["setup_s"] == 0.85 and e2e["speedup_geomean"] == 2.0
    assert e2e["op_s"] == 2.0 and e2e["work_per_s"] == 10 / 7.0
    scaled = run.end_to_end(measurement, 0.25, scale=measurement.slowdown)
    assert scaled["setup_s"] == 0.425 and scaled["op_s"] == 1.0
    assert scaled["work_per_s"] == 20 / 7.0 and scaled["peak_rss_mb"] == 50.0
    layers = run.per_layer(Tracer(), measurement, setup_repeats=3)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(layers)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_predictions_cover_every_per_layer_metric():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    predicted = [m for layer in predictions["layers"] for m in layer["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in DECLARED["per_layer"])
    names = {w["name"] for w in DECLARED["workloads"]}
    for layer in predictions["layers"]:
        assert set(layer["on"]) | set(layer["little_on"]) <= names


def test_speed_probe_reports_slowdown_against_the_nominal():
    probe = SpeedProbe()
    probe.samples = [0.05, 0.01, 0.02, 0.03]
    assert probe.slowdown() == 0.025 / speed.NOMINAL_SECONDS
    assert abs(probe.seconds() - 0.11) < 1e-12
    assert speed.probe_once() > 0


def test_quartiles_and_gaps():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert steady.quartiles(values) == (1.5, 3.0, 4.5)
    assert steady.spread(values) == 1.0
    assert steady.worse_gap(2.0, 2.5, "lower") == 0.25
    assert steady.worse_gap(2.0, 2.5, "higher") == -0.25
    assert run.percentile([0.0, 10.0], 0.9) == 9.0
    assert run.tail_row([1.0] * 99) is None
    assert run.tail_row([1.0] * 100) == ("op_p90_s", 1.0, "s")


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout_generated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
