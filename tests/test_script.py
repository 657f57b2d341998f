"""Tests for transform-script serialization and the CLI."""

import re

import numpy as np
import pytest

from repro.ir import FuncOp, add, empty, matmul, relu, tensor
from repro.transforms import (
    Interchange,
    NoTransformation,
    ScheduledFunction,
    TiledFusion,
    TiledParallelization,
    Tiling,
    Vectorization,
)
from repro.transforms.script import (
    ScriptError,
    apply_script,
    parse_script,
    render_script,
)


def _chain():
    x, y = tensor([64, 64]), tensor([64, 64])
    func = FuncOp("chain", [x, y])
    first = func.append(add(x, y, empty([64, 64])))
    second = func.append(relu(first.result(), empty([64, 64])))
    func.returns = [second.result()]
    return func, first, second


def _matmul_func():
    a, b, c = tensor([64, 32]), tensor([32, 16]), tensor([64, 16])
    func = FuncOp("mm", [a, b, c])
    op = func.append(matmul(a, b, c))
    func.returns = [op.result()]
    return func, op


class TestRenderParse:
    def test_roundtrip_all_records(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, TiledParallelization((8, 8, 0)))
        scheduled.apply(op, Interchange((0, 2, 1)))
        scheduled.apply(op, Tiling((0, 0, 4)))
        scheduled.apply(op, Vectorization())
        text = render_script(scheduled)
        parsed = parse_script(text)
        assert parsed[0] == [
            TiledParallelization((8, 8, 0)),
            Interchange((0, 2, 1)),
            Tiling((0, 0, 4)),
            Vectorization(),
        ]

    def test_empty_schedule_renders_empty(self):
        func, _ = _matmul_func()
        assert render_script(ScheduledFunction(func)) == ""

    def test_stop_roundtrip(self):
        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, NoTransformation())
        parsed = parse_script(render_script(scheduled))
        assert parsed[0] == [NoTransformation()]

    def test_fusion_roundtrip(self):
        func, first, second = _chain()
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((8, 8)))
        text = render_script(scheduled)
        assert "fuse sizes = [8, 8]" in text
        parsed = parse_script(text)
        assert parsed[1] == [TiledFusion((8, 8))]

    def test_parse_rejects_orphan_directive(self):
        with pytest.raises(ScriptError):
            parse_script("vectorize\n")

    def test_parse_rejects_unknown_directive(self):
        with pytest.raises(ScriptError):
            parse_script("op @0 {\n  frobnicate\n}\n")


class TestApplyScript:
    def test_replay_reproduces_timing(self):
        from repro.machine import Executor

        func, op = _matmul_func()
        scheduled = ScheduledFunction(func)
        scheduled.apply(op, TiledParallelization((8, 8, 0)))
        scheduled.apply(op, Vectorization())
        text = render_script(scheduled)
        replayed = apply_script(func, text)
        executor = Executor()
        assert executor.run_scheduled(replayed).seconds == pytest.approx(
            executor.run_scheduled(scheduled).seconds
        )

    def test_replay_fusion_links(self):
        func, first, second = _chain()
        scheduled = ScheduledFunction(func)
        scheduled.apply(second, TiledFusion((8, 8)))
        replayed = apply_script(func, render_script(scheduled))
        assert replayed.schedule_of(first).fused_into is not None

    def test_out_of_range_op_rejected(self):
        func, _ = _matmul_func()
        with pytest.raises(ScriptError):
            apply_script(func, "op @7 {\n  vectorize\n}\n")


class TestCli:
    def test_evaluate_single_operator(self, capsys):
        from repro.cli import main

        code = main(["evaluate", "--operator", "add"])
        assert code == 0
        out = capsys.readouterr().out
        assert "add" in out and "mlir-rl" in out

    def test_evaluate_unknown_operator(self, capsys):
        from repro.cli import main

        assert main(["evaluate", "--operator", "fft"]) == 1

    def test_optimize_writes_script(self, tmp_path, capsys):
        from repro.cli import main

        script_path = tmp_path / "schedule.txt"
        code = main(["optimize", "vgg", "--script", str(script_path)])
        assert code == 0
        assert script_path.exists()
        assert "op @" in script_path.read_text()
        capsys.readouterr()
        # The search's schedule replays cleanly through the verifier.
        assert main(["analyze", "vgg", "--script", str(script_path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_optimize_unknown_target(self):
        from repro.cli import main

        assert main(["optimize", "nonexistent"]) == 1

    def test_analyze_generated_program(self, capsys):
        from repro.cli import main

        assert main(["analyze", "generated", "--seed", "3"]) == 0
        assert "carried:" in capsys.readouterr().out

    def test_analyze_unknown_target(self):
        from repro.cli import main

        assert main(["analyze", "nonexistent"]) == 1

    def test_train_saves_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = tmp_path / "agent.npz"
        code = main(
            [
                "train",
                "--iterations",
                "1",
                "--samples",
                "2",
                "--hidden",
                "16",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert code == 0
        assert checkpoint.exists()
        # Each iteration line reports its wall time and the update's share.
        assert re.search(r"iter +0: .* s, update \d+%\)", capsys.readouterr().out)
