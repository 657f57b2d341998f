"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure: it prints the
paper-shaped rows (captured with ``-s``), writes a JSON artifact under
``<basetemp>/results/``, and asserts the qualitative shape the paper
reports.  The committed ``paper/results/`` never changes during a test
run; to refresh it, run with ``--basetemp`` and copy the JSONs over (see
README "Benchmarks").  ``pytest benchmarks/ --benchmark-only`` times the
full regeneration.
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    path = tmp_path_factory.getbasetemp() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path
