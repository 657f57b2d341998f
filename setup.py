"""Packaging for the MLIR RL reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/``; NumPy
is its one runtime dependency.  The tests and benchmarks need the
packages listed in ``requirements-ci.txt``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="mlir-rl-repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
