"""Minimal Gym-style observation/action spaces.

The paper builds on the Gym interface; this module provides the small
subset the environment needs (``Discrete``, ``MultiDiscrete``, ``Box``
and ``Dict``) with ``sample``/``contains`` so the environment is
self-contained without an external gym dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Space:
    """Base class for observation/action spaces."""

    def sample(self, rng: np.random.Generator) -> object:
        raise NotImplementedError

    def contains(self, value: object) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Discrete(Space):
    """Integers ``{0, ..., n - 1}``."""

    n: int

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.n))

    def contains(self, value: object) -> bool:
        return isinstance(value, (int, np.integer)) and 0 <= int(value) < self.n


@dataclass(frozen=True)
class MultiDiscrete(Space):
    """A Cartesian product of Discrete spaces — the paper's action space
    is a MultiDiscrete over (transformation, per-loop tile sizes,
    interchange choice)."""

    nvec: tuple[int, ...]

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(int(rng.integers(n)) for n in self.nvec)

    def contains(self, value: object) -> bool:
        if not isinstance(value, (tuple, list, np.ndarray)):
            return False
        values = list(value)
        if len(values) != len(self.nvec):
            return False
        return all(
            0 <= int(v) < n for v, n in zip(values, self.nvec)
        )


@dataclass(frozen=True)
class Box(Space):
    """A dense float vector with elementwise bounds."""

    low: float
    high: float
    shape: tuple[int, ...]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=self.shape).astype(
            np.float32
        )

    def contains(self, value: object) -> bool:
        if not isinstance(value, np.ndarray) or value.shape != self.shape:
            return False
        return bool(
            np.all(value >= self.low - 1e-6) and np.all(value <= self.high + 1e-6)
        )
