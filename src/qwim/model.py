"""Unit system and one-dimensional potential models.

All solvers work on the time-independent Schrodinger equation

    -(hbar^2 / 2m) psi'' + U(x) psi = E psi

with a potential that is constant outside a finite interval [a, b]:
``left_level`` for x <= a and ``right_level`` for x >= b.  Inside the
interval the potential is either piecewise constant (a stack of
contiguous segments) or piecewise linear through a table of samples.

Potentials are immutable value objects; validation happens eagerly at
construction so an invalid instance can never circulate.  The solver
settings, ``IntegrationConfig``, live here too, so that a spec file and
a chained solve can carry them without loading the Riccati stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    EmptyDomainError,
    GapBetweenSegmentsError,
    NonFiniteInputError,
    OverlappingSegmentsError,
)

if TYPE_CHECKING:
    import numpy as np

# Geometry comparisons: segment joins must agree to this absolute slack.
JOIN_TOL = 1e-12


def require_finite(what: str, *values: float) -> None:
    """Raise NonFiniteInputError if any value is NaN or infinite."""
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInputError(f"{what} must be finite, got {v}")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.linspace(start, stop, num).tolist()`` bit for bit, for
    num >= 2, without numpy: i * step + start with step = (stop - start)
    / (num - 1), numpy's branch for a step that underflows to zero
    (i / (num - 1) * (stop - start) + start), and the last point set to
    stop.  The list is allocated at once, so a count whose list cannot be
    had raises MemoryError before any point is computed, as numpy does."""
    start, stop = float(start), float(stop)
    ys = [start] * num
    div, delta = num - 1, stop - start
    step = delta / div
    if step == 0.0:
        for i in range(num):
            ys[i] = i / div * delta + start
    else:
        for i in range(num):
            ys[i] = i * step + start
    ys[-1] = stop
    return ys


class Side(Enum):
    """Incidence side for scattering, also used as an integration direction."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants fixing the unit system.

    Defaults are the dimensionless units hbar = m = 1 used throughout the
    test-suite.  Both constants must be strictly positive.
    """

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0) or not (self.mass > 0.0):
            raise ValueError("hbar and mass must be strictly positive")


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerances and safeguards for the Riccati stepper.

    ``max_step`` of None means (span / 50) is chosen per call.  When
    ``force_numeric`` is set, higher-level solvers integrate the ODE for
    any potential instead of chaining the exact slab maps.
    Every number must be finite; ``rel_tol`` may be zero, ``abs_tol``,
    ``pole_threshold`` and ``max_step`` must be positive.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float | None = None
    pole_threshold: float = 1e3
    force_numeric: bool = False

    def __post_init__(self):
        positive = {"abs_tol": self.abs_tol, "pole_threshold": self.pole_threshold}
        if self.max_step is not None:
            positive["max_step"] = self.max_step
        require_finite(
            "tolerances, pole threshold and max step", self.rel_tol, *positive.values()
        )
        if self.rel_tol < 0.0:
            raise ValueError(f"rel_tol must be at least 0, got {self.rel_tol}")
        for name, value in positive.items():
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class PotentialSegment:
    """Constant-potential slab on [x_start, x_end), value ``u``."""

    x_start: float
    x_end: float
    u: float

    def __post_init__(self):
        require_finite("segment bounds and level", self.x_start, self.x_end, self.u)
        if not self.x_start < self.x_end:
            raise OverlappingSegmentsError(
                f"segment needs x_start < x_end, got [{self.x_start}, {self.x_end}]"
            )

    @property
    def length(self) -> float:
        return self.x_end - self.x_start


@dataclass(frozen=True)
class PiecewisePotential:
    """Contiguous stack of constant segments between two semi-infinite leads.

    An empty segment tuple degenerates to a sharp potential step located
    at ``step_x``.
    """

    left_level: float
    segments: tuple[PotentialSegment, ...]
    right_level: float
    step_x: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        require_finite("lead levels", self.left_level, self.right_level)
        if self.step_x is not None:
            require_finite("step_x", self.step_x)
        if not self.segments and self.step_x is None:
            raise EmptyDomainError(
                "segments: empty list requires an explicit step_x location"
            )
        for i, (prev, seg) in enumerate(zip(self.segments, self.segments[1:]), 1):
            if seg.x_start - prev.x_end > JOIN_TOL:
                raise GapBetweenSegmentsError(
                    f"segments[{i}]: gap before this segment (previous ends "
                    f"at {prev.x_end}, this starts at {seg.x_start})"
                )
            if prev.x_end - seg.x_start > JOIN_TOL:
                raise OverlappingSegmentsError(
                    f"segments[{i}]: overlaps the previous segment (previous "
                    f"ends at {prev.x_end}, this starts at {seg.x_start})"
                )

    @cached_property
    def a(self) -> float:
        """Left edge of the structured region (the step point if empty)."""
        return self.segments[0].x_start if self.segments else float(self.step_x)

    @cached_property
    def b(self) -> float:
        """Right edge of the structured region (the step point if empty)."""
        return self.segments[-1].x_end if self.segments else float(self.step_x)

    def u_at(self, x: float | np.ndarray) -> float | np.ndarray:
        """U at x, a float or an array of them (a float for a float): the
        left lead at x <= a, else the first segment ending past x, the
        right lead past the last, so a join takes the right segment's
        value."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        ends = [seg.x_end for seg in self.segments]
        levels = np.array([seg.u for seg in self.segments] + [self.right_level], dtype=float)
        u = np.where(x <= self.a, self.left_level, levels[np.searchsorted(ends, x, side="right")])
        return u if u.ndim else float(u)

    @cached_property
    def cells(self) -> tuple[tuple[float, float, float, float], ...]:
        """(x_start, x_end, u, u) of each segment: the cells a walk cuts."""
        return tuple((s.x_start, s.x_end, s.u, s.u) for s in self.segments)

    def interfaces(self) -> list[float]:
        """All potential jump locations, ordered, including a and b."""
        if not self.segments:
            return [self.a]
        pts = [self.segments[0].x_start]
        pts.extend(seg.x_end for seg in self.segments)
        return pts

    def mirrored(self) -> "PiecewisePotential":
        """The potential reflected through x -> -x (leads swap)."""
        segs = tuple(
            PotentialSegment(-s.x_end, -s.x_start, s.u) for s in reversed(self.segments)
        )
        step = None if self.step_x is None else -self.step_x
        return PiecewisePotential(self.right_level, segs, self.left_level, step)


@dataclass(frozen=True)
class SampledPotential:
    """Piecewise-linear potential through (x, u) samples, constant outside.

    Sample abscissae must be strictly increasing; the leads take over for
    x <= xs[0] and x >= xs[-1] regardless of the edge sample values.
    """

    xs: tuple[float, ...]
    us: tuple[float, ...]
    left_level: float
    right_level: float

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "us", tuple(float(v) for v in self.us))
        if len(self.xs) != len(self.us):
            raise EmptyDomainError("xs and us must have equal length")
        if len(self.xs) < 2:
            raise EmptyDomainError("sampled potential needs at least two samples")
        require_finite("lead levels", self.left_level, self.right_level)
        require_finite("samples", *self.xs, *self.us)
        for x0, x1 in zip(self.xs, self.xs[1:]):
            if not x0 < x1:
                raise OverlappingSegmentsError(
                    "sample abscissae must be strictly increasing"
                )

    @property
    def a(self) -> float:
        return self.xs[0]

    @property
    def b(self) -> float:
        return self.xs[-1]

    def u_at(self, x: float | np.ndarray) -> float | np.ndarray:
        """U at x, a float or an array of them (a float for a float): the
        leads at x <= a and x >= b, between them (1 - w) u_i + w u_(i+1)
        on the sample interval [x_i, x_(i+1)) holding x."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        xs, us = np.array(self.xs), np.array(self.us)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        x0 = xs[i]
        # x clipped to [a, b] keeps an infinite x's unused line finite
        w = (np.clip(x, self.a, self.b) - x0) / (xs[i + 1] - x0)
        u = (1.0 - w) * us[i] + w * us[i + 1]
        u = np.where(x <= self.a, self.left_level, np.where(x >= self.b, self.right_level, u))
        return u if u.ndim else float(u)

    @cached_property
    def cells(self) -> tuple[tuple[float, float, float, float], ...]:
        """(x0, x1, u0, u1) of each sample interval: the cells a walk cuts."""
        return tuple(zip(self.xs, self.xs[1:], self.us, self.us[1:]))

    def interfaces(self) -> list[float]:
        return list(self.xs)

    def mirrored(self) -> "SampledPotential":
        xs = tuple(-x for x in reversed(self.xs))
        us = tuple(reversed(self.us))
        return SampledPotential(xs, us, self.right_level, self.left_level)


Potential = PiecewisePotential | SampledPotential

