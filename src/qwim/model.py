"""Unit system and one-dimensional potential models.

All solvers work on the time-independent Schrodinger equation

    -(hbar^2 / 2m) psi'' + U(x) psi = E psi

with a potential that is constant outside a finite interval [a, b]:
``left_level`` for x <= a and ``right_level`` for x >= b.  Inside the
interval the potential is either piecewise constant (a stack of
contiguous segments) or piecewise linear through a table of samples.

Potentials are immutable value objects; validation happens eagerly at
construction so an invalid instance can never circulate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    EmptyDomainError,
    GapBetweenSegmentsError,
    NonFiniteInputError,
    OverlappingSegmentsError,
)

# Geometry comparisons: segment joins must agree to this absolute slack.
JOIN_TOL = 1e-12


def require_finite(what: str, *values: float) -> None:
    """Raise NonFiniteInputError if any value is NaN or infinite."""
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteInputError(f"{what} must be finite, got {v}")


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

    @property
    def a(self) -> float:
        """Left edge of the structured region (the step point if empty)."""
        return self.segments[0].x_start if self.segments else float(self.step_x)

    @property
    def b(self) -> float:
        """Right edge of the structured region (the step point if empty)."""
        return self.segments[-1].x_end if self.segments else float(self.step_x)

    def u_at(self, x: float) -> float:
        if x <= self.a:
            return self.left_level
        if x >= self.b:
            return self.right_level
        # interior: boundary points take the right segment's value
        for seg in self.segments:
            if x < seg.x_end:
                return seg.u
        return self.right_level

    def u_piece(self, x: float) -> float:
        """U on the smooth piece around x (not an interface): its level."""
        return self.u_at(x)

    def interfaces(self) -> list[float]:
        """All potential jump locations, ordered, including a and b."""
        if not self.segments:
            return [self.a]
        pts = [self.segments[0].x_start]
        pts.extend(seg.x_end for seg in self.segments)
        return pts

    def breakpoints_between(self, lo: float, hi: float) -> list[float]:
        """Interfaces strictly inside (lo, hi); used to split ODE integration."""
        return [x for x in self.interfaces() if lo < x < hi]

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

    def u_at(self, x: float) -> float:
        if x <= self.a:
            return self.left_level
        if x >= self.b:
            return self.right_level
        i = bisect.bisect_right(self.xs, x) - 1
        x0, x1 = self.xs[i], self.xs[i + 1]
        w = (x - x0) / (x1 - x0)
        return (1.0 - w) * self.us[i] + w * self.us[i + 1]

    def u_piece(self, x: float) -> float | tuple[float, float, float, float]:
        """U on the smooth piece around x (not a sample): the lead level
        outside [a, b], else the line (x0, dx, u0, u1) through the samples
        on either side, which at x' is (1 - w) u0 + w u1 with
        w = (x' - x0) / dx, as ``u_at`` has it.  The line holds up to and
        at the two samples, where ``u_at`` switches to the next line or to
        the lead level."""
        if not self.a < x < self.b:
            return self.u_at(x)
        i = bisect.bisect_right(self.xs, x) - 1
        x0 = self.xs[i]
        return x0, self.xs[i + 1] - x0, self.us[i], self.us[i + 1]

    def interfaces(self) -> list[float]:
        return list(self.xs)

    def breakpoints_between(self, lo: float, hi: float) -> list[float]:
        return [x for x in self.xs if lo < x < hi]

    def mirrored(self) -> "SampledPotential":
        xs = tuple(-x for x in reversed(self.xs))
        us = tuple(reversed(self.us))
        return SampledPotential(xs, us, self.right_level, self.left_level)


Potential = PiecewisePotential | SampledPotential

