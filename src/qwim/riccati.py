"""Adaptive integration of the impedance Riccati equation.

    dZ/dx = i (2/hbar) (E - U(x)) - i (m/hbar) Z^2

Z has simple poles at the nodes of the underlying wavefunction.  The
stepper therefore watches |Z| and, above ``pole_threshold``, switches to
the reciprocal variable W = 1/Z which obeys the regular equation

    dW/dx = i (m/hbar) - i (2/hbar) (E - U(x)) W^2

and switches back (with hysteresis) once |W| has grown again.  Stepping
is a Dormand-Prince 5(4) embedded pair with standard PI-free error
control, unrolled for the one complex state (``_dopri_step``); the
potential's jump points split the range so no step ever straddles a
discontinuity.

Optionally the running integral S(x) = int Z dx' from the anchor rides
along as a second scalar under the same error control.  Its slope at
each stage is the stage's Z (W's reciprocal in W mode), so it costs no
extra RHS call.  It feeds the wavefunction phase exp[(i m / hbar) S] and
the constant-current diagnostic; trajectories expected to cross true
poles should leave it off, since S has a logarithmic singularity there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import region_constants
from .errors import (
    EvanescentIncidenceError,
    NonFiniteStateError,
    StepSizeUnderflowError,
)
from .model import ModelParams, Potential, Side, require_finite

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
class ImpedanceTrajectory:
    """Accepted-step record of one Riccati integration.

    ``xs`` ascend regardless of integration direction; ``direction``
    tells which end holds the anchor (LEFT means integrated toward
    smaller x, so the anchor is the last sample).  ``z_integral`` is
    S(x) = int Z dx' measured from the anchor, or None if not tracked.
    """

    xs: np.ndarray
    zs: np.ndarray
    direction: Side
    anchor_x: float
    anchor_z: complex
    energy: float
    potential: Potential
    params: ModelParams
    z_integral: np.ndarray | None = None

    def z_at_end(self, x: float) -> complex:
        """Impedance at one of the two endpoints of the trajectory."""
        if math.isclose(x, self.xs[0], rel_tol=0.0, abs_tol=1e-9 * (1 + abs(x))):
            return complex(self.zs[0])
        if math.isclose(x, self.xs[-1], rel_tol=0.0, abs_tol=1e-9 * (1 + abs(x))):
            return complex(self.zs[-1])
        raise ValueError(f"x={x} is not a trajectory endpoint")


def _dopri_step(g, x, y, s, h, k1, q1, track, in_w):
    """One Dormand-Prince 5(4) step (the classic ode45 pair) of y' = g(x, y).

    ``y`` is the scalar state (Z, or W = 1/Z in W mode) and k1 = g(x, y).
    With ``track`` set, s = int Z dx rides along: its slope at each stage
    is Z there (the stage y, or 1/y in W mode), starting from q1, so it
    costs no RHS call.  Returns (y5, s5, err_y, err_s, k7, q7): the 5th
    order values, their b5 - b4 error estimates and the slopes at x + h,
    which start the next step (first same as last).  Each sum runs left
    to right along its tableau row, zero weights included, so the result
    is bitwise that of the generic tableau loop.
    """
    y2 = y + h * (0.2 * k1)
    k2 = g(x + 0.2 * h, y2)
    y3 = y + h * (3.0 / 40.0 * k1 + 9.0 / 40.0 * k2)
    k3 = g(x + 0.3 * h, y3)
    y4 = y + h * (44.0 / 45.0 * k1 + -56.0 / 15.0 * k2 + 32.0 / 9.0 * k3)
    k4 = g(x + 0.8 * h, y4)
    y5 = y + h * (
        19372.0 / 6561.0 * k1 + -25360.0 / 2187.0 * k2
        + 64448.0 / 6561.0 * k3 + -212.0 / 729.0 * k4
    )
    k5 = g(x + 8.0 / 9.0 * h, y5)
    y6 = y + h * (
        9017.0 / 3168.0 * k1 + -355.0 / 33.0 * k2 + 46732.0 / 5247.0 * k3
        + 49.0 / 176.0 * k4 + -5103.0 / 18656.0 * k5
    )
    k6 = g(x + h, y6)
    y_new = y + h * (
        35.0 / 384.0 * k1 + 0.0 * k2 + 500.0 / 1113.0 * k3 + 125.0 / 192.0 * k4
        + -2187.0 / 6784.0 * k5 + 11.0 / 84.0 * k6
    )
    k7 = g(x + h, y_new)
    err_y = h * (
        71.0 / 57600.0 * k1 + 0.0 * k2 + -71.0 / 16695.0 * k3 + 71.0 / 1920.0 * k4
        + -17253.0 / 339200.0 * k5 + 22.0 / 525.0 * k6 + -1.0 / 40.0 * k7
    )
    if not track:
        return y_new, s, err_y, 0j, k7, None
    if in_w:
        q2, q3, q4, q5, q6 = 1.0 / y2, 1.0 / y3, 1.0 / y4, 1.0 / y5, 1.0 / y6
        q7 = 1.0 / y_new
    else:
        q2, q3, q4, q5, q6, q7 = y2, y3, y4, y5, y6, y_new
    s_new = s + h * (
        35.0 / 384.0 * q1 + 0.0 * q2 + 500.0 / 1113.0 * q3 + 125.0 / 192.0 * q4
        + -2187.0 / 6784.0 * q5 + 11.0 / 84.0 * q6
    )
    err_s = h * (
        71.0 / 57600.0 * q1 + 0.0 * q2 + -71.0 / 16695.0 * q3 + 71.0 / 1920.0 * q4
        + -17253.0 / 339200.0 * q5 + 22.0 / 525.0 * q6 + -1.0 / 40.0 * q7
    )
    return y_new, s_new, err_y, err_s, k7, q7


class _Recorder:
    """Collects accepted samples in integration order."""

    def __init__(self, track: bool):
        self.xs: list[float] = []
        self.zs: list[complex] = []
        self.ss: list[complex] | None = [] if track else None

    def add(self, x: float, z: complex, s: complex):
        self.xs.append(x)
        self.zs.append(z)
        if self.ss is not None:
            self.ss.append(s)


def _integrate_piece(
    ufunc: Callable[[float], float],
    e: float,
    x0: float,
    x1: float,
    z0: complex,
    s0: complex,
    cfg: IntegrationConfig,
    params: ModelParams,
    max_step: float,
    track: bool,
    rec: _Recorder,
) -> tuple[complex, complex]:
    """Integrate one smooth piece from x0 to x1; returns (Z, S) at x1."""
    hbar, m = params.hbar, params.mass
    c_pot = 2.0 / hbar
    c_imp = m / hbar

    def g_z(x, z):
        return 1j * (c_pot * (e - ufunc(x)) - c_imp * z * z)

    def g_w(x, w):
        return 1j * (c_imp - c_pot * (e - ufunc(x)) * w * w)

    def restart(x, z, in_w):
        """State, RHS and start slopes (k1, q1) for a fresh step from (x, Z)."""
        y = 1.0 / z if in_w else z
        g = g_w if in_w else g_z
        return y, g, g(x, y), ((1.0 / y if in_w else y) if track else None)

    sgn = 1.0 if x1 > x0 else -1.0
    span = abs(x1 - x0)
    x, z, s = x0, z0, s0
    in_w = abs(z) >= cfg.pole_threshold
    h = sgn * min(max_step, span)
    h_floor = 1e-14 * max(1.0, abs(x0), abs(x1))
    switch_back = 2.0 / cfg.pole_threshold  # hysteresis: |Z| <= threshold/2
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol

    y, g, k1, q1 = restart(x, z, in_w)

    while sgn * (x1 - x) > h_floor:
        h = sgn * min(abs(h), max_step, sgn * (x1 - x))
        y_new, s_new, err_y, err_s, k7, q7 = _dopri_step(
            g, x, y, s, h, k1, q1, track, in_w
        )
        if not (cmath.isfinite(y_new) and cmath.isfinite(s_new)):
            raise NonFiniteStateError(f"non-finite state near x={x}")
        norm = max(0.0, abs(err_y) / (abs_tol + rel_tol * max(abs(y), abs(y_new))))
        if track:
            norm = max(norm, abs(err_s) / (abs_tol + rel_tol * max(abs(s), abs(s_new))))
        if norm > 1.0:
            h *= max(0.2, 0.9 * norm ** -0.2)
            if abs(h) < h_floor:
                raise StepSizeUnderflowError(f"step underflow near x={x}")
            continue
        x_old = x
        x += h
        if sgn * (x1 - x) <= h_floor:
            x = x1  # land exactly on the stop so forced grid points match
        if in_w and y_new == 0:
            # landed exactly on a node; nudge the previous step so 1/W exists
            x = x_old
            h *= 0.97
            y, g, k1, q1 = restart(x, z, in_w)
            continue
        y, s, k1, q1 = y_new, s_new, k7, q7
        z = (1.0 / y) if in_w else y
        rec.add(x, z, s)
        if norm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * norm ** -0.2))
        else:
            h *= 5.0
        if not in_w and abs(z) >= cfg.pole_threshold:
            in_w = True
            y, g, k1, q1 = restart(x, z, in_w)
        elif in_w and abs(y) >= switch_back:
            in_w = False
            y, g, k1, q1 = restart(x, z, in_w)
    return z, s


def integrate_impedance(
    pot: Potential,
    e: float,
    anchor_x: float,
    anchor_z: complex,
    target_x: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    track_integral: bool = False,
    grid: np.ndarray | None = None,
) -> ImpedanceTrajectory:
    """Integrate Z from (anchor_x, anchor_z) to target_x.

    The range is split at every potential jump or kink so each smooth
    piece is integrated separately.  An optional ``grid`` of positions
    forces accepted steps to land on those points (used to produce
    near-uniform samples for wavefunction reconstruction).
    """
    require_finite("energy", e)
    if anchor_x == target_x:
        raise ValueError("anchor and target coincide; nothing to integrate")
    span = abs(target_x - anchor_x)
    max_step = cfg.max_step if cfg.max_step is not None else span / 50.0

    lo, hi = min(anchor_x, target_x), max(anchor_x, target_x)
    stops = set(pot.breakpoints_between(lo, hi))
    if grid is not None:
        stops.update(float(g) for g in np.asarray(grid) if lo < g < hi)
    leftward = target_x < anchor_x
    ordered = sorted(stops, reverse=leftward)

    track = bool(track_integral)
    rec = _Recorder(track)
    rec.add(anchor_x, anchor_z, 0j)

    z, s = anchor_z, 0j
    x_prev = anchor_x
    for x_next in ordered + [target_x]:
        z, s = _integrate_piece(
            pot.u_piece(0.5 * (x_prev + x_next)),
            e, x_prev, x_next, z, s, cfg, params, max_step, track, rec,
        )
        x_prev = x_next

    xs = np.array(rec.xs)
    zs = np.array(rec.zs, dtype=complex)
    ss = np.array(rec.ss, dtype=complex) if track else None
    if leftward:
        xs, zs = xs[::-1].copy(), zs[::-1].copy()
        if ss is not None:
            ss = ss[::-1].copy()
    return ImpedanceTrajectory(
        xs=xs,
        zs=zs,
        direction=Side.LEFT if leftward else Side.RIGHT,
        anchor_x=anchor_x,
        anchor_z=anchor_z,
        energy=e,
        potential=pot,
        params=params,
        z_integral=ss,
    )


def _bound_mode(pot: Potential, e: float) -> bool:
    return e < min(pot.left_level, pot.right_level)


def left_anchor(pot: Potential, e: float, params: ModelParams) -> complex:
    """Boundary impedance at a: decaying tail -z1 below the lead,
    incident-matched +z1 in the scattering regime."""
    rc = region_constants(e, pot.left_level, params)
    if e < pot.left_level:
        return -rc.z
    return rc.z


def right_anchor(pot: Potential, e: float, params: ModelParams) -> complex:
    """Boundary impedance at b: decaying tail +z2 below the lead, pure
    transmitted wave +z2 above it (same value, different character)."""
    rc = region_constants(e, pot.right_level, params)
    return rc.z


def z_plus(
    pot: Potential,
    e: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    target_x: float | None = None,
    track_integral: bool = False,
    grid: np.ndarray | None = None,
) -> ImpedanceTrajectory:
    """Left-anchored trajectory Z+ integrated rightward from a.

    Bound regime (e below both leads): anchor Z(a) = -z1, the decaying
    left tail.  Scattering regime: anchor Z(a) = +z1, the incident-
    matched condition for a wave coming from the left (requires a
    propagating left lead).
    """
    if not _bound_mode(pot, e) and e < pot.left_level:
        raise EvanescentIncidenceError(f"energy {e} below left lead")
    z0 = left_anchor(pot, e, params)
    target = pot.b if target_x is None else target_x
    return integrate_impedance(
        pot, e, pot.a, z0, target, cfg, params, track_integral, grid
    )


def z_minus(
    pot: Potential,
    e: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    target_x: float | None = None,
    track_integral: bool = False,
    grid: np.ndarray | None = None,
) -> ImpedanceTrajectory:
    """Right-anchored trajectory Z- integrated leftward from b.

    Anchor Z(b) = +z2 in both regimes: the decaying right tail below the
    lead, the pure transmitted wave above it.
    """
    z0 = right_anchor(pot, e, params)
    target = pot.a if target_x is None else target_x
    return integrate_impedance(
        pot, e, pot.b, z0, target, cfg, params, track_integral, grid
    )
