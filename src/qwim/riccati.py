"""Adaptive integration of the impedance Riccati equation.

    dZ/dx = i (2/hbar) (E - U(x)) - i (m/hbar) Z^2

Z has simple poles at the nodes of the underlying wavefunction.  The
stepper therefore watches |Z| and, above ``pole_threshold``, switches to
the reciprocal variable W = 1/Z which obeys the regular equation

    dW/dx = i (m/hbar) - i (2/hbar) (E - U(x)) W^2

and switches back (with hysteresis) once |W| has grown again.  Both read
y' = i (a - b y^2), with a and b swapping between the modes.  Stepping
is the Dormand-Prince 5(4) embedded pair (J. Comput. Appl. Math. 6, 19
(1980)) with standard PI-free error control, its seven stages written
out for the one complex state inside ``integrate_impedance``'s single
loop over pieces.  The potential's jump points (and any forced grid
points) split the range into pieces, so no step ever straddles a
discontinuity; on each piece U is a constant level or a sampled line,
looked up once per interval between breakpoints and evaluated inline at
the stages.

Optionally the running integral S(x) = int Z dx' from the anchor rides
along as a second scalar under the same error control.  Its slope at
each stage is the stage's Z (W's reciprocal in W mode), so it costs no
extra RHS call.  It feeds the wavefunction phase exp[(i m / hbar) S];
trajectories expected to cross true poles should leave it off, since S
has a logarithmic singularity there.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .analytic import region_constants
from .errors import (
    EvanescentIncidenceError,
    NonFiniteStateError,
    StepSizeUnderflowError,
)
from .model import IntegrationConfig, ModelParams, Potential, Side, require_finite


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

    The range is cut into pieces at every potential jump or kink and at
    every point of the optional ``grid`` strictly between anchor and
    target, so accepted steps land on those points (used to produce
    near-uniform samples for wavefunction reconstruction).  Each piece
    starts afresh: a first step of min(max_step, piece length), a first
    stage at its start, and Z or W mode by |Z| there.  The potential is
    looked up once per interval between breakpoints: a level fixes the
    stages' coefficients, a sampled line is evaluated at each stage.
    ``grid`` must be real and one-dimensional (TypeError otherwise),
    with finite points (NonFiniteInputError); points outside the range
    are ignored.
    """
    require_finite("energy", e)
    if anchor_x == target_x:
        raise ValueError("anchor and target coincide; nothing to integrate")
    span = abs(target_x - anchor_x)
    max_step = cfg.max_step if cfg.max_step is not None else span / 50.0

    lo, hi = min(anchor_x, target_x), max(anchor_x, target_x)
    leftward = target_x < anchor_x
    edges = sorted(set(pot.breakpoints_between(lo, hi)), reverse=leftward)
    stops = set(edges)
    if grid is not None:
        if np.iscomplexobj(grid):
            raise TypeError("grid must be real, got a complex grid")
        points = np.asarray(grid, dtype=float)
        if points.ndim != 1:
            raise TypeError(f"grid must be one-dimensional, got shape {points.shape}")
        if not np.isfinite(points).all():
            require_finite("grid points", *points.tolist())
        stops.update(g for g in points.tolist() if lo < g < hi)
    stops = sorted(stops, reverse=leftward)
    stops.append(target_x)
    edges.append(target_x)

    c_pot = 2.0 / params.hbar
    c_imp = params.mass / params.hbar
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    threshold = cfg.pole_threshold
    switch_back = 2.0 / threshold  # hysteresis: |Z| <= threshold/2
    sgn = -1.0 if leftward else 1.0
    track = bool(track_integral)
    isfinite = cmath.isfinite

    xs, zs = [anchor_x], [anchor_z]
    ss = [0j] if track else None
    z, s = anchor_z, 0j
    r1 = r7 = None
    ends = iter(edges)
    x0 = edge = anchor_x
    for x1 in stops:
        if x0 == edge:
            # U is one level or one line up to the next breakpoint, so
            # one lookup inside that interval serves all its pieces
            edge = next(ends)
            piece = pot.u_piece(0.5 * (x0 + edge))
            line = isinstance(piece, tuple)
            if line:
                xa, dx, ua, ub = piece
            else:
                level = c_pot * (e - piece)
        x = x0
        h = sgn * min(max_step, abs(x1 - x0))
        h_floor = 1e-14 * max(1.0, abs(x0), abs(x1))
        in_w = abs(z) >= threshold
        fresh = True
        # y' = i (a - b y^2) at each stage: y = Z with a = c_pot (E - U),
        # b = c_imp, or y = W with the two swapped
        while sgn * (x1 - x) > h_floor:
            if fresh:
                # restart from (x, Z): the state, its slope and, with the
                # integral tracked, Z as S's slope
                fresh = False
                y = 1.0 / z if in_w else z
                if line:
                    w = (x - xa) / dx
                    p1 = c_pot * (e - ((1.0 - w) * ua + w * ub))
                else:
                    p1 = level
                if in_w:
                    a1 = a2 = a3 = a4 = a5 = a6 = c_imp
                    b1 = b2 = b3 = b4 = b5 = b6 = p1
                else:
                    a1 = a2 = a3 = a4 = a5 = a6 = p1
                    b1 = b2 = b3 = b4 = b5 = b6 = c_imp
                k1 = 1j * (a1 - b1 * y * y)
                if track:
                    r1 = 1.0 / y if in_w else y
            h = sgn * min(abs(h), max_step, sgn * (x1 - x))
            if line:
                # the line at the five distinct stage abscissae
                w = (x + 0.2 * h - xa) / dx
                p2 = c_pot * (e - ((1.0 - w) * ua + w * ub))
                w = (x + 0.3 * h - xa) / dx
                p3 = c_pot * (e - ((1.0 - w) * ua + w * ub))
                w = (x + 0.8 * h - xa) / dx
                p4 = c_pot * (e - ((1.0 - w) * ua + w * ub))
                w = (x + 8.0 / 9.0 * h - xa) / dx
                p5 = c_pot * (e - ((1.0 - w) * ua + w * ub))
                w = (x + h - xa) / dx
                p6 = c_pot * (e - ((1.0 - w) * ua + w * ub))
                if in_w:
                    b2, b3, b4, b5, b6 = p2, p3, p4, p5, p6
                else:
                    a2, a3, a4, a5, a6 = p2, p3, p4, p5, p6
            # Dormand-Prince 5(4), the classic ode45 pair; each sum runs
            # left to right along its tableau row, zero weights included,
            # so the result is bitwise that of the generic tableau loop.
            # k7, at x + h, starts the next step (first same as last).
            y2 = y + h * (0.2 * k1)
            k2 = 1j * (a2 - b2 * y2 * y2)
            y3 = y + h * (3.0 / 40.0 * k1 + 9.0 / 40.0 * k2)
            k3 = 1j * (a3 - b3 * y3 * y3)
            y4 = y + h * (44.0 / 45.0 * k1 + -56.0 / 15.0 * k2 + 32.0 / 9.0 * k3)
            k4 = 1j * (a4 - b4 * y4 * y4)
            y5 = y + h * (
                19372.0 / 6561.0 * k1 + -25360.0 / 2187.0 * k2
                + 64448.0 / 6561.0 * k3 + -212.0 / 729.0 * k4
            )
            k5 = 1j * (a5 - b5 * y5 * y5)
            y6 = y + h * (
                9017.0 / 3168.0 * k1 + -355.0 / 33.0 * k2 + 46732.0 / 5247.0 * k3
                + 49.0 / 176.0 * k4 + -5103.0 / 18656.0 * k5
            )
            k6 = 1j * (a6 - b6 * y6 * y6)
            y_new = y + h * (
                35.0 / 384.0 * k1 + 0.0 * k2 + 500.0 / 1113.0 * k3 + 125.0 / 192.0 * k4
                + -2187.0 / 6784.0 * k5 + 11.0 / 84.0 * k6
            )
            k7 = 1j * (a6 - b6 * y_new * y_new)
            err_y = h * (
                71.0 / 57600.0 * k1 + 0.0 * k2 + -71.0 / 16695.0 * k3 + 71.0 / 1920.0 * k4
                + -17253.0 / 339200.0 * k5 + 22.0 / 525.0 * k6 + -1.0 / 40.0 * k7
            )
            s_new = s
            if track:
                # S's slope at each stage is that stage's Z: no RHS call
                if in_w:
                    r2, r3, r4, r5, r6 = 1.0 / y2, 1.0 / y3, 1.0 / y4, 1.0 / y5, 1.0 / y6
                    r7 = 1.0 / y_new
                else:
                    r2, r3, r4, r5, r6, r7 = y2, y3, y4, y5, y6, y_new
                s_new = s + h * (
                    35.0 / 384.0 * r1 + 0.0 * r2 + 500.0 / 1113.0 * r3 + 125.0 / 192.0 * r4
                    + -2187.0 / 6784.0 * r5 + 11.0 / 84.0 * r6
                )
                err_s = h * (
                    71.0 / 57600.0 * r1 + 0.0 * r2 + -71.0 / 16695.0 * r3 + 71.0 / 1920.0 * r4
                    + -17253.0 / 339200.0 * r5 + 22.0 / 525.0 * r6 + -1.0 / 40.0 * r7
                )
            if not (isfinite(y_new) and isfinite(s_new)):
                raise NonFiniteStateError(f"non-finite state near x={x}")
            norm = max(0.0, abs(err_y) / (abs_tol + rel_tol * max(abs(y), abs(y_new))))
            if track:
                norm = max(norm, abs(err_s) / (abs_tol + rel_tol * max(abs(s), abs(s_new))))
            if norm > 1.0:
                h *= max(0.2, 0.9 * norm ** -0.2)
                if abs(h) < h_floor:
                    raise StepSizeUnderflowError(f"step underflow near x={x}")
                continue
            if in_w and y_new == 0:
                # landed exactly on a node; nudge the step so 1/W exists
                h *= 0.97
                fresh = True
                continue
            x += h
            if sgn * (x1 - x) <= h_floor:
                x = x1  # land exactly on the stop so forced grid points match
            y, s, k1, r1 = y_new, s_new, k7, r7
            z = (1.0 / y) if in_w else y
            xs.append(x)
            zs.append(z)
            if track:
                ss.append(s)
            if norm > 0.0:
                h *= min(5.0, max(0.2, 0.9 * norm ** -0.2))
            else:
                h *= 5.0
            if not in_w and abs(z) >= threshold:
                in_w = True
                fresh = True
            elif in_w and abs(y) >= switch_back:
                in_w = False
                fresh = True
        x0 = x1

    if leftward:
        xs.reverse()
        zs.reverse()
        if track:
            ss.reverse()
    return ImpedanceTrajectory(
        xs=np.array(xs),
        zs=np.array(zs, dtype=complex),
        direction=Side.LEFT if leftward else Side.RIGHT,
        anchor_x=anchor_x,
        anchor_z=anchor_z,
        energy=e,
        potential=pot,
        params=params,
        z_integral=np.array(ss, dtype=complex) if track else None,
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
