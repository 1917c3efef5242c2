"""Adaptive integration of the impedance Riccati equation.

    dZ/dx = i (2/hbar) (E - U(x)) - i (m/hbar) Z^2

Z has simple poles at the nodes of the underlying wavefunction.  The
stepper therefore watches |Z| and switches to the reciprocal variable
W = 1/Z, which obeys the regular equation

    dW/dx = i (m/hbar) - i (2/hbar) (E - U(x)) W^2,

where |Z| passes ``pole_threshold`` times the slab's characteristic
impedance |z| = sqrt(2 max|E - U| / m), and back to Z (with hysteresis)
where |Z| falls below half of that.  The two terms of Z' balance at
|Z| = |z|, so the switch sits where Z' turns quadratic in Z, whatever
the energy scale.  Both read y' = i (a - b y^2), with a and b swapping
between the modes.  Stepping is the Dormand-Prince 5(4) embedded pair
(J. Comput. Appl. Math. 6, 19 (1980)) with standard PI-free error
control, its seven stages written out for the one complex state, Z or
W, inside ``_trajectory``'s single loop over slabs.  The stepper walks
the slab list the exact chain walks, ``analytic._steps`` from anchor to
target: on each slab U is one level or one line u_start + slope (x -
slab start), evaluated inline at the stages.  Each slab ends on its
join, one of the potential's ``interfaces()`` (the joins of its cells,
one float each, ``PiecewisePotential.cells``), so no step ever straddles
a discontinuity, and every interval of a trajectory, walked either way,
lies on one cell: its slab is that cell's level over the interval's
length, which the bridge and the read of its samples find by one search
against the joins (``_arrays._bridge_many``, ``_arrays._read_many``)
where numpy is loaded, and by one cut of the samples
(``analytic._cut``) elsewhere.  Each slab starts
afresh; a slab shorter than the step floor is crossed in one exact slab
step (``analytic._chain``).  The stepper knows no output grid: values
at a grid's points are read off its samples (``analytic._read``).

Each stage is evaluated as a' - b' y^2 with the factor i folded into
the coefficients (a' = i a, b' = i b) where they are set, and each
tableau weight is scaled by h before it meets its stage, with the zero
weights left out.  Energy and ends are taken as Python floats and the anchor as
a Python complex, so every step runs on plain Python scalars whatever
numeric type the caller passes; a non-finite energy or end raises
NonFiniteInputError.

The trajectory is Z alone.  psi comes back from it exactly, one slab
step per sample interval (``analytic._bridge``: where numpy is loaded
already, on a piecewise potential, the steps of all intervals in one
array pass; elsewhere one walk an interval), and R and T from Z at the
entry edge (``scattering.solve_scattering``).

This module imports no numpy.  ``_trajectory`` returns plain lists, and
the solver paths read them directly: a ``force_numeric`` solve, the
bound search's ``force_numeric`` ends, and the CLI's ``profile
--force-numeric`` (read at its grid) and ``validate``.
``integrate_impedance``, the public entry, checks an array grid, reads
the trajectory at it, and wraps the lists as the arrays of an
``ImpedanceTrajectory``, loading numpy when it is called.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analytic import _chain, _divide, _read, _steps, region_constants
from .errors import (
    EvanescentIncidenceError,
    NonFiniteStateError,
    StepSizeUnderflowError,
)
from .model import IntegrationConfig, ModelParams, Potential, Side, require_finite

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ImpedanceTrajectory:
    """Accepted-step record of one Riccati integration, or that record
    read at a grid's points (``integrate_impedance``).

    ``xs`` ascend regardless of integration direction; ``direction``
    tells which end holds the anchor (LEFT means integrated toward
    smaller x, so the anchor is the last sample).
    """

    xs: np.ndarray
    zs: np.ndarray
    direction: Side
    anchor_x: float
    anchor_z: complex
    energy: float
    potential: Potential
    params: ModelParams


def integrate_impedance(
    pot: Potential,
    e: float,
    anchor_x: float,
    anchor_z: complex,
    target_x: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    grid: np.ndarray | None = None,
) -> ImpedanceTrajectory:
    """Integrate Z from (anchor_x, anchor_z) to target_x.

    The range is walked along the slab list ``analytic._steps(pot,
    anchor_x, target_x)``, a lead's level included past a or b: a level
    fixes the stages' coefficients, a line is evaluated at each stage.
    Each slab is one run from its start to its join (the last one to the
    target), and starts afresh: a first step of min(max_step, slab
    length), a first stage at its start, and Z or W mode by |Z| there
    against the slab's own switch.  A slab shorter than the step floor
    takes one exact slab step (``analytic._chain``) to its join.  Only
    slab ends, mode switches and the nudge off an exact node restart the
    state.

    With a ``grid``, the trajectory is read at its points
    (``analytic._read``): its samples are the anchor, the grid points
    strictly between anchor and target, and the target, and Z at a grid
    point is one exact slab step from whichever of the two stepper
    samples around it has the larger |Z|.  ``grid`` must be real and
    one-dimensional (TypeError otherwise), with finite points
    (NonFiniteInputError); points outside the range are ignored.  The
    walk itself is ``_trajectory``'s; this wraps its lists as arrays.
    """
    import numpy as np

    points = None
    if grid is not None:
        if np.iscomplexobj(grid):
            raise TypeError("grid must be real, got a complex grid")
        points = np.asarray(grid, dtype=float)
        if points.ndim != 1:
            raise TypeError(f"grid must be one-dimensional, got shape {points.shape}")
    xs, zs = _trajectory(pot, e, anchor_x, anchor_z, target_x, cfg, params)
    if points is not None:
        xs, zs = _read(pot, float(e), xs, zs, points.tolist(), params)
    return ImpedanceTrajectory(
        xs=np.array(xs),
        zs=np.array(zs, dtype=complex),
        direction=Side.LEFT if target_x < anchor_x else Side.RIGHT,
        anchor_x=float(anchor_x),
        anchor_z=complex(anchor_z),
        energy=float(e),
        potential=pot,
        params=params,
    )


def _trajectory(
    pot: Potential,
    e: float,
    anchor_x: float,
    anchor_z: complex,
    target_x: float,
    cfg: IntegrationConfig,
    params: ModelParams,
) -> tuple[list[float], list[complex]]:
    """The walk of ``integrate_impedance`` in plain Python: (xs, zs), the
    samples in ascending x and Z there."""
    require_finite("energy", e)
    require_finite("anchor and target", anchor_x, target_x)
    # plain Python scalars: a numpy scalar would carry numpy's slower
    # arithmetic into every stage of every step
    e, anchor_x, target_x = float(e), float(anchor_x), float(target_x)
    anchor_z = complex(anchor_z)
    if anchor_x == target_x:
        raise ValueError("anchor and target coincide; nothing to integrate")
    span = abs(target_x - anchor_x)
    max_step = cfg.max_step if cfg.max_step is not None else span / 50.0

    leftward = target_x < anchor_x
    sgn = -1.0 if leftward else 1.0
    lo, hi = min(anchor_x, target_x), max(anchor_x, target_x)

    c_pot = 2.0 / params.hbar
    i_imp = 1j * (params.mass / params.hbar)
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    # |Z| over the slab's characteristic |z| at which W takes over
    switch = cfg.pole_threshold * math.sqrt(2.0 / params.mass)
    isfinite = cmath.isfinite

    xs, zs = [anchor_x], [anchor_z]
    z = anchor_z
    # the slabs: each one's end is the join where it meets the next (the
    # last on the target).  U on a slab is one level, or the line
    # u0 + slope (x - xa) from its start xa
    slabs = _steps(pot, anchor_x, target_x)
    ends = [*sorted((x for x in pot.interfaces() if lo < x < hi), reverse=leftward), target_x]
    for slab, xa, end in zip(slabs, [anchor_x, *ends], ends):
        u0, slope = slab[0], slab[1] if len(slab) == 3 else 0.0
        h_floor = 1e-14 * max(1.0, abs(xa), abs(end))
        if sgn * (end - xa) <= h_floor:
            # a slab shorter than the step floor: one exact step across it
            z = _divide(*_chain([slab], e, z, params)[:2])
            xs.append(end)
            zs.append(z)
            continue
        # the switch: pole_threshold sqrt(2 max|E - U| / m) over the slab
        threshold = switch * math.sqrt(max(abs(e - u0), abs(e - (u0 + slope * slab[-1]))))
        # hysteresis: back to Z once |Z| < threshold / 2, |W| > 2 / threshold
        switch_back = 2.0 / threshold if threshold else math.inf
        line = slope != 0.0
        if not line:
            level = 1j * (c_pot * (e - u0))
        # U jumps at a slab's start, so each slab starts afresh
        x = xa
        h = sgn * min(max_step, abs(end - xa))
        in_w = abs(z) > threshold
        fresh = True
        # y' = a - b y^2 at each stage, the factor i folded into a and b:
        # y = Z with a = i c_pot (E - U), b = i c_imp, or y = W with the
        # two swapped
        while sgn * (end - x) > h_floor:
            if fresh:
                # restart from (x, Z): the state and its slope
                fresh = False
                y = 1.0 / z if in_w else z
                abs_y = abs(y)
                if line:
                    p1 = 1j * (c_pot * (e - (u0 + slope * (x - xa))))
                else:
                    p1 = level
                if in_w:
                    a1 = a2 = a3 = a4 = a5 = a6 = i_imp
                    b1 = b2 = b3 = b4 = b5 = b6 = p1
                else:
                    a1 = a2 = a3 = a4 = a5 = a6 = p1
                    b1 = b2 = b3 = b4 = b5 = b6 = i_imp
                k1 = a1 - b1 * (y * y)
            # |h| capped by max_step and by what is left of the slab
            m = sgn * h
            if m > max_step:
                m = max_step
            rest = sgn * (end - x)
            if m > rest:
                m = rest
            h = sgn * m
            if line:
                # the line at the five distinct stage abscissae
                p2 = 1j * (c_pot * (e - (u0 + slope * (x + 0.2 * h - xa))))
                p3 = 1j * (c_pot * (e - (u0 + slope * (x + 0.3 * h - xa))))
                p4 = 1j * (c_pot * (e - (u0 + slope * (x + 0.8 * h - xa))))
                p5 = 1j * (c_pot * (e - (u0 + slope * (x + 8.0 / 9.0 * h - xa))))
                p6 = 1j * (c_pot * (e - (u0 + slope * (x + h - xa))))
                if in_w:
                    b2, b3, b4, b5, b6 = p2, p3, p4, p5, p6
                else:
                    a2, a3, a4, a5, a6 = p2, p3, p4, p5, p6
            # Dormand-Prince 5(4), the classic ode45 pair.  Each sum runs
            # left to right along its tableau row, every weight scaled by h
            # before it meets its stage and the two zero weights (on k2 in
            # the fifth-order and the error row) left out: bitwise the
            # generic tableau loop evaluated in that order.  k7, at x + h,
            # starts the next step (first same as last).
            y2 = y + (h * 0.2) * k1
            k2 = a2 - b2 * (y2 * y2)
            y3 = y + ((h * (3.0 / 40.0)) * k1 + (h * (9.0 / 40.0)) * k2)
            k3 = a3 - b3 * (y3 * y3)
            y4 = y + (
                (h * (44.0 / 45.0)) * k1 + (h * (-56.0 / 15.0)) * k2
                + (h * (32.0 / 9.0)) * k3
            )
            k4 = a4 - b4 * (y4 * y4)
            y5 = y + (
                (h * (19372.0 / 6561.0)) * k1 + (h * (-25360.0 / 2187.0)) * k2
                + (h * (64448.0 / 6561.0)) * k3 + (h * (-212.0 / 729.0)) * k4
            )
            k5 = a5 - b5 * (y5 * y5)
            y6 = y + (
                (h * (9017.0 / 3168.0)) * k1 + (h * (-355.0 / 33.0)) * k2
                + (h * (46732.0 / 5247.0)) * k3 + (h * (49.0 / 176.0)) * k4
                + (h * (-5103.0 / 18656.0)) * k5
            )
            k6 = a6 - b6 * (y6 * y6)
            y_new = y + (
                (h * (35.0 / 384.0)) * k1 + (h * (500.0 / 1113.0)) * k3
                + (h * (125.0 / 192.0)) * k4 + (h * (-2187.0 / 6784.0)) * k5
                + (h * (11.0 / 84.0)) * k6
            )
            k7 = a6 - b6 * (y_new * y_new)
            err_y = (
                (h * (71.0 / 57600.0)) * k1 + (h * (-71.0 / 16695.0)) * k3
                + (h * (71.0 / 1920.0)) * k4 + (h * (-17253.0 / 339200.0)) * k5
                + (h * (22.0 / 525.0)) * k6 + (h * (-1.0 / 40.0)) * k7
            )
            if not isfinite(y_new):
                raise NonFiniteStateError(f"non-finite state near x={x}")
            abs_y_new = abs(y_new)
            big = abs_y_new if abs_y_new > abs_y else abs_y
            norm = abs(err_y) / (abs_tol + rel_tol * big)
            if norm > 1.0:
                f = 0.9 * norm ** -0.2
                h *= f if f > 0.2 else 0.2
                if sgn * h < h_floor:
                    raise StepSizeUnderflowError(f"step underflow near x={x}")
                continue
            if in_w and y_new == 0:
                # landed exactly on a node; nudge the step so 1/W exists
                h *= 0.97
                fresh = True
                continue
            x += h
            if sgn * (end - x) <= h_floor:
                x = end  # land exactly on the join
            y, k1, abs_y = y_new, k7, abs_y_new
            z = (1.0 / y) if in_w else y
            xs.append(x)
            zs.append(z)
            # an accepted norm is at most 1, so the growth factor is at
            # least 0.9 and only its cap of 5 applies; a NaN norm, like 0,
            # grows the step five-fold
            if norm > 0.0:
                f = 0.9 * norm ** -0.2
                h *= f if f < 5.0 else 5.0
            else:
                h *= 5.0
            # |y| is |Z| in Z mode and |W| in W mode
            if in_w:
                if abs_y > switch_back:
                    in_w = False
                    fresh = True
            elif abs_y > threshold:
                in_w = True
                fresh = True

    if leftward:
        xs.reverse()
        zs.reverse()
    return xs, zs


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
    return integrate_impedance(pot, e, pot.a, z0, pot.b, cfg, params, grid)


def z_minus(
    pot: Potential,
    e: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    track_integral: bool = False,
    grid: np.ndarray | None = None,
) -> ImpedanceTrajectory:
    """Right-anchored trajectory Z- integrated leftward from b.

    Anchor Z(b) = +z2 in both regimes: the decaying right tail below the
    lead, the pure transmitted wave above it.  ``track_integral`` is
    ignored: the running integral of Z it once asked for is gone, and psi
    comes from the trajectory's Z alone (``xcheck.reconstruct_wavefunction``).
    """
    z0 = right_anchor(pot, e, params)
    return integrate_impedance(pot, e, pot.b, z0, pot.a, cfg, params, grid)
