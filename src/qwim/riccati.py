"""Adaptive integration of the impedance Riccati equation.

The stepper carries zeta = (m/hbar) Z = psi' / (i psi), with
c = 2m/hbar^2 (``analytic._units``, taken once by each public entry):

    dzeta/dx = i (c (E - U(x)) - zeta^2).

zeta has simple poles at the nodes of the underlying wavefunction.  The
stepper therefore watches |zeta| and switches to the reciprocal
variable W = 1/zeta, which obeys the regular equation

    dW/dx = i (1 - c (E - U(x)) W^2),

where |zeta| passes ``pole_threshold`` times the slab's characteristic
impedance |k| = sqrt(c max|E - U|), and back to zeta (with hysteresis)
where |zeta| falls below half of that.  The two terms of zeta' balance
at |zeta| = |k|, so the switch sits where zeta' turns quadratic, whatever
the energy scale.  Both read y' = i (a - b y^2), with a and b swapping
between the modes.

Stepping is the Dormand-Prince 8(5,3) pair of DOP853 (Hairer, Norsett &
Wanner, Solving ODEs I, II.10; Prince & Dormand, J. Comput. Appl. Math.
7, 67 (1981)): an eighth-order solution from twelve stages, with
Hairer's error measure from the fifth- and third-order estimates e5 and
e3, each over abs_tol + rel_tol max(|y|, |y_new|):

    err = |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2),

accepted where err <= 1, and the next step h 0.9 err^(-1/8), the factor
held to 0.2..5.  A step whose stages overflow is rejected as the
largest error would be.  ``abs_tol`` bounds the error of zeta = psi' /
(i psi) and of W = 1/zeta: an inverse length and a length, which no
choice of hbar and m rescales, so ``force_numeric`` results follow the
units' scaling law.  The twelve stages are written out for the one
complex state inside ``_trajectory``'s single loop over slabs; the slope
at the accepted point, which neither estimate uses, is taken only on
acceptance and is the next step's first stage.  The stepper walks the
slab list the exact chain walks, ``analytic._steps`` from anchor to
target: on each slab U is one level or one line, evaluated inline at
the eleven distinct stage abscissae.  Each slab ends on its join, one of
the potential's ``interfaces()``, so no step straddles a discontinuity,
and every interval of a trajectory lies on one cell, which the walks of
the bridge and the read of its samples (``analytic._bridge``,
``analytic._read``) find by one search against the joins where numpy is
loaded (``_arrays._anchored_many``).  On an evanescent slab a step's
phase stays below ``analytic._BRIDGE_PHASE``, so no interval is bridged
from both ends.  Each slab starts afresh; a
slab shorter than the step floor is crossed in one exact slab step
(``analytic._chain``).  The stepper knows no output grid: values at a
grid's points are read off its samples (``analytic._read``).

Each stage is evaluated as a' - b' y^2 with the factor i folded into
the coefficients (a' = i a, b' = i b) where they are set, and each
tableau weight is scaled by h before it meets its stage, with the zero
weights left out.  Energy and ends are taken as Python floats and the
anchor as a Python complex, so every step runs on plain Python scalars
whatever numeric type the caller passes; a non-finite energy or end
raises NonFiniteInputError.

The trajectory is zeta alone.  psi comes back from it exactly, one
chain walk across each sample interval from the sample with the larger
|zeta| (``analytic._bridge``), zeta at a grid's points by the same walk
to each point (``analytic._read``), and R and T from zeta at the entry
edge (``scattering.solve_scattering``).

This module imports no numpy.  ``_trajectory`` returns plain lists of
zeta, and the solver paths read them directly: a ``force_numeric``
solve, the bound search's ``force_numeric`` ends, and the CLI's
``profile --force-numeric`` and ``validate``.  ``integrate_impedance``,
the public entry, loads numpy when it is called, checks an array grid,
and reads the trajectory at it: on a piecewise potential the read's
array pass gives the ``ImpedanceTrajectory``'s arrays as they are, Z
divided from zeta in place; elsewhere the read's lists, or the
trajectory's without a grid, become those arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analytic import _BRIDGE_PHASE, _chain, _divide, _read, _steps, _units, region_constants
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
    """Integrate Z from (anchor_x, anchor_z) to target_x: the walk of
    ``_trajectory`` in zeta = (m/hbar) Z, the units taken here
    (``analytic._units``), its samples turned back into Z.

    With a ``grid``, the trajectory is read at its points
    (``analytic._read``): its samples are the anchor, the grid points
    strictly between anchor and target, and the target, and Z at a grid
    point is one exact slab step from whichever of the two stepper
    samples around it has the larger |Z|, at a tie the one the walk
    reached first.  ``grid`` must be real and
    one-dimensional (TypeError otherwise), with finite points
    (NonFiniteInputError); points outside the range are ignored.
    """
    import numpy as np

    points = None
    if grid is not None:
        if np.iscomplexobj(grid):
            raise TypeError("grid must be real, got a complex grid")
        points = np.asarray(grid, dtype=float)
        if points.ndim != 1:
            raise TypeError(f"grid must be one-dimensional, got shape {points.shape}")
    c, w = _units(params)
    z = complex(anchor_z)
    xs, zs = _trajectory(pot, e, anchor_x, complex(z.real * w, z.imag * w), target_x, cfg, c)
    if points is not None:
        xs, zs = _read(pot, float(e), xs, zs, points, c, target_x > anchor_x)
    zs = np.asarray(zs, dtype=complex)  # a new array either way
    zs.view(float)[...] /= w  # Z = zeta / w by parts
    return ImpedanceTrajectory(
        xs=np.asarray(xs, dtype=float),
        zs=zs,
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
    c: float,
) -> tuple[list[float], list[complex]]:
    """The walk of ``integrate_impedance`` in plain Python, in zeta =
    (m/hbar) Z from a zeta anchor, with c = 2m/hbar^2: (xs, zs), the
    samples in ascending x and zeta there.  The range is walked along the
    slab list ``analytic._steps(pot, anchor_x, target_x)``, each slab one
    run to its join that starts afresh: a first step of min(cap, slab
    length), a first stage at its start, and zeta or W mode by |zeta|
    there against the slab's own switch.  Only slab ends, mode switches
    and the nudge off an exact node restart the state."""
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

    # abs_tol bounds the error of zeta = psi' / (i psi) and of W = 1/zeta,
    # an inverse length and a length, which hbar and m do not scale
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    # |zeta| over the slab's characteristic |k| at which W takes over
    switch = cfg.pole_threshold * math.sqrt(c)
    isfinite, hypot = cmath.isfinite, math.hypot

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
            z = _divide(*_chain([slab], e, z, c)[:2])
            xs.append(end)
            zs.append(z)
            continue
        # the switch: pole_threshold sqrt(c max|E - U|) over the slab
        u1 = u0 + slope * slab[-1]
        threshold = switch * math.sqrt(max(abs(e - u0), abs(e - u1)))
        # an evanescent slab's steps keep their phase below _BRIDGE_PHASE,
        # a thousandth to spare for rounding in x, so that no interval is
        # bridged from both ends (``analytic._bridge``); a cap below the
        # step floor caps nothing
        top, cap = max(u0, u1) - e, max_step
        if top > 0.0:
            cap = min(max_step, 0.999 * _BRIDGE_PHASE / math.sqrt(c * top))
            if cap < h_floor:
                cap = max_step
        # hysteresis: back to zeta once |zeta| < threshold / 2, |W| > 2 / threshold
        switch_back = 2.0 / threshold if threshold else math.inf
        line = slope != 0.0
        if not line:
            level = 1j * (c * (e - u0))
        # U jumps at a slab's start, so each slab starts afresh
        x = xa
        h = sgn * min(cap, abs(end - xa))
        in_w = abs(z) > threshold
        fresh = True
        # y' = a - b y^2 at each stage, the factor i folded into a and b:
        # y = zeta with a = i c (E - U), b = i, or y = W = 1 / zeta with
        # the two swapped
        while sgn * (end - x) > h_floor:
            if fresh:
                # restart from (x, zeta): the state and its slope
                fresh = False
                y = 1.0 / z if in_w else z
                abs_y = abs(y)
                if line:
                    p1 = 1j * (c * (e - (u0 + slope * (x - xa))))
                else:
                    p1 = level
                if in_w:
                    a1 = a2 = a3 = a4 = a5 = a6 = a7 = a8 = a9 = a10 = a11 = a12 = 1j
                    b1 = b2 = b3 = b4 = b5 = b6 = b7 = b8 = b9 = b10 = b11 = b12 = p1
                else:
                    a1 = a2 = a3 = a4 = a5 = a6 = a7 = a8 = a9 = a10 = a11 = a12 = p1
                    b1 = b2 = b3 = b4 = b5 = b6 = b7 = b8 = b9 = b10 = b11 = b12 = 1j
                k1 = a1 - b1 * (y * y)
            # |h| capped by the slab's cap and by what is left of the slab
            m = sgn * h
            if m > cap:
                m = cap
            rest = sgn * (end - x)
            if m > rest:
                m = rest
            h = sgn * m
            if line:
                # the line at the eleven distinct stage abscissae; the
                # last, x + h, serves the twelfth stage and the next
                # step's first
                p2 = 1j * (c * (e - (u0 + slope * (x + 0.05260015195876773 * h - xa))))
                p3 = 1j * (c * (e - (u0 + slope * (x + 0.0789002279381516 * h - xa))))
                p4 = 1j * (c * (e - (u0 + slope * (x + 0.1183503419072274 * h - xa))))
                p5 = 1j * (c * (e - (u0 + slope * (x + 0.2816496580927726 * h - xa))))
                p6 = 1j * (c * (e - (u0 + slope * (x + 0.3333333333333333 * h - xa))))
                p7 = 1j * (c * (e - (u0 + slope * (x + 0.25 * h - xa))))
                p8 = 1j * (c * (e - (u0 + slope * (x + 0.3076923076923077 * h - xa))))
                p9 = 1j * (c * (e - (u0 + slope * (x + 0.6512820512820513 * h - xa))))
                p10 = 1j * (c * (e - (u0 + slope * (x + 0.6 * h - xa))))
                p11 = 1j * (c * (e - (u0 + slope * (x + 0.8571428571428571 * h - xa))))
                p12 = 1j * (c * (e - (u0 + slope * (x + h - xa))))
                if in_w:
                    b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12 = (
                        p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12)
                else:
                    a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = (
                        p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12)
            # Dormand-Prince 8(5,3), DOP853's pair (Hairer, Norsett &
            # Wanner, Solving ODEs I, II.10).  Each sum runs left to right
            # along its tableau row, every weight scaled by h before it
            # meets its stage and the zero weights left out: bitwise the
            # generic tableau loop evaluated in that order.  A product is
            # written stage first, k * (h * w), the same bits as
            # (h * w) * k, which CPython reaches only after float's own
            # multiply declines a complex
            y2 = y + k1 * (h * 0.05260015195876773)
            k2 = a2 - b2 * (y2 * y2)
            y3 = y + (k1 * (h * 0.0197250569845379) + k2 * (h * 0.0591751709536137))
            k3 = a3 - b3 * (y3 * y3)
            y4 = y + (k1 * (h * 0.02958758547680685) + k3 * (h * 0.08876275643042054))
            k4 = a4 - b4 * (y4 * y4)
            y5 = y + (
                k1 * (h * 0.2413651341592667) + k3 * (h * -0.8845494793282861)
                + k4 * (h * 0.924834003261792)
            )
            k5 = a5 - b5 * (y5 * y5)
            y6 = y + (
                k1 * (h * 0.037037037037037035) + k4 * (h * 0.17082860872947386)
                + k5 * (h * 0.12546768756682242)
            )
            k6 = a6 - b6 * (y6 * y6)
            y7 = y + (
                k1 * (h * 0.037109375) + k4 * (h * 0.17025221101954405)
                + k5 * (h * 0.06021653898045596) + k6 * (h * -0.017578125)
            )
            k7 = a7 - b7 * (y7 * y7)
            y8 = y + (
                k1 * (h * 0.03709200011850479) + k4 * (h * 0.17038392571223998)
                + k5 * (h * 0.10726203044637328) + k6 * (h * -0.015319437748624402)
                + k7 * (h * 0.008273789163814023)
            )
            k8 = a8 - b8 * (y8 * y8)
            y9 = y + (
                k1 * (h * 0.6241109587160757) + k4 * (h * -3.3608926294469414)
                + k5 * (h * -0.868219346841726) + k6 * (h * 27.59209969944671)
                + k7 * (h * 20.154067550477894) + k8 * (h * -43.48988418106996)
            )
            k9 = a9 - b9 * (y9 * y9)
            y10 = y + (
                k1 * (h * 0.47766253643826434) + k4 * (h * -2.4881146199716677)
                + k5 * (h * -0.590290826836843) + k6 * (h * 21.230051448181193)
                + k7 * (h * 15.279233632882423) + k8 * (h * -33.28821096898486)
                + k9 * (h * -0.020331201708508627)
            )
            k10 = a10 - b10 * (y10 * y10)
            y11 = y + (
                k1 * (h * -0.9371424300859873) + k4 * (h * 5.186372428844064)
                + k5 * (h * 1.0914373489967295) + k6 * (h * -8.149787010746927)
                + k7 * (h * -18.52006565999696) + k8 * (h * 22.739487099350505)
                + k9 * (h * 2.4936055526796523) + k10 * (h * -3.0467644718982196)
            )
            k11 = a11 - b11 * (y11 * y11)
            y12 = y + (
                k1 * (h * 2.273310147516538) + k4 * (h * -10.53449546673725)
                + k5 * (h * -2.0008720582248625) + k6 * (h * -17.9589318631188)
                + k7 * (h * 27.94888452941996) + k8 * (h * -2.8589982771350235)
                + k9 * (h * -8.87285693353063) + k10 * (h * 12.360567175794303)
                + k11 * (h * 0.6433927460157636)
            )
            k12 = a12 - b12 * (y12 * y12)
            # the eighth-order solution; the third-order estimate shares
            # the five weights where its row equals it
            t6 = k6 * (h * 4.450312892752409)
            t7 = k7 * (h * 1.8915178993145003)
            t8 = k8 * (h * -5.801203960010585)
            t10 = k10 * (h * -0.1521609496625161)
            t11 = k11 * (h * 0.20136540080403034)
            y_new = y + (
                k1 * (h * 0.054293734116568765) + t6 + t7 + t8
                + k9 * (h * 0.3111643669578199) + t10 + t11 + k12 * (h * 0.04471061572777259)
            )
            if not isfinite(y_new):
                # stages that overflow reject the step as the largest
                # error would; a state not finite at the step floor raises
                h *= 0.2
                if sgn * h < h_floor:
                    raise NonFiniteStateError(f"non-finite state near x={x}")
                continue
            err5 = (
                k1 * (h * 0.01312004499419488) + k6 * (h * -1.2251564463762044)
                + k7 * (h * -0.4957589496572502) + k8 * (h * 1.6643771824549864)
                + k9 * (h * -0.35032884874997366) + k10 * (h * 0.3341791187130175)
                + k11 * (h * 0.08192320648511571) + k12 * (h * -0.022355307863886294)
            )
            err3 = (
                k1 * (h * -0.18980075407240762) + t6 + t7 + t8
                + k9 * (h * -0.4226823213237919) + t10 + t11 + k12 * (h * 0.02265179219836082)
            )
            # Hairer's combined estimate |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2),
            # each error over abs_tol + rel_tol max(|y|, |y_new|) first
            abs_y_new = abs(y_new)
            big = abs_y_new if abs_y_new > abs_y else abs_y
            scale = abs_tol + rel_tol * big
            e5, e3 = abs(err5) / scale, abs(err3) / scale
            norm = e5 * (e5 / hypot(e5, 0.1 * e3)) if e5 else 0.0
            if norm > 1.0:
                f = 0.9 * norm ** -0.125
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
            # the slope at (x + h, y_new), which neither estimate uses,
            # taken only now: the next step's first stage
            y, k1, abs_y = y_new, a12 - b12 * (y_new * y_new), abs_y_new
            z = (1.0 / y) if in_w else y
            xs.append(x)
            zs.append(z)
            # an accepted norm is at most 1, so the growth factor is at
            # least 0.9 and only its cap of 5 applies; a NaN norm, like 0,
            # grows the step five-fold
            if norm > 0.0:
                f = 0.9 * norm ** -0.125
                h *= f if f < 5.0 else 5.0
            else:
                h *= 5.0
            # |y| is |zeta| in zeta mode and |W| in W mode
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
