"""Scattering observables r, t, R, T for stepped and smooth potentials.

Left incidence works from the transmitted side inward: the right lead
carries a pure outgoing wave, so Z(b) = z2 exactly, and the impedance is
propagated back to the entry interface a.  There

    r = (z1 - Z(a)) / (z1 + Z(a))

is the reflected/incident amplitude ratio at a, and the transmitted
amplitude follows from the accumulated phase integral

    psi(x) = psi(a) exp[(i m / hbar) int_a^x Z dx'],   t = psi(b) e^{-i k2 b}

with psi(a) = (1 + r) e^{i k1 a} for a unit incident wave.  Probability
coefficients are R = |r|^2 and T = (z2 / z1) |t|^2 (current ratio), which
sum to one whenever the far lead propagates.  Right incidence is solved
on the mirrored potential.

Piecewise-constant potentials use exact layer chaining; smooth (sampled)
potentials, or any potential when ``cfg.force_numeric`` is set, use the
adaptive Riccati integrator with the running integral tracked.  An energy
sweep over a piecewise potential chains the whole grid at once, one array
pass per slab; points that pass flags (where a single solve raises, or
its values are not finite) are solved again one at a time.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .analytic import _chain, _chain_many, _region_constants_many, region_constants
from .errors import (
    EvanescentIncidenceError,
    NonPositiveRealPartError,
    SolverError,
)
from .model import ModelParams, PiecewisePotential, Potential, Side, require_finite
from .riccati import ImpedanceTrajectory, IntegrationConfig, integrate_impedance


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes and probability coefficients at one energy.

    ``r`` is the reflection ratio at the entry interface; ``t`` the
    transmitted plane-wave coefficient, or the evanescent tail amplitude
    at the far interface when ``evanescent_tail`` is set (then T = 0).
    ``z_entry`` is the impedance the structure presents at the entry
    interface, in the frame of the incidence side.
    """

    e: float
    side: Side
    r: complex
    t: complex
    big_r: float
    big_t: float
    z_entry: complex
    evanescent_tail: bool = False


@dataclass(frozen=True)
class EnergyPointError:
    """Per-point failure record used by energy sweeps."""

    e: float
    code: str
    message: str


def _solve_left(
    pot: Potential,
    e: float,
    cfg: IntegrationConfig,
    params: ModelParams,
) -> ScatteringResult:
    u1, u2 = pot.left_level, pot.right_level
    if e < u1:
        raise EvanescentIncidenceError(f"energy {e} below incidence lead {u1}")
    rc1 = region_constants(e, u1, params)  # degenerate e == u1 raises here
    rc2 = region_constants(e, u2, params)
    z1, k1 = rc1.z, rc1.gamma.imag
    z_far = rc2.z  # +z2: transmitted wave above the lead, decaying tail below
    far_propagating = rc2.is_propagating
    a, b = pot.a, pot.b

    analytic = isinstance(pot, PiecewisePotential) and not cfg.force_numeric
    if analytic or a == b:
        num, den, ratio = _chain(pot, e, z_far, a, False, params)
    else:
        traj = integrate_impedance(
            pot, e, b, z_far, a, cfg, params, track_integral=True
        )
        num, den = complex(traj.zs[0]), 1.0
        # S measured from the anchor at b, so int_a^b Z dx = -S(a)
        s_a = complex(traj.z_integral[0])
        ratio = cmath.exp(-1j * (params.mass / params.hbar) * s_a)

    # Z(a) = num / den and psi(b) / psi(a) = ratio / den; r and psi(b)
    # share one division, so a psi-node at a leaves both finite
    inv = 1.0 / (z1 * den + num)
    r = (z1 * den - num) * inv
    psi_b = 2.0 * z1 * ratio * inv * cmath.exp(1j * k1 * a)
    big_r = abs(r) ** 2
    if far_propagating:
        k2 = rc2.gamma.imag
        t = psi_b * cmath.exp(-1j * k2 * b)
        big_t = (rc2.z.real / z1.real) * abs(t) ** 2
        evan = False
    else:
        t = psi_b  # tail amplitude at b: psi(x >= b) = t exp(-kappa2 (x - b))
        big_t = 0.0
        evan = True
    return ScatteringResult(
        e=e,
        side=Side.LEFT,
        r=r,
        t=t,
        big_r=big_r,
        big_t=big_t,
        z_entry=num / den,
        evanescent_tail=evan,
    )


def solve_scattering(
    pot: Potential,
    e: float,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> ScatteringResult:
    """Scattering amplitudes at energy ``e`` for the given incidence side.

    Right incidence is computed on the mirrored potential; reported
    amplitudes live in the mirrored (incidence-side) frame, so R, T and
    the moduli are directly comparable between sides.
    """
    require_finite("energy", e)
    if side is Side.RIGHT:
        return replace(_solve_left(pot.mirrored(), e, cfg, params), side=Side.RIGHT)
    return _solve_left(pot, e, cfg, params)


def _sweep_chain(
    pot: PiecewisePotential, es: list[float], side: Side, params: ModelParams
) -> list[ScatteringResult | None]:
    """``_solve_left`` over a piecewise stack for a whole energy grid.

    One ``_chain_many`` pass and the lead formulas as array operations.
    None marks each point where the scalar solve raises or where the
    array pass is not finite; the caller solves those one at a time.
    """
    work = pot.mirrored() if side is Side.RIGHT else pot
    e = np.array(es, dtype=float)
    z1, gamma1, degenerate1 = _region_constants_many(e, work.left_level, params)
    z2, gamma2, degenerate2 = _region_constants_many(e, work.right_level, params)
    num, den, ratio, ok = _chain_many(work, e, z2, work.a, False, params)
    far_propagating = e > work.right_level
    with np.errstate(all="ignore"):
        z_entry = num / den
        inv = 1.0 / (z1 * den + num)
        r = (z1 * den - num) * inv
        psi_b = 2.0 * z1 * ratio * inv * np.exp(1j * gamma1.imag * work.a)
        big_r = np.abs(r) ** 2
        t = np.where(
            far_propagating, psi_b * np.exp(-1j * gamma2.imag * work.b), psi_b
        )
        big_t = np.where(
            far_propagating, (z2.real / z1.real) * np.abs(t) ** 2, 0.0
        )
        ok &= (e >= work.left_level) & ~degenerate1 & ~degenerate2
        ok &= np.isfinite(r) & np.isfinite(t) & np.isfinite(big_r) & np.isfinite(big_t)
    # positional fields, in ScatteringResult's order: keywords cost twice
    # as much per record, which is most of a short sweep
    rows = zip(
        es, repeat(side), r.tolist(), t.tolist(), big_r.tolist(),
        big_t.tolist(), z_entry.tolist(), (~far_propagating).tolist(),
    )
    return [ScatteringResult(*row) if good else None for row, good in zip(rows, ok.tolist())]


def energy_sweep(
    pot: Potential,
    energies,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> list[ScatteringResult | EnergyPointError]:
    """Solve scattering on an ascending energy grid.

    Points are independent; any point that fails with a solver error
    yields an ``EnergyPointError`` record in place so one bad energy
    cannot poison the sweep.  Order is preserved.  A piecewise stack
    (without ``force_numeric``) is solved in one array pass per slab;
    the points that pass flags are solved again one at a time, so they
    carry exactly the records ``solve_scattering`` gives.
    """
    es = [float(v) for v in energies]
    require_finite("energy", *es)
    for e0, e1 in zip(es, es[1:]):
        if not e0 < e1:
            raise ValueError("energy grid must be strictly ascending")
    if isinstance(pot, PiecewisePotential) and not cfg.force_numeric:
        batch = _sweep_chain(pot, es, side, params)
    else:
        batch = [None] * len(es)
    out: list[ScatteringResult | EnergyPointError] = []
    for e, res in zip(es, batch):
        if res is None:
            try:
                res = solve_scattering(pot, e, side, cfg, params)
            except SolverError as exc:
                res = EnergyPointError(e=e, code=exc.code, message=str(exc))
        out.append(res)
    return out


def constant_current_diagnostic(
    traj: ImpedanceTrajectory, z_lead: float
) -> float:
    """Max deviation of ln(Re Z / z_lead) + (2m/hbar) Im S from constant.

    Along any genuine scattering solution the probability current
    j = |psi|^2 Re Z is position-independent, which in impedance terms
    reads ln(Re Z / z0) = (2m/hbar) int Im Z dx + const.  Returns the
    maximum absolute deviation from the best constant.  Requires a
    trajectory with the running integral tracked; raises
    NonPositiveRealPartError in the no-current (full-reflection or
    bound) regime where Re Z <= 0 somewhere.
    """
    if traj.z_integral is None:
        raise ValueError("trajectory lacks the running integral; "
                         "integrate with track_integral=True")
    re_z = traj.zs.real
    if np.any(re_z <= 0.0):
        raise NonPositiveRealPartError("Re Z <= 0 on the trajectory; "
                                       "no net current to conserve")
    m_over_h = traj.params.mass / traj.params.hbar
    g = np.log(re_z / z_lead) - 2.0 * m_over_h * traj.z_integral.imag
    return float(np.max(np.abs(g - np.mean(g))))


def current_profile(traj: ImpedanceTrajectory, psi_anchor: complex) -> np.ndarray:
    """Probability current j(x) = |psi|^2 Re Z along a tracked trajectory.

    ``psi_anchor`` is the wavefunction value at the trajectory anchor.
    """
    if traj.z_integral is None:
        raise ValueError("trajectory lacks the running integral")
    m_over_h = traj.params.mass / traj.params.hbar
    amp2 = abs(psi_anchor) ** 2 * np.exp(-2.0 * m_over_h * traj.z_integral.imag)
    return amp2 * traj.zs.real
