"""Closed forms and diagnostics that the tests compare the solvers against.

None of these is on a solver path, so they live with the tests, not in
the package.  Sibling test modules import this one; pytest does not
collect it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qwim.analytic import _SATURATION_CUT, region_constants
from qwim.errors import EvanescentIncidenceError
from qwim.model import ModelParams
from qwim.riccati import ImpedanceTrajectory

# Algebraic identities (composition, closed-form agreement) hold to this.
TOL_ALG = 1e-10
# Flux bookkeeping (R + T = 1 and friends) holds to this.
TOL_FLUX = 1e-10


def _slab(z: complex, gamma: complex, z_at: complex, dx: float) -> tuple[complex, complex, complex]:
    """One step of dx (either sign) inside a constant region of
    characteristic impedance z and propagation constant gamma.

    Returns (num, den, f) given Z(x), with Z(x + dx) = num / den and
    psi(x) / psi(x + dx) = f / den.  With g = gamma dx both follow from
    the tanh addition law and share one denominator,

        num = z (Z cosh g + z sinh g),   den = z cosh g + Z sinh g,
        f = z,

    so den -> 0 is a psi-node at x + dx; ``_divide`` raises only where
    den is exactly zero.  Thick evanescent steps divide all three through
    by the dominant exponential first, so cosh/sinh never overflow.
    """
    g = gamma * dx
    if abs(g.real) > _SATURATION_CUT:
        th = 1.0 if g.real > 0 else -1.0
        c1, c2 = 1.0, th
        # num, den and f are the full ones times 2 exp(-th g)
        f = 2.0 * z * cmath.exp(-th * g)
    else:
        c1, c2 = cmath.cosh(g), cmath.sinh(g)
        f = z
    return z * (z_at * c1 + z * c2), z * c1 + z_at * c2, f


class NoCurrentError(Exception):
    """Current diagnostic undefined: Re Z <= 0 somewhere on the trajectory
    (full-reflection or bound regime carries no net current)."""


def step_reflection(
    e: float,
    u1: float,
    u2: float,
    x0: float = 0.0,
    params: ModelParams = ModelParams(),
) -> complex:
    """Reflection amplitude of a sharp step U1 -> U2 at x0, left incidence.

        r = exp(2 i k1 x0) (1 - z2/z1) / (1 + z2/z1)

    Requires a propagating left lead (e > u1).  For u1 < e < u2 the
    amplitude is unimodular (total reflection off the evanescent side);
    matched leads z1 = z2 give r = 0.
    """
    if e < u1:
        raise EvanescentIncidenceError(f"energy {e} below incidence lead {u1}")
    rc1 = region_constants(e, u1, params)
    rc2 = region_constants(e, u2, params)
    k1 = rc1.gamma.imag
    ratio = rc2.z / rc1.z
    return cmath.exp(2j * k1 * x0) * (1.0 - ratio) / (1.0 + ratio)


def square_well_eigenfunction(
    e: float, depth: float, width: float, xs, params: ModelParams = ModelParams()
) -> np.ndarray:
    """Analytic eigenfunction of the square well on [0, width] at energy e.

    Even/odd character is inferred from the interior phase; normalized to
    unit maximum.  Used only as a comparison oracle.
    """
    hbar, m = params.hbar, params.mass
    k = math.sqrt(2.0 * m * (e + depth)) / hbar
    kap = math.sqrt(-2.0 * m * e) / hbar
    c = 0.5 * width
    even = abs(math.cos(k * c) * kap - k * math.sin(k * c)) < abs(
        math.sin(k * c) * kap + k * math.cos(k * c)
    )
    xs = np.asarray(xs, dtype=float)
    xi = xs - c  # center the well
    inside = np.abs(xi) <= c
    psi = np.empty_like(xi)
    if even:
        psi[inside] = np.cos(k * xi[inside])
        tail_sign = np.ones(np.count_nonzero(~inside))
        edge = math.cos(k * c)
    else:
        psi[inside] = np.sin(k * xi[inside])
        tail_sign = np.sign(xi[~inside])
        edge = math.sin(k * c)
    psi[~inside] = tail_sign * edge * np.exp(-kap * (np.abs(xi[~inside]) - c))
    return psi / np.max(np.abs(psi))


def constant_current_diagnostic(
    traj: ImpedanceTrajectory, z_lead: float
) -> float:
    """Max deviation of ln(Re Z / z_lead) + (2m/hbar) Im S from constant.

    Along any genuine scattering solution the probability current
    j = |psi|^2 Re Z is position-independent, which in impedance terms
    reads ln(Re Z / z0) = (2m/hbar) int Im Z dx + const.  Returns the
    maximum absolute deviation from the best constant.  Requires a
    trajectory with the running integral tracked; raises
    NoCurrentError in the no-current (full-reflection or bound) regime
    where Re Z <= 0 somewhere.
    """
    if traj.z_integral is None:
        raise ValueError("trajectory lacks the running integral; "
                         "integrate with track_integral=True")
    re_z = traj.zs.real
    if np.any(re_z <= 0.0):
        raise NoCurrentError("Re Z <= 0 on the trajectory; "
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


def _cumulative_nonuniform_simpson(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cumulative integral through (xs, ys) by local parabola fits.

    Each interval's increment integrates the quadratic through the three
    nearest samples; reduces to composite Simpson on uniform grids.  All
    coordinates are shifted to the window center before evaluating the
    antiderivative, otherwise the O(1)-sized cubic terms cancel against
    each other and the roundoff random-walks along the cumulative sum.
    """
    n = len(xs)
    out = np.zeros(n, dtype=complex)
    if n == 2:
        out[1] = 0.5 * (xs[1] - xs[0]) * (ys[0] + ys[1])
        return out
    i = np.arange(n - 1)
    j0 = np.where(i == 0, 0, np.where(i == n - 2, n - 3, np.where(i % 2, i - 1, i)))
    c = xs[j0 + 1]
    xa = xs[j0] - c
    xc = xs[j0 + 2] - c
    lo = xs[:-1] - c
    hi = xs[1:] - c

    def prim(t, p, q):
        # antiderivative of (t - p)(t - q)
        return t ** 3 / 3.0 - (p + q) * t ** 2 / 2.0 + p * q * t

    wa = (prim(hi, 0.0, xc) - prim(lo, 0.0, xc)) / (xa * (xa - xc))
    wb = (prim(hi, xa, xc) - prim(lo, xa, xc)) / (-xa * -xc)
    wc = (prim(hi, xa, 0.0) - prim(lo, xa, 0.0)) / ((xc - xa) * xc)
    inc = ys[j0] * wa + ys[j0 + 1] * wb + ys[j0 + 2] * wc
    out[1:] = np.cumsum(inc)
    return out
