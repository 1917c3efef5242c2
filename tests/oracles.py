"""Closed forms and diagnostics that the tests compare the solvers against.

None of these is on a solver path, so they live with the tests, not in
the package.  Sibling test modules import this one; pytest does not
collect it.
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

from qwim._arrays import _linear_maps
from qwim.analytic import _BRIDGE_PHASE, _SATURATION_CUT, _chain, _phase, _steps, _units, region_constants
from qwim.errors import EvanescentIncidenceError
from qwim.model import ModelParams, Side
from qwim.riccati import ImpedanceTrajectory
from qwim.xcheck import reconstruct_wavefunction

# Algebraic identities (composition, closed-form agreement) hold to this.
TOL_ALG = 1e-10
# Flux bookkeeping (R + T = 1 and friends) holds to this.
TOL_FLUX = 1e-10


def to_zeta(z: complex, w: float) -> complex:
    """zeta = w Z, part by part, as the package takes it at its edge."""
    return complex(z.real * w, z.imag * w)


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
    """Max deviation of ln(j / z_lead) from constant, j = |psi|^2 Re Z.

    Along any genuine scattering solution the probability current
    j = |psi|^2 Re Z is position-independent.  psi is the trajectory's
    own, bridged slab by slab from its Z (``reconstruct_wavefunction``).
    Returns the maximum absolute deviation of ln(j / z_lead) from the best
    constant.  Raises NoCurrentError in the no-current (full-reflection
    or bound) regime where Re Z <= 0 somewhere.
    """
    re_z = traj.zs.real
    if np.any(re_z <= 0.0):
        raise NoCurrentError("Re Z <= 0 on the trajectory; "
                             "no net current to conserve")
    psi = reconstruct_wavefunction(traj).psi
    g = np.log(np.abs(psi) ** 2 * re_z / z_lead)
    return float(np.max(np.abs(g - np.mean(g))))


def current_profile(traj: ImpedanceTrajectory, psi_anchor: complex) -> np.ndarray:
    """Probability current j(x) = |psi|^2 Re Z along a trajectory, psi
    bridged slab by slab from its Z.

    ``psi_anchor`` is the wavefunction value at the trajectory anchor.
    """
    psi = reconstruct_wavefunction(traj).psi
    at = -1 if traj.direction is Side.LEFT else 0
    amp2 = abs(psi_anchor) ** 2 * np.abs(psi / psi[at]) ** 2
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


def _psi_ratios(slabs: np.ndarray, z: np.ndarray, e: float, c: float) -> np.ndarray:
    """psi(end) / psi(start) across each row of a linear slab array (rows
    (u_start, slope, dx)) at one energy, with c = 2m/hbar^2, each row
    walked on its own from zeta = z[row] at its start, all rows in one
    array pass.

    Each row's sub-slab maps of ``_arrays._linear_maps`` are applied
    undivided, (num, den) -> (kfp den + gp num, f den + gk num) from
    (z, 1), so den is the product of the sub-slabs' psi ratios.  A chunk
    of maps is taken in the order of each sub-slab's place within its
    row: one array step advances every row that has a sub-slab at that
    place.
    """
    count, maps = _linear_maps(slabs, np.array([e]), c)
    first = np.cumsum(count) - count
    num, den = z.astype(complex), np.ones(len(count), dtype=complex)
    k0 = 0
    with np.errstate(all="ignore"):
        for chunk in maps:
            k = np.arange(k0, k0 + len(chunk[0]))
            k0 += len(k)
            row = np.searchsorted(first, k, side="right") - 1
            place = k - first[row]
            order = np.argsort(place, kind="stable")
            row, place = row[order], place[order]
            kfp, gp, f, gk = (m[order, 0] for m in chunk)
            cuts = (np.flatnonzero(np.diff(place)) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(k)]):
                j = row[lo:hi]
                n, d = num[j], den[j]
                num[j] = kfp[lo:hi] * d + gp[lo:hi] * n
                den[j] = f[lo:hi] * d + gk[lo:hi] * n
    return den


def _bridge(traj: ImpedanceTrajectory) -> np.ndarray:
    """psi(xs[i + 1]) / psi(xs[i]) across each interval of a Riccati
    trajectory, from its own Z, in one array pass: the psi bridge that
    ``analytic._bridge`` replaced, kept as its oracle.

    Each interval is one step across the slab it lies on, found by the
    interval's midpoint in the slab list of the walk from xs[0] to
    xs[-1], a constant slab a row of slope 0, all taken by the Taylor
    sub-slab maps of ``_psi_ratios``.  Each walks from the end with the
    larger |Z|, anchored at the trajectory's zeta = (m/hbar) Z there.
    """
    c, w = _units(traj.params)
    xs, zs = traj.xs, traj.zs.astype(complex)
    zs.real *= w
    zs.imag *= w
    rows = np.array(_steps(traj.potential, float(xs[0]), float(xs[-1])), dtype=float)
    u0, slope, dx = rows.T if rows.shape[1] == 3 else (rows[:, 0], np.zeros(len(rows)), rows[:, 1])
    start = np.cumsum(np.concatenate(([xs[0]], dx[:-1])))
    j = np.searchsorted(start, 0.5 * (xs[:-1] + xs[1:]), side="right") - 1
    u0, slope, start = u0[j], slope[j], start[j]
    u_start, u_end = u0 + slope * (xs[:-1] - start), u0 + slope * (xs[1:] - start)
    dx = np.diff(xs)
    forward = np.abs(zs[:-1]) > np.abs(zs[1:])
    slabs = np.where(
        forward[:, None],
        np.stack([u_start, slope, dx], axis=1),
        np.stack([u_end, slope, -dx], axis=1),
    )
    den = _psi_ratios(slabs, np.where(forward, zs[:-1], zs[1:]), traj.energy, c)
    with np.errstate(all="ignore"):
        return np.where(forward, den, 1.0 / den)


def reference_read(pot, e, samples, grid, c, rightward=False):
    """``samples`` ((x, zeta) ascending) read at the points of ``grid``
    strictly inside them, each point walked alone: zeta of a sample it
    lies on, or the chain's walk (its own ``_steps``) from the end of its
    interval with the larger |zeta|, at a tie the one the walk reached
    first (the second, or the first for a ``rightward`` walk): the
    reference of ``analytic._read``."""
    xs, zs = [x for x, _ in samples], [z for _, z in samples]
    out = [samples[0]]
    for p in sorted(float(g) for g in grid if xs[0] < g < xs[-1]):
        i = bisect.bisect_right(xs, p) - 1
        if xs[i] == p:
            out.append((p, zs[i]))
            continue
        lower, upper = abs(zs[i]), abs(zs[i + 1])
        j = i if lower > upper or (rightward and lower == upper) else i + 1
        num, den, _ = _chain(_steps(pot, xs[j], p), e, zs[j], c)
        out.append((p, num / den))
    return out + [samples[-1]]


def reference_bridge(pot, e, xs, zs, c):
    """psi(xs[i + 1]) / psi(xs[i]) of each interval of monotone samples
    (lists), each walked alone: the chain's walk (its own ``_steps``) from
    the end with the larger |zeta| (the second at a tie) to the other,
    and where its evanescent phase passes _BRIDGE_PHASE from the other
    end too, the walk along which |psi| grows more kept (the first at a
    tie); infinite where the ratio's bottom is 0.  The reference of
    ``analytic._bridge``."""
    out = []
    for i in range(len(xs) - 1):
        ends = (i, i + 1) if abs(zs[i]) > abs(zs[i + 1]) else (i + 1, i)
        walks = [ends]
        if _phase(_steps(pot, xs[ends[0]], xs[ends[1]]), e, c) > _BRIDGE_PHASE:
            walks.append(ends[::-1])
        best = None
        for a, t in walks:
            _, den, r = _chain(_steps(pot, xs[a], xs[t]), e, zs[a], c)
            growth = abs(den) / abs(r) if r else math.inf
            if best is None or growth > best[0]:
                # psi(a) / psi(t) = r / den
                best = growth, (den, r) if a == i else (r, den)
        top, bottom = best[1]
        out.append(top / bottom if bottom else complex(math.inf))
    return out
