"""Reference answers for piecewise-constant potentials, independent of qwim.

Nothing here calls qwim's impedance path.  Every function propagates the
real (or, for scattering fields, complex) pair (psi, psi') slab by slab
with the closed-form constant-potential solution, so the only thing it
shares with qwim is the problem statement:

* ``count_below`` is the Sturm oscillation count: the number of zeros of
  the solution that decays into the left lead equals the number of bound
  states below E.  ``bound_energies`` bisects on that count, so every
  state is found, and a tunnel doublet that float arithmetic cannot split
  comes out as two equal energies.
* ``symmetric_resonances`` finds the full-transmission energies of a
  mirror-symmetric stack as the sign changes of a smooth real function:
  R = 0 exactly when the even and odd channels share their phase shift.
* ``field`` gives psi and psi' of the left-incidence scattering solution
  on any set of points, for checking impedance and wavefunction profiles.
* ``fd_levels`` counts finite-difference Hamiltonian eigenvalues, a
  second, coarser reference used only to cross-check the oscillation count.

Potentials are passed as plain data, ``(left_level, segments, right_level)``
with ``segments`` a sequence of ``(x_start, x_end, u)``, in units where
hbar and the mass are given explicitly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def _k2(e: float, u: float, hbar: float, mass: float) -> float:
    """Signed squared wavenumber 2m(E - U)/hbar^2."""
    return 2.0 * mass * (e - u) / (hbar * hbar)


def _advance(psi: float, dpsi: float, k2: float, length: float):
    """Carry a real solution across one constant slab.

    Returns (psi, dpsi, zeros), zeros counted on the half-open slab
    (x_start, x_end].  The pair is rescaled freely: only its direction
    matters for zero counting.
    """
    if k2 > 0.0:
        k = math.sqrt(k2)
        theta0 = math.atan2(psi, dpsi / k)
        theta1 = theta0 + k * length
        zeros = math.floor(theta1 / math.pi) - math.floor(theta0 / math.pi)
        return math.sin(theta1), math.cos(theta1) * k, zeros
    if k2 < 0.0:
        kap = math.sqrt(-k2)
        th = math.tanh(kap * length)
        zeros = 0
        if dpsi != 0.0:
            t_star = -psi * kap / dpsi
            zeros = int(0.0 < t_star <= th)
        # cosh/sinh divided by cosh(kap * length) to stay finite
        p1 = psi + dpsi / kap * th
        d1 = psi * kap * th + dpsi
    else:
        zeros = int(dpsi != 0.0 and 0.0 < -psi / dpsi <= length)
        p1, d1 = psi + dpsi * length, dpsi
    scale = max(abs(p1), abs(d1)) or 1.0
    return p1 / scale, d1 / scale, zeros


def count_below(pot, e: float, hbar: float = 1.0, mass: float = 1.0) -> int:
    """Number of bound states strictly below ``e`` (at most the lower lead).

    At ``e`` equal to the lower lead the count is that of the threshold
    solution, which is the number of bound states of the whole well.
    """
    left, segments, right = pot
    if e > min(left, right):
        raise ValueError("count_below needs e at or below both leads")
    kap1 = math.sqrt(max(-_k2(e, left, hbar, mass), 0.0))
    psi, dpsi = 1.0, kap1  # e^{kap1 (x - a)}: the tail decaying to the left
    zeros = 0
    for x0, x1, u in segments:
        psi, dpsi, n = _advance(psi, dpsi, _k2(e, u, hbar, mass), x1 - x0)
        zeros += n
    kap2 = math.sqrt(max(-_k2(e, right, hbar, mass), 0.0))
    # zero of psi cosh(kap2 s) + dpsi/kap2 sinh(kap2 s) on s > 0
    if dpsi != 0.0:
        if kap2 > 0.0:
            zeros += int(0.0 < -psi * kap2 / dpsi < 1.0)
        else:
            zeros += int(psi * dpsi < 0.0)
    return zeros


def bound_energies(pot, hbar: float = 1.0, mass: float = 1.0) -> list[float]:
    """Every bound energy, ascending, each bisected to float resolution."""
    left, segments, right = pot
    ceil = min(left, right)
    floor = min(u for _, _, u in segments)
    if not floor < ceil:
        return []
    total = count_below(pot, ceil, hbar, mass)
    out = []
    lo_known = floor
    for i in range(1, total + 1):
        lo, hi = lo_known, ceil
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if count_below(pot, mid, hbar, mass) >= i:
                hi = mid
            else:
                lo = mid
        out.append(hi)
        lo_known = lo
    return out


def _is_symmetric(pot, rel: float = 1e-12) -> bool:
    left, segments, right = pot
    if left != right:
        return False
    a, b = segments[0][0], segments[-1][1]
    slack = rel * max(1.0, abs(a), abs(b))
    for (x0, x1, u), (y0, y1, w) in zip(segments, reversed(segments)):
        if u != w or abs((x0 - a) - (b - y1)) > slack or abs((x1 - a) - (b - y0)) > slack:
            return False
    return True


def _channel_overlap(pot, es: np.ndarray, hbar: float, mass: float) -> np.ndarray:
    """G(E) = ue(b) uo(b) + ue'(b) uo'(b) / k^2 for a symmetric stack.

    ue / uo are the even / odd solutions about the centre c.  Outside the
    stack they are cos(k s + de) and sin(k s + do) up to scale, and the
    reflection amplitude vanishes exactly when de = do (mod pi), which
    is G(E) = 0.
    """
    left, segments, _ = pot
    a, b = segments[0][0], segments[-1][1]
    c = 0.5 * (a + b)
    ue, due = np.ones_like(es), np.zeros_like(es)
    uo, duo = np.zeros_like(es), np.ones_like(es)
    for x0, x1, u in segments:
        if x1 <= c:
            continue
        length = x1 - max(x0, c)
        k2 = 2.0 * mass * (es - u) / (hbar * hbar)
        k = np.sqrt(np.abs(k2))
        kl = k * length
        prop = k2 > 0.0
        cs = np.where(prop, np.cos(kl), np.cosh(kl))
        # sin(kl)/k resp. sinh(kl)/k, and k sin resp. -k sinh
        s_over_k = np.where(k > 0.0, np.where(prop, np.sin(kl), np.sinh(kl)) / np.where(k > 0.0, k, 1.0), length)
        k_s = np.where(prop, -k * np.sin(kl), k * np.sinh(kl))
        ue, due = ue * cs + due * s_over_k, ue * k_s + due * cs
        uo, duo = uo * cs + duo * s_over_k, uo * k_s + duo * cs
    k2_lead = 2.0 * mass * (es - left) / (hbar * hbar)
    return ue * uo + due * duo / k2_lead


def symmetric_resonances(pot, e_min: float, e_max: float, hbar: float = 1.0,
                         mass: float = 1.0, points: int = 20000) -> list[float]:
    """Full-transmission energies in (e_min, e_max] of a mirror-symmetric stack."""
    from scipy.optimize import brentq

    if not _is_symmetric(pot):
        raise ValueError("resonance reference needs a mirror-symmetric stack with equal leads")
    if not e_min > pot[0]:
        raise ValueError("resonance window must lie above the leads")
    es = np.linspace(e_min, e_max, points + 1)
    g = _channel_overlap(pot, es, hbar, mass)
    out = []
    for i in np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)[0]:
        f = lambda e: float(_channel_overlap(pot, np.array([e]), hbar, mass)[0])
        out.append(brentq(f, es[i], es[i + 1], xtol=1e-14, rtol=8.9e-16))
    out.extend(float(e) for e in es[1:][g[1:] == 0.0])
    return sorted(out)


def field(pot, e: float, xs, hbar: float = 1.0, mass: float = 1.0):
    """psi and psi' of the left-incidence scattering solution at ``xs``.

    Normalised to a unit incident wave exp(i k1 x) in the left lead, the
    convention of qwim's wavefunction profiles.  ``xs`` must lie in
    [a, b].  Returns (psi, dpsi, r) with r referenced at a.
    """
    left, segments, right = pot
    xs = np.asarray(xs, dtype=float)
    k_right = cmath.sqrt(_k2(e, right, hbar, mass))  # i kappa when evanescent
    psi_r, dpsi_r = 1.0 + 0j, 1j * k_right  # outgoing / decaying at b
    psi = np.empty(len(xs), dtype=complex)
    dpsi = np.empty(len(xs), dtype=complex)
    for x0, x1, u in reversed(segments):
        k = cmath.sqrt(_k2(e, u, hbar, mass))
        inside = (xs >= x0) & (xs <= x1)
        s = xs[inside] - x1
        if k == 0:
            psi[inside] = psi_r + dpsi_r * s
            dpsi[inside] = dpsi_r
            psi_r = psi_r - dpsi_r * (x1 - x0)
            continue
        psi[inside] = psi_r * np.cos(k * s) + dpsi_r / k * np.sin(k * s)
        dpsi[inside] = -psi_r * k * np.sin(k * s) + dpsi_r * np.cos(k * s)
        s0 = x0 - x1
        psi_r, dpsi_r = (psi_r * cmath.cos(k * s0) + dpsi_r / k * cmath.sin(k * s0),
                         -psi_r * k * cmath.sin(k * s0) + dpsi_r * cmath.cos(k * s0))
    k1 = math.sqrt(_k2(e, left, hbar, mass))
    a = segments[0][0]
    incident = 0.5 * (psi_r + dpsi_r / (1j * k1))
    reflected = 0.5 * (psi_r - dpsi_r / (1j * k1))
    scale = cmath.exp(1j * k1 * a) / incident
    return psi * scale, dpsi * scale, reflected / incident


def fd_levels(pot, h: float, pad: float, hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Finite-difference eigenvalues below the lower lead.

    Three-point Laplacian on a uniform grid over [a - pad, b + pad] with
    Dirichlet ends.  Coarser than the oscillation count; kept as its
    independent cross-check.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    left, segments, right = pot
    a, b = segments[0][0], segments[-1][1]
    xs = np.arange(a - pad + h, b + pad, h)
    u = np.full(len(xs), float(right))
    u[xs <= a] = left
    for x0, x1, val in segments:
        u[(xs > x0) & (xs <= x1)] = val
    t = hbar * hbar / (2.0 * mass * h * h)
    diag = 2.0 * t + u
    off = np.full(len(xs) - 1, -t)
    floor = min(val for _, _, val in segments)
    return eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(floor - 1.0, min(left, right)))
