"""Bound-state and resonance search via impedance matching.

Both spectra come from the same matching condition: the left-anchored
trajectory Z+ and the right-anchored trajectory Z- describe one and the
same solution exactly when

    D(E) = Z+(x_probe; E) - Z-(x_probe; E) = 0.

Bound mode anchors the decaying tails (Z(a) = -z1, Z(b) = +z2, both
purely imaginary).  D has a pole wherever either solution has a node at
the probe, so bound states are matched instead on W, the Wronskian
psi+ psi-' - psi- psi+' normalised to [-1, 1]: W = D psi+ psi- up to a
positive factor, it has no poles, does not depend on the probe, and its
sign changes bracket the eigenvalues.  Scattering (resonance) mode
anchors the incident-matched value Z(a) = z1 and the transmitted wave
Z(b) = z2; psi is complex there, D has no poles at real E and vanishes
only at full transmission, so resonances are located as minima of
|D|^2.

Piecewise potentials chain the exact layer transforms, which also give
the psi ratios W needs; sampled potentials (or ``cfg.force_numeric``)
integrate the Riccati equation.  On a piecewise potential the scan grid
that brackets roots and minima is chained in one array pass per slab
(``_scan``); the refinement of each bracket works one energy at a time,
with qwim's own ports of Brent's root finder and bounded minimiser
(``_optimize``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from ._optimize import brentq, minimize_scalar
from .analytic import _chain, _chain_many, _region_constants_many
from .errors import (
    BracketingExhaustedError,
    EmptyWindowError,
    EvanescentIncidenceError,
    NonFiniteStateError,
    SolverError,
    TransformPoleError,
)
from .model import ModelParams, PiecewisePotential, Potential, Side, require_finite
from .riccati import (
    IntegrationConfig,
    integrate_impedance,
    left_anchor,
    right_anchor,
)

# |D| must fall below this at a refined minimum to count as a resonance.
RESONANCE_TOL = 1e-6
# |W| at a refined bound-state root, relative to the larger |W| at the
# ends of its bracket, must not exceed this.
ROOT_TOL = 1e-10
# Default number of scan-grid points across a search window.
SCAN_POINTS = 400


class SpectrumKind(Enum):
    BOUND = "bound"
    RESONANCE = "resonance"


@dataclass(frozen=True)
class SpectrumResult:
    kind: SpectrumKind
    energies: list[float]
    residuals: list[float]
    probe_x: float
    transparent: bool = False


def _ends(pot, e, probe_x, cfg, params) -> tuple[tuple, tuple]:
    """(num, den, r) of the left- and of the right-anchored solution at
    the probe: Z = num / den and psi(anchor) / psi(probe) = r / den.

    Bound mode applies automatically for e below both leads; otherwise
    the scattering (left-incidence) anchors are used.  The Riccati engine
    carries no psi ratio and gives (Z, 1, 1).
    """
    require_finite("energy and probe", e, probe_x)
    a, b = pot.a, pot.b
    if not a < probe_x < b:
        raise ValueError(f"probe {probe_x} outside the open interval ({a}, {b})")
    z_a = left_anchor(pot, e, params)
    z_b = right_anchor(pot, e, params)
    if isinstance(pot, PiecewisePotential) and not cfg.force_numeric:
        return (
            _chain(pot, e, z_a, probe_x, True, params),
            _chain(pot, e, z_b, probe_x, False, params),
        )
    zp = complex(integrate_impedance(pot, e, a, z_a, probe_x, cfg, params).zs[-1])
    zm = complex(integrate_impedance(pot, e, b, z_b, probe_x, cfg, params).zs[0])
    return (zp, 1.0, 1.0), (zm, 1.0, 1.0)


def _mismatch(plus, minus):
    """D = Z+ - Z- from the two ends (scalars or arrays); not finite where
    a solution has a psi-node at the probe."""
    (n1, d1, _), (n2, d2, _) = plus, minus
    with np.errstate(all="ignore"):
        return np.divide(n1, d1) - np.divide(n2, d2)


def _wronskian(plus, minus, s):
    """The bound-state matching function W from the two ends (scalars or
    arrays): the sine of the angle between the two solutions'
    (Z psi / s, psi) vectors, signed by psi at the probe.

    W is proportional to the Wronskian psi+ psi-' - psi- psi+', so it
    does not depend on the probe, has no poles, lies in [-1, 1] and
    vanishes exactly at the eigenvalues.  With the (Z, 1, 1) ends of the
    Riccati engine the sign of psi is unknown: W then jumps where one
    solution alone has a node at the probe.
    """
    (n1, d1, r1), (n2, d2, r2) = plus, minus
    with np.errstate(all="ignore"):
        # only the phases of the psi ratios count; each is normalised
        # alone so that their product cannot underflow
        phase = np.conj(r1) / np.abs(r1) * (np.conj(r2) / np.abs(r2))
        return s * np.imag((n2 * d1 - n1 * d2) * phase) / (
            np.hypot(np.abs(n1), s * np.abs(d1)) * np.hypot(np.abs(n2), s * np.abs(d2))
        )


def impedance_mismatch(
    pot: Potential,
    e: float,
    probe_x: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> complex:
    """D(E) = Z+(probe) - Z-(probe) with mode-appropriate anchors.

    Bound mode applies automatically for e below both leads; otherwise
    the scattering (left-incidence) anchors are used.  Raises
    TransformPoleError where a solution has a psi-node exactly at the
    probe: D has a pole there.
    """
    d = complex(_mismatch(*_ends(pot, e, probe_x, cfg, params)))
    if not cmath.isfinite(d):
        raise TransformPoleError(f"psi-node at the probe {probe_x}: D has a pole")
    return d


def _scan(pot, es, probe_x, cfg, params, match) -> list:
    """``match(plus, minus)`` of the two solutions' ends at each energy
    of ``es``; None where the ends raise a SolverError or the value is
    not finite.

    A piecewise potential (without ``force_numeric``) is chained from
    both ends to the probe in one array pass per slab.  Every energy
    where either chain flags, a lead is degenerate or the value is not
    finite is computed again from the scalar ends, so the energies
    dropped are exactly those a point-by-point scan drops.
    """
    out: list = [None] * len(es)
    redo = range(len(es))
    # a probe that is not a finite interior point takes the scalar loop,
    # which raises for it as _ends does
    if (
        isinstance(pot, PiecewisePotential)
        and not cfg.force_numeric
        and pot.a < probe_x < pot.b
    ):
        e = np.array(es, dtype=float)
        z1, _, degenerate1 = _region_constants_many(e, pot.left_level, params)
        z2, _, degenerate2 = _region_constants_many(e, pot.right_level, params)
        z_a = np.where(e < pot.left_level, -z1, z1)
        *plus, ok_p = _chain_many(pot, e, z_a, probe_x, True, params)
        *minus, ok_m = _chain_many(pot, e, z2, probe_x, False, params)
        v = match(plus, minus)
        ok = ok_p & ok_m & ~degenerate1 & ~degenerate2 & np.isfinite(v)
        out = v.tolist()
        redo = np.flatnonzero(~ok).tolist()
    for i in redo:
        try:
            v = match(*_ends(pot, es[i], probe_x, cfg, params))
        except SolverError:
            v = math.nan
        out[i] = v if np.isfinite(v) else None
    return out


def _default_probe(pot: Potential) -> float:
    return 0.5 * (pot.a + pot.b)


def _single_square_well(pot: Potential):
    """(depth, width) when the potential is one square well with equal
    leads; None otherwise.  Used for the exact state-count cross-check."""
    if not isinstance(pot, PiecewisePotential) or len(pot.segments) != 1:
        return None
    if pot.left_level != pot.right_level:
        return None
    seg = pot.segments[0]
    if seg.u >= pot.left_level:
        return None
    return pot.left_level - seg.u, seg.length


def find_bound_states(
    pot: Potential,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    scan_points: int = SCAN_POINTS,
    probe_x: float | None = None,
) -> SpectrumResult:
    """All bound energies in (min interior U, min lead level).

    Matches the two decaying solutions at one probe (default: the
    midpoint) on W, the normalised Wronskian of ``_wronskian``.  Scans W
    on a uniform grid (plus a geometric refinement toward the window
    ceiling, where arbitrarily shallow states accumulate), in one array
    pass per slab on a piecewise potential, and refines each sign change
    by Brent's method, one scalar W per iterate.  The Riccati engine's
    W is unsigned and also changes sign at jumps, where |W| stays near
    one; there a root is kept only when |W(root)| is at most ROOT_TOL
    times the larger |W| at its bracket's ends.  Residuals are |W(root)|.
    For a recognizable single square well the count is cross-checked
    against the transcendental branch count.
    """
    if probe_x is not None:
        require_finite("probe", probe_x)
    if isinstance(pot, PiecewisePotential):
        if not pot.segments:
            raise EmptyWindowError("a bare step supports no bound states")
        floor = min(s.u for s in pot.segments)
    else:
        floor = min(pot.us)
    ceil = min(pot.left_level, pot.right_level)
    if not floor < ceil:
        raise EmptyWindowError(
            f"no interior region below the leads (floor {floor} >= ceiling {ceil})"
        )
    width = ceil - floor

    grid = np.linspace(floor, ceil, scan_points + 2)[1:-1].tolist()
    # geometric approach to the ceiling catches near-threshold states
    grid.extend(ceil - width * 10.0 ** (-j) for j in range(3, 15))
    grid = sorted(set(grid))

    probe = probe_x if probe_x is not None else _default_probe(pot)
    # velocity scale of the window: Z / s is of order one
    s = math.sqrt(2.0 * width / params.mass)
    if not math.isfinite(s):
        raise NonFiniteStateError(f"bound window ({floor}, {ceil}) overflows")

    match = partial(_wronskian, s=s)

    def w_at(e: float) -> float:
        return float(match(*_ends(pot, e, probe, cfg, params)))

    scan = [
        (e, w)
        for e, w in zip(grid, _scan(pot, grid, probe, cfg, params, match))
        if w is not None
    ]

    # the chain's W is signed and continuous, so every sign change holds
    # a root, however steep; the Riccati engine's unsigned W also changes
    # sign at its jumps, where |W| stays near one
    signed = isinstance(pot, PiecewisePotential) and not cfg.force_numeric
    roots: list[float] = []
    residuals: list[float] = []
    for (e0, w0), (e1, w1) in zip(scan, scan[1:]):
        if w0 == 0.0:
            root = e0
        elif w0 * w1 < 0.0:
            try:
                # to float resolution, where the root test below applies
                root = brentq(w_at, e0, e1, xtol=1e-300, rtol=8.9e-16)
            except (SolverError, ValueError):
                continue
        else:
            continue
        res = abs(w_at(root))
        if signed or res <= ROOT_TOL * max(abs(w0), abs(w1)):
            roots.append(root)
            residuals.append(res)

    well = _single_square_well(pot)
    if well is not None:
        from .xcheck import square_well_state_count

        expected = square_well_state_count(*well, params)
        if len(roots) != expected:
            raise BracketingExhaustedError(
                f"found {len(roots)} states, well-count oracle expects {expected}",
                energies=[e for e, _ in scan],
                mismatches=[w for _, w in scan],
            )
    return SpectrumResult(
        kind=SpectrumKind.BOUND,
        energies=roots,
        residuals=residuals,
        probe_x=probe,
    )


def find_resonances(
    pot: Potential,
    e_min: float,
    e_max: float,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    scan_points: int = SCAN_POINTS,
    probe_x: float | None = None,
) -> SpectrumResult:
    """Full-transmission energies inside (e_min, e_max].

    Scans |D(E)| (one array pass per slab on a piecewise potential) and
    refines each strict local minimum by Brent's bounded minimization of
    |D|^2, then by Brent's root finder on each component of D that
    changes sign across the bracket, one scalar mismatch per iterate.  An
    energy where D cannot be evaluated counts as |D| = inf to the
    minimiser and drops that component's root.  Accepts energies where
    |D| < RESONANCE_TOL and, as an independent cross-check, R < 1e-8.
    A window in which R vanishes identically (no structure at all) is
    flagged transparent and returns no discrete energies.
    """
    from .scattering import solve_scattering

    require_finite("window bounds", e_min, e_max)
    if probe_x is not None:
        require_finite("probe", probe_x)
    if not e_min < e_max:
        raise ValueError("need e_min < e_max")
    work = pot.mirrored() if side is Side.RIGHT else pot
    if e_min <= work.left_level:
        raise EvanescentIncidenceError(
            f"window starts at {e_min}, at or below incidence lead"
        )
    probe = probe_x if probe_x is not None else _default_probe(work)

    def mismatch_c(e: float):
        try:
            return impedance_mismatch(work, e, probe, cfg, params)
        except SolverError:
            return None

    def mismatch(e: float):
        d = mismatch_c(e)
        return None if d is None else abs(d)

    def squared(e: float) -> float:
        d = mismatch(e)
        return math.inf if d is None else d ** 2

    def component(comp, e: float) -> float:
        # a failed evaluation is NaN, on which brentq gives up
        d = mismatch_c(e)
        return math.nan if d is None else comp(d)

    def big_r_at(e: float) -> float:
        try:
            return solve_scattering(work, e, Side.LEFT, cfg, params).big_r
        except SolverError:
            return 1.0  # degenerate or failed probe: no transparency evidence

    probes_r = [
        big_r_at(e)
        for e in (e_min + 1e-9 * (e_max - e_min), 0.5 * (e_min + e_max), e_max)
    ]
    if all(r < 1e-12 for r in probes_r):
        return SpectrumResult(
            kind=SpectrumKind.RESONANCE,
            energies=[],
            residuals=[],
            probe_x=probe,
            transparent=True,
        )

    grid = np.linspace(e_min, e_max, scan_points + 1)[1:]
    scan = [
        (e, abs(d))
        for e, d in zip(grid, _scan(work, grid, probe, cfg, params, _mismatch))
        if d is not None
    ]

    energies: list[float] = []
    residuals: list[float] = []
    for i in range(1, len(scan) - 1):
        e_m, d_m = scan[i]
        if not (d_m < scan[i - 1][1] and d_m < scan[i + 1][1]):
            continue
        lo, hi = scan[i - 1][0], scan[i + 1][0]
        e_star = minimize_scalar(squared, lo, hi, xatol=1e-12)
        d_star = mismatch(e_star)
        # both components of D vanish together at a true resonance, so a
        # bracketed root on either one beats the |D|^2 minimizer's accuracy
        d_lo, d_hi = mismatch_c(lo), mismatch_c(hi)
        if d_lo is not None and d_hi is not None:
            for comp in (lambda d: d.imag, lambda d: d.real):
                if comp(d_lo) * comp(d_hi) < 0.0:
                    try:
                        e_root = brentq(
                            partial(component, comp),
                            lo, hi, xtol=1e-14, rtol=8.9e-16,
                        )
                    except (SolverError, ValueError):
                        continue
                    d_root = mismatch(e_root)
                    if d_root is not None and (d_star is None or d_root < d_star):
                        e_star, d_star = float(e_root), d_root
        if d_star is None or d_star >= RESONANCE_TOL:
            continue
        if big_r_at(e_star) >= 1e-8:
            continue
        if energies and abs(e_star - energies[-1]) < 1e-8 * (e_max - e_min):
            continue
        energies.append(e_star)
        residuals.append(d_star)
    return SpectrumResult(
        kind=SpectrumKind.RESONANCE,
        energies=energies,
        residuals=residuals,
        probe_x=probe,
    )
