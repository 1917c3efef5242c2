"""Bound-state and resonance search via impedance matching.

Both spectra come from the same matching condition: the left-anchored
trajectory Z+ and the right-anchored trajectory Z- describe one and the
same solution exactly when

    D(E) = Z+(x_probe; E) - Z-(x_probe; E) = 0.

Bound mode anchors the decaying tails (Z(a) = -z1, Z(b) = +z2, both
purely imaginary); D(E) is then purely imaginary for real potentials and
its sign changes bracket the eigenvalues.  Scattering (resonance) mode
anchors the incident-matched value Z(a) = z1 and the transmitted wave
Z(b) = z2; D vanishes only at full transmission, so resonances are
located as minima of |D|^2.

Roots and minima are probe-point independent, which the tests exploit.
Piecewise potentials evaluate D by exact layer chaining; sampled
potentials (or ``cfg.force_numeric``) integrate the Riccati equation.
On a piecewise potential the scan grid that brackets roots and minima
is chained in one array pass per slab (``_mismatch_many``); the
refinement of each bracket evaluates D one energy at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._optimize import brentq, load_scipy_optimize, minimize_scalar
from .analytic import _chain, _chain_many, _region_constants_many
from .errors import (
    BracketingExhaustedError,
    EmptyWindowError,
    EvanescentIncidenceError,
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
# Residual bound |D(E_root)| accepted for a refined bound-state root.
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


def impedance_mismatch(
    pot: Potential,
    e: float,
    probe_x: float,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> complex:
    """D(E) = Z+(probe) - Z-(probe) with mode-appropriate anchors.

    Bound mode applies automatically for e below both leads; otherwise
    the scattering (left-incidence) anchors are used.
    """
    require_finite("energy and probe", e, probe_x)
    a, b = pot.a, pot.b
    if not a < probe_x < b:
        raise ValueError(f"probe {probe_x} outside the open interval ({a}, {b})")
    z_a = left_anchor(pot, e, params)
    z_b = right_anchor(pot, e, params)
    if isinstance(pot, PiecewisePotential) and not cfg.force_numeric:
        zp = _chain(pot, e, z_a, probe_x, True, params)[0]
        zm = _chain(pot, e, z_b, probe_x, False, params)[0]
    else:
        zp = complex(
            integrate_impedance(pot, e, a, z_a, probe_x, cfg, params).zs[-1]
        )
        zm = complex(
            integrate_impedance(pot, e, b, z_b, probe_x, cfg, params).zs[0]
        )
    return zp - zm


def _mismatch_many(
    pot: Potential,
    es,
    probe_x: float,
    cfg: IntegrationConfig,
    params: ModelParams,
) -> list[complex | None]:
    """``impedance_mismatch`` at each energy of ``es``; None where it
    raises a SolverError.

    A piecewise potential (without ``force_numeric``) is chained from
    both ends to the probe in one array pass per slab.  Every energy
    where either chain would raise, a lead is degenerate or D is not
    finite is computed again by ``impedance_mismatch`` itself, so the
    energies dropped are exactly those a point-by-point scan drops.
    """
    out: list[complex | None] = [None] * len(es)
    redo = range(len(es))
    # a probe that is not a finite interior point takes the scalar loop,
    # which raises for it as impedance_mismatch does
    if (
        isinstance(pot, PiecewisePotential)
        and not cfg.force_numeric
        and pot.a < probe_x < pot.b
    ):
        e = np.array(es, dtype=float)
        z1, _, degenerate1 = _region_constants_many(e, pot.left_level, params)
        z2, _, degenerate2 = _region_constants_many(e, pot.right_level, params)
        z_a = np.where(e < pot.left_level, -z1, z1)
        zp, _, ok_p = _chain_many(pot, e, z_a, probe_x, True, params)
        zm, _, ok_m = _chain_many(pot, e, z2, probe_x, False, params)
        with np.errstate(all="ignore"):
            d = zp - zm
            ok = ok_p & ok_m & ~degenerate1 & ~degenerate2 & np.isfinite(d)
        out = d.tolist()
        redo = np.flatnonzero(~ok).tolist()
    for i in redo:
        try:
            out[i] = impedance_mismatch(pot, es[i], probe_x, cfg, params)
        except SolverError:
            out[i] = None
    return out


def _default_probe(pot: Potential) -> float:
    a, b = pot.a, pot.b
    x0 = 0.5 * (a + b)
    span = b - a
    # keep off exact joins so a node sitting on one cannot pin the probe
    joins = pot.interfaces()
    if any(abs(x0 - j) < 1e-9 * span for j in joins):
        x0 += 1e-3 * span
    return x0


def _probe_candidates(pot: Potential, probe_x: float | None) -> list[float]:
    """Matching points: the requested (or default) probe first, then two
    alternates at incommensurate fractions of the span.  Alternates matter
    because an eigenstate with a node at the primary probe turns its D-root
    into a D-pole there; the eigenvalue is then confirmed at a shifted x."""
    a, b = pot.a, pot.b
    span = b - a
    first = probe_x if probe_x is not None else _default_probe(pot)
    probes = [first, a + 0.382 * span, a + 0.703 * span]
    out: list[float] = []
    for p in probes:
        if all(abs(p - q) > 1e-9 * span for q in out):
            out.append(p)
    return out


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

    Scans Im D(E) on a uniform grid (plus a geometric refinement toward
    the window ceiling, where arbitrarily shallow states accumulate),
    evaluated in one array pass per slab on a piecewise potential.  It
    brackets sign changes, refines each by Brent's method, one scalar
    mismatch per iterate, and keeps roots whose mismatch residual is
    below ROOT_TOL.  Sign flips caused by poles of D rather than roots
    fail the residual test and are dropped.
    For a recognizable single square well the count is cross-checked
    against the transcendental branch count.
    """
    load_scipy_optimize()
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

    grid = list(np.linspace(floor, ceil, scan_points + 2)[1:-1])
    # geometric approach to the ceiling catches near-threshold states
    grid.extend(ceil - width * 10.0 ** (-j) for j in range(3, 15))
    grid = sorted(set(grid))

    probes = _probe_candidates(pot, probe_x)
    probe = probes[0]
    scan = [
        (e, d.imag)
        for e, d in zip(grid, _mismatch_many(pot, grid, probe, cfg, params))
        if d is not None
    ]

    roots: list[float] = []
    residuals: list[float] = []
    for (e0, d0), (e1, d1) in zip(scan, scan[1:]):
        if d0 == 0.0:
            candidates = [e0]
        elif d0 * d1 < 0.0:
            candidates = []
            for p in probes:
                try:
                    f = lambda e, _p=p: impedance_mismatch(pot, e, _p, cfg, params).imag
                    candidates = [brentq(f, e0, e1, xtol=1e-14, rtol=8.9e-16)]
                    break
                except (TransformPoleError, SolverError, ValueError):
                    continue
        else:
            continue
        threshold = ROOT_TOL * max(1.0, math.sqrt(2.0 * width / params.mass))
        for root in candidates:
            # a bracketed sign flip is either a root of D or a pole of D;
            # genuine eigenvalues have D ~ 0 at every probe point, so any
            # probe reporting a small mismatch confirms the energy
            res = None
            for p in probes:
                try:
                    val = abs(impedance_mismatch(pot, root, p, cfg, params))
                except SolverError:
                    continue
                if res is None or val < res:
                    res = val
                if res <= threshold:
                    break
            if res is not None and res <= threshold:
                roots.append(root)
                residuals.append(res)

    # deduplicate refined roots that met through adjacent brackets
    dedup: list[float] = []
    dedup_res: list[float] = []
    for root, res in sorted(zip(roots, residuals)):
        if not dedup or abs(root - dedup[-1]) > 1e-8 * width:
            dedup.append(root)
            dedup_res.append(res)

    well = _single_square_well(pot)
    if well is not None:
        from .xcheck import square_well_state_count

        expected = square_well_state_count(*well, params)
        if len(dedup) != expected:
            raise BracketingExhaustedError(
                f"found {len(dedup)} states, well-count oracle expects {expected}",
                energies=[e for e, _ in scan],
                mismatches=[d for _, d in scan],
            )
    return SpectrumResult(
        kind=SpectrumKind.BOUND,
        energies=dedup,
        residuals=dedup_res,
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

    Scans |D(E)| (one array pass per slab on a piecewise potential),
    refines each strict local minimum by bounded minimization of |D|^2,
    one scalar mismatch per iterate, and accepts energies where
    |D| < RESONANCE_TOL and, as an independent cross-check, R < 1e-8.
    A window in which R vanishes identically (no structure at all) is
    flagged transparent and returns no discrete energies.
    """
    load_scipy_optimize()
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
        for e, d in zip(grid, _mismatch_many(work, grid, probe, cfg, params))
        if d is not None
    ]

    energies: list[float] = []
    residuals: list[float] = []
    for i in range(1, len(scan) - 1):
        e_m, d_m = scan[i]
        if not (d_m < scan[i - 1][1] and d_m < scan[i + 1][1]):
            continue
        lo, hi = scan[i - 1][0], scan[i + 1][0]
        opt = minimize_scalar(
            lambda e: (mismatch(e) or np.inf) ** 2,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        e_star = float(opt.x)
        d_star = mismatch(e_star)
        # both components of D vanish together at a true resonance, so a
        # bracketed root on either one beats the |D|^2 minimizer's accuracy
        d_lo, d_hi = mismatch_c(lo), mismatch_c(hi)
        if d_lo is not None and d_hi is not None:
            for comp in (lambda d: d.imag, lambda d: d.real):
                if comp(d_lo) * comp(d_hi) < 0.0:
                    try:
                        e_root = brentq(
                            lambda e: comp(mismatch_c(e)),
                            lo, hi, xtol=1e-14, rtol=8.9e-16,
                        )
                    except (SolverError, TypeError, ValueError):
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
