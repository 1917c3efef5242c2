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

Both kinds of potential chain exact slab maps (constant slabs, or the
linear sub-slabs of a sampled potential), which also give the psi
ratios that sign W; with ``cfg.force_numeric`` the Riccati equation is
integrated instead, and W carries no sign.  A search sets up its
``_Ends`` once: without ``force_numeric``, the slab list from each end
to the probe and the two lead levels.  The scan grid that brackets
roots and minima is chained along those lists in one array pass per
slab (``_scan``).  The
refinement of each bracket, with qwim's own ports of Brent's root finder
and bounded minimiser (``_optimize``), walks the same lists one scalar
energy at a time in plain complex arithmetic, and evaluates no energy
twice: the value at a returned root or minimum is the one the optimiser
computed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial

import numpy as np

from ._optimize import brentq, minimize_scalar
from ._arrays import _chain_many, _region_constants_many
from .analytic import _chain, _constants, _steps
from .errors import (
    BracketingExhaustedError,
    EmptyWindowError,
    EvanescentIncidenceError,
    NonFiniteStateError,
    SolverError,
    TransformPoleError,
)
from .model import (
    IntegrationConfig,
    ModelParams,
    PiecewisePotential,
    Potential,
    Side,
    require_finite,
)
from .riccati import integrate_impedance, left_anchor, right_anchor

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


class _Ends:
    """The left- and the right-anchored solution at one probe, set up
    once for a whole search.

    Called with an energy, it gives both solutions' (num, den, r) at the
    probe: Z = num / den and psi(anchor) / psi(probe) = r / den.  Bound
    mode applies automatically for e below both leads; otherwise the
    scattering (left-incidence) anchors are used.  Without
    ``force_numeric`` the slab lists from each end to the probe are built
    here, and every energy, scalar or array (``many``), is chained along
    them.  The Riccati engine carries no psi ratio and gives (Z, 1, 1);
    ``slabs`` is None then.
    """

    def __init__(self, pot, probe_x, cfg, params):
        if not pot.a < probe_x < pot.b:
            raise ValueError(f"probe {probe_x} outside the open interval ({pot.a}, {pot.b})")
        self.pot, self.probe_x, self.cfg, self.params = pot, probe_x, cfg, params
        self.levels = pot.left_level, pot.right_level
        self.slabs = None
        if not cfg.force_numeric:
            self.slabs = _steps(pot, probe_x, True), _steps(pot, probe_x, False)

    def __call__(self, e):
        pot, params = self.pot, self.params
        if self.slabs is None:
            z_a = left_anchor(pot, e, params)
            z_b = right_anchor(pot, e, params)
            zp = integrate_impedance(pot, e, pot.a, z_a, self.probe_x, self.cfg, params).zs[-1]
            zm = integrate_impedance(pot, e, pot.b, z_b, self.probe_x, self.cfg, params).zs[0]
            return (complex(zp), 1.0, 1.0), (complex(zm), 1.0, 1.0)
        (left, right), (u1, u2) = self.slabs, self.levels
        # the anchors of left_anchor and right_anchor
        z1 = _constants(e, u1, params)[0]
        z2 = _constants(e, u2, params)[0]
        return (
            _chain(left, e, -z1 if e < u1 else z1, params),
            _chain(right, e, z2, params),
        )

    def many(self, es: np.ndarray):
        """The ends over an energy array along the slab lists: (plus,
        minus, ok), with ``ok`` False wherever the scalar call raises."""
        (left, right), (u1, u2) = self.slabs, self.levels
        z1, _, degenerate1 = _region_constants_many(es, u1, self.params)
        z2, _, degenerate2 = _region_constants_many(es, u2, self.params)
        *plus, ok_p = _chain_many(left, es, np.where(es < u1, -z1, z1), self.params)
        *minus, ok_m = _chain_many(right, es, z2, self.params)
        return plus, minus, ok_p & ok_m & ~degenerate1 & ~degenerate2


def _mismatch(plus, minus):
    """D = Z+ - Z- from the two ends (scalars or arrays); not finite where
    a solution has a psi-node at the probe (NaN for a scalar zero
    divisor)."""
    (n1, d1, _), (n2, d2, _) = plus, minus
    try:
        return n1 / d1 - n2 / d2
    except ZeroDivisionError:
        return math.nan


def _wronskian(plus, minus, s):
    """The bound-state matching function W from the two ends (scalars or
    arrays): the sine of the angle between the two solutions'
    (Z psi / s, psi) vectors, signed by psi at the probe.

    W is proportional to the Wronskian psi+ psi-' - psi- psi+', so it
    does not depend on the probe, has no poles, lies in [-1, 1] and
    vanishes exactly at the eigenvalues.  With the (Z, 1, 1) ends of the
    Riccati engine the sign of psi is unknown: W then jumps where one
    solution alone has a node at the probe.  A scalar zero divisor gives
    NaN.
    """
    (n1, d1, r1), (n2, d2, r2) = plus, minus
    try:
        # only the phases of the psi ratios count; each is normalised
        # alone so that their product cannot underflow
        phase = r1.conjugate() / abs(r1) * (r2.conjugate() / abs(r2))
        # |x + i y| is hypot(x, y), for scalars and arrays alike
        return s * ((n2 * d1 - n1 * d2) * phase).imag / (
            abs(abs(n1) + 1j * (s * abs(d1))) * abs(abs(n2) + 1j * (s * abs(d2)))
        )
    except ArithmeticError:
        return math.nan


def _at(match, ends: _Ends, e: float):
    """``match`` of the scalar ends at e; NaN where they raise a
    SolverError."""
    try:
        return match(*ends(e))
    except SolverError:
        return math.nan


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
    require_finite("energy and probe", e, probe_x)
    d = complex(_mismatch(*_Ends(pot, probe_x, cfg, params)(e)))
    if not cmath.isfinite(d):
        raise TransformPoleError(f"psi-node at the probe {probe_x}: D has a pole")
    return d


def _scan(ends: _Ends, es, match) -> list:
    """``match(plus, minus)`` of the two solutions' ends at each energy
    of ``es``; None where the ends raise a SolverError or the value is
    not finite.

    Along slab lists the grid is chained from both ends to the probe in
    one array pass per slab.  Every energy where either chain flags, a
    lead is degenerate or the value is not finite is computed again from
    the scalar ends, so the energies dropped are exactly those a
    point-by-point scan drops.
    """
    out: list = [None] * len(es)
    redo = range(len(es))
    if ends.slabs is not None:
        plus, minus, ok = ends.many(np.array(es, dtype=float))
        with np.errstate(all="ignore"):
            v = match(plus, minus)
        ok &= np.isfinite(v)
        out = v.tolist()
        redo = np.flatnonzero(~ok).tolist()
    for i in redo:
        v = _at(match, ends, es[i])
        out[i] = v if cmath.isfinite(v) else None
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
    pass per slab (or sub-slab, on a sampled potential), and refines each
    sign change by Brent's method, one scalar W per iterate along the
    same slab lists, each energy evaluated once.  The Riccati engine's
    (``force_numeric``) W is unsigned and also changes sign at jumps,
    where |W| stays near one; there a root is kept only when |W(root)| is
    at most ROOT_TOL times the larger |W| at its bracket's ends.  Residuals are |W(root)|.
    For a recognizable single square well the count is cross-checked
    against the transcendental branch count.  ``scan_points`` below 3
    raises ValueError.
    """
    if probe_x is not None:
        require_finite("probe", probe_x)
    if scan_points < 3:
        raise ValueError(f"scan_points must be at least 3, got {scan_points}")
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

    ends = _Ends(pot, probe, cfg, params)
    match = partial(_wronskian, s=s)
    # NaN where W cannot be evaluated, on which brentq gives up
    w_at = cache(partial(_at, match, ends))
    scan = [(e, w) for e, w in zip(grid, _scan(ends, grid, match)) if w is not None]

    # the chain's W is signed and continuous, so every sign change holds
    # a root, however steep; the Riccati engine's unsigned W also changes
    # sign at its jumps, where |W| stays near one
    signed = not cfg.force_numeric
    roots: list[float] = []
    residuals: list[float] = []
    for (e0, w0), (e1, w1) in zip(scan, scan[1:]):
        if w0 == 0.0:
            root = e0
        elif w0 * w1 < 0.0:
            try:
                # to float resolution, where the root test below applies
                root = brentq(w_at, e0, e1, xtol=1e-300, rtol=8.9e-16)
            except ValueError:
                continue
        else:
            continue
        res = abs(w_at(root))  # brentq's own value at its root
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

    Scans |D(E)| (one array pass per slab or sub-slab) and
    refines each strict local minimum by Brent's bounded minimization of
    |D|^2, then by Brent's root finder on each component of D that
    changes sign across the bracket, one scalar mismatch per iterate
    along the same slab lists, each energy evaluated once.  An energy
    where D cannot be evaluated counts as |D| = inf to the
    minimiser and drops that component's root.  Accepts energies where
    |D| < RESONANCE_TOL and, as an independent cross-check, R < 1e-8.
    A window in which R vanishes identically (no structure at all) is
    flagged transparent and returns no discrete energies.  ``scan_points``
    below 3 raises ValueError: no strict minimum fits on fewer points.
    """
    from .scattering import solve_scattering

    require_finite("window bounds", e_min, e_max)
    if probe_x is not None:
        require_finite("probe", probe_x)
    if not e_min < e_max:
        raise ValueError("need e_min < e_max")
    if scan_points < 3:
        raise ValueError(f"scan_points must be at least 3, got {scan_points}")
    work = pot.mirrored() if side is Side.RIGHT else pot
    if e_min <= work.left_level:
        raise EvanescentIncidenceError(
            f"window starts at {e_min}, at or below incidence lead"
        )
    probe = probe_x if probe_x is not None else _default_probe(work)

    @cache
    def mismatch_c(e: float):
        d = _at(_mismatch, ends, e)
        return d if cmath.isfinite(d) else None

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

    ends = _Ends(work, probe, cfg, params)
    grid = np.linspace(e_min, e_max, scan_points + 1)[1:].tolist()
    scan = [(e, abs(d)) for e, d in zip(grid, _scan(ends, grid, _mismatch)) if d is not None]

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
                    except ValueError:
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
