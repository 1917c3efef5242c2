"""Bound-state and resonance search via impedance matching.

Bound states.  The left-anchored trajectory Z+ and the right-anchored
trajectory Z- of the decaying tails (Z(a) = -z1, Z(b) = +z2, both
purely imaginary) describe one and the same solution exactly when

    D(E) = Z+(x_probe; E) - Z-(x_probe; E) = 0.

D has a pole wherever either solution has a node at the probe, so bound
states are matched instead on W, the Wronskian psi+ psi-' - psi- psi+'
normalised to [-1, 1]: W = D psi+ psi- up to a positive factor, it has
no poles, does not depend on the probe, and vanishes exactly at the
eigenvalues.  Below both leads both solutions are real, and so is
psi'/psi = i (m/hbar) Z, so the search walks them in real arithmetic
(``analytic._real_walk``).  Where the states lie follows from the same
two walks by Sturm oscillation: a node count N(E) (``_Ends.count``)
gives the number of states below any E, so bisection on N brackets
every state alone (Pryce, *Numerical Solution of Sturm-Liouville
Problems*, OUP 1993).  No scan grid is involved, and a search whose
roots do not number N(ceiling) raises BracketingExhaustedError.

Resonances.  Full transmission is impedance matching at the entry edge.
The transmitted wave, Z = z2 at the far edge, carried across the
structure gives Z(a), and

    r(E) = (z1 - Z(a)) / (z1 + Z(a))

vanishes exactly where T = 1.  The search carries the far lead's wave
through the scattering solve's own helper (``scattering._Incidence``:
one slab list in the potential's own frame, from either side), scans
|r| on a grid, in one array pass per slab where numpy is loaded already
or the potential is sampled and its walks cost more than numpy's
import (``analytic._array_pass``) and one energy at a time elsewhere,
and refines each minimum of |r| by Brent's root
finder on the components of r; the bounded minimiser on |r|^2 runs only
where their roots do not coincide in a zero of r.

Both kinds of potential walk exact slab maps (constant slabs, or the
linear sub-slabs of a sampled potential): the real walk carries psi's
sign along with psi'/psi, which signs W; with ``cfg.force_numeric`` the
Riccati equation is integrated instead, and the exact slab steps across
its own intervals (``analytic._bridge``) give the sign of psi, so W is
signed for both engines and one root rule serves them.  A search sets
up its slab lists once (``_Ends``: one from each end to the probe;
``_Incidence``: the walk to the entry edge).  The node count and the
refinement of each bracket, with qwim's own ports of Brent's root
finder and bounded minimiser (``_optimize``), walk the same lists one
scalar energy at a time in plain real (bound states) or complex
(resonances) arithmetic, and walk no energy twice: one real walk per
energy and end serves both the count and W, and the value at a
returned root or minimum is the one the optimiser computed.  Only the
resonance scan's array pass and sampled potentials use numpy: a bound
search on a sampled potential loads it at set-up, as its walks are
counted only as it goes, so that they take numpy's sub-slab series,
and so does a resonance scan whose walks there cost more than numpy's
import; a search on a piecewise potential loads none, ``force_numeric``
or not.  On a sampled potential both ends' sub-slab maps at one energy
come from one series pass (``analytic._linear_walks``), for the bound
search and ``impedance_mismatch`` alike.
``impedance_mismatch`` walks one energy and loads none on either kind.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

from ._optimize import _MAXITER, brentq, minimize_scalar
from .analytic import (
    _bridge, _chain, _from_zeta, _linear_walks, _listed, _real_walk, _steps, _units,
)
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
    Potential,
    SampledPotential,
    Side,
    _linspace,
    require_finite,
)
from .scattering import _Incidence

# |r| must fall below this at a refined minimum to count as a resonance.
RESONANCE_TOL = 1e-6
# Number of scan-grid points across a resonance search window.
SCAN_POINTS = 400
# States one bound search may return at most (at about 0.1 ms a state on
# a 2-core x86-64 host, two minutes); a node count past it counts as an
# overflow.
MAX_STATES = 1 << 20
# Absolute tolerance of the bound-state refinement: far below any state
# but zero itself, so the relative one (8.9e-16) rules.
_XTOL = 1e-300


class SpectrumKind(Enum):
    BOUND = "bound"
    RESONANCE = "resonance"


@dataclass(frozen=True)
class SpectrumResult:
    """The energies a search found, with the residual at each: |W| for
    bound states, |r| for resonances.  ``probe_x`` is the matching point
    of a bound search and the entry edge of a resonance search (a for
    left incidence, b for right)."""

    kind: SpectrumKind
    energies: list[float]
    residuals: list[float]
    probe_x: float
    transparent: bool = False


class _Ends:
    """The left- and the right-anchored solution at one probe, set up
    once for a whole search.

    The units (``analytic._units``) and the slab lists from each end to
    the probe are taken here, and the walks carry zeta = (m/hbar) Z.
    So is whether the potential is sampled (``sampled``), which picks
    the lists an energy walks: the slab lists themselves, or both ends'
    sub-slab maps at the energy, from one series pass
    (``analytic._linear_walks``), which ``_real_walk`` and ``_chain``
    walk as they would the slabs, bit for bit.
    Below both leads the two decaying solutions are real, and
    ``walk(e)`` carries them along the lists by ``analytic._real_walk``,
    once per energy: (p, d, nodes) of each, (p, d) a positive multiple
    of (psi, dpsi/ds) at the probe with s the distance walked from the
    anchor, psi = 1 and dpsi/ds = kappa = sqrt(c max(u - e, 0)) at the
    lead of level u (kappa = 0, the threshold anchor, at the lead's
    level).  That one walk serves both the node count and W.

    Called with an energy, it gives the ends W reads (``_wronskian``):
    the walk's on the chain; with ``force_numeric`` the Riccati
    equation is integrated instead, and each end is (p, p y, None), y
    the real psi'/psi = i zeta in the walk's direction at the
    trajectory's end and p the sign of psi(probe) / psi(anchor), the
    product of the signs of the trajectory's interval psi ratios
    (``analytic._bridge``).  A product of signs cannot underflow across
    a thick barrier as one of the ratios themselves can.  The lists and
    their walks then serve the node count alone.  ``impedances(e)``
    gives ``impedance_mismatch`` the complex zeta+ and zeta- at any
    energy.
    """

    def __init__(self, pot, probe_x, cfg, params):
        if not pot.a < probe_x < pot.b:
            raise ValueError(f"probe {probe_x} outside the open interval ({pot.a}, {pot.b})")
        self.pot, self.probe_x, self.cfg = pot, probe_x, cfg
        self.c, self.w = _units(params)
        self.levels = pot.left_level, pot.right_level
        self.slabs = _steps(pot, pot.a, probe_x), _steps(pot, pot.b, probe_x)
        self.sampled = isinstance(pot, SampledPotential)
        self.walked = {}

    def _anchors(self, e):
        """zeta at a and at b: the decaying tails below a lead's level,
        the scattering anchors above it, and the threshold anchor zeta = 0
        at it."""
        (u_a, u_b), c = self.levels, self.c
        z_a = -complex(0.0, math.sqrt(c * (u_a - e))) if e < u_a else (
            complex(math.sqrt(c * (e - u_a)), 0.0))
        z_b = complex(0.0, math.sqrt(c * (u_b - e))) if e < u_b else (
            complex(math.sqrt(c * (e - u_b)), 0.0))
        return z_a, z_b

    def impedances(self, e):
        """zeta+ and zeta- at the probe, the scattering anchors above a
        lead: each end's (num, den) of ``analytic._chain``
        (zeta = num / den), or the stepper's (zeta, 1) with
        ``force_numeric``."""
        z_a, z_b = self._anchors(e)
        if self.cfg.force_numeric:
            plus, minus = self._trajectories(e, z_a, z_b)
            return (plus[1][-1], 1.0), (minus[1][0], 1.0)
        (left, right), c = self.slabs, self.c
        if self.sampled:
            left, right = _linear_walks(self.slabs, e, c)
        return _chain(left, e, z_a, c)[:2], _chain(right, e, z_b, c)[:2]

    def _trajectories(self, e, z_a, z_b):
        from .riccati import _trajectory

        pot, cfg, c = self.pot, self.cfg, self.c
        return (_trajectory(pot, e, pot.a, z_a, self.probe_x, cfg, c),
                _trajectory(pot, e, pot.b, z_b, self.probe_x, cfg, c))

    def walk(self, e):
        """Both real walks at e (``analytic._real_walk``) along the
        lists, each energy walked once."""
        ends = self.walked.get(e)
        if ends is None:
            (left, right), (u_a, u_b), c = self.slabs, self.levels, self.c
            if self.sampled:
                left, right = _linear_walks(self.slabs, e, c)
            ends = self.walked[e] = (
                _real_walk(left, e, math.sqrt(c * (u_a - e if u_a > e else 0.0)), c),
                _real_walk(right, e, math.sqrt(c * (u_b - e if u_b > e else 0.0)), c),
            )
        return ends

    def __call__(self, e):
        if not self.cfg.force_numeric:
            return self.walk(e)
        plus, minus = self._trajectories(e, *self._anchors(e))
        # psi'/psi = i zeta in each walk's direction, and the sign of psi
        # at the probe
        y1, y2 = -plus[1][-1].imag, minus[1][0].imag
        p1, p2 = (_sign(_listed(_bridge(self.pot, e, xs, zs, self.c))) for xs, zs in (plus, minus))
        return (p1, p1 * y1, None), (p2, p2 * y2, None)

    def count(self, e: float) -> int:
        """N(e) for e in (floor, ceiling]: the number of bound states
        below e, by Sturm oscillation along the two lists.

        The two decaying solutions cross n+ and n- psi-nodes on their way
        to the probe (``walk``).  With their Pruefer angles at the probe
        taken modulo pi in [0, pi) and (0, pi], N = n+ + n- + [left
        angle > right angle].  That bracket is [y+ + y- < 0], with y+ and y-
        the two dpsi/ds / psi at the probe, each in its own walk's
        direction: the sign of (d+ p- + d- p+) p+ p-, taken undivided so
        that a node at the probe adds nothing.
        """
        (p1, d1, nodes1), (p2, d2, nodes2) = self.walk(e)
        # each end scaled to order one, so that the products can neither
        # underflow nor overflow
        a1, a2 = max(abs(p1), abs(d1)) or 1.0, max(abs(p2), abs(d2)) or 1.0
        p1, d1, p2, d2 = p1 / a1, d1 / a1, p2 / a2, d2 / a2
        return nodes1 + nodes2 + ((d1 * p2 + d2 * p1) * (p1 * p2) < 0.0)


def _sign(ratios: list[complex]) -> float:
    """The sign of the product of the real psi ``ratios``, +-1.0, NaN
    where one is 0 or not finite: a product of signs cannot underflow
    across a thick barrier as one of the ratios themselves can."""
    neg = False
    for q in ratios:
        x = q.real
        if not (x and math.isfinite(x)):
            return math.nan
        neg ^= x < 0.0
    return -1.0 if neg else 1.0


def _wronskian(plus, minus, sigma):
    """The bound-state matching function W from the two real ends
    (``_Ends``): the sine of the angle between the two solutions'
    (dpsi/ds / sigma, psi) vectors at the probe, with sigma the window's
    wavenumber scale,

        W = sigma (d+ p- + d- p+) / (|(d+, sigma p+)| |(d-, sigma p-)|).

    Each d is the derivative in its own walk's direction, so
    d+ p- + d- p+ is the Wronskian psi+ psi-' - psi- psi+' (x
    derivatives) with its sign turned: W does not depend on the probe,
    has no poles, lies in [-1, 1] and vanishes exactly at the
    eigenvalues, for the ends of both engines.  A zero divisor gives
    NaN.
    """
    (p1, d1, _), (p2, d2, _) = plus, minus
    try:
        norm = math.hypot(d1, sigma * p1) * math.hypot(d2, sigma * p2)
        return sigma * (d1 * p2 + d2 * p1) / norm
    except ZeroDivisionError:
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
    probe: D has a pole there.  ``e`` and ``probe_x`` are taken as
    Python floats.
    """
    require_finite("energy and probe", e, probe_x)
    ends = _Ends(pot, float(probe_x), cfg, params)
    (n1, d1), (n2, d2) = ends.impedances(float(e))
    try:
        d = complex(n1 / d1 - n2 / d2)
    except ZeroDivisionError:
        d = math.nan
    if not cmath.isfinite(d):
        raise TransformPoleError(f"psi-node at the probe {probe_x}: D has a pole")
    return _from_zeta(d, ends.w)


def _default_probe(pot: Potential) -> float:
    return 0.5 * (pot.a + pot.b)


def find_bound_states(
    pot: Potential,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
    probe_x: float | None = None,
) -> SpectrumResult:
    """All bound energies in (min interior U, min lead level), each to
    Brent's tolerance, relative 8.9e-16 and absolute _XTOL: a state
    within _XTOL of the ceiling is reported at the ceiling itself.  The
    well (0, 1) at depth 1e-160 below zero leads holds one state, at
    about -5e-321, and the search reports it as 0.0.

    The Sturm count N(E) of ``_Ends.count`` (N = 0 at the floor) gives
    every state its own bracket, in one loop over a stack of brackets
    (lo, hi, N(lo), N(hi)), lowest first, starting from (floor, ceiling].
    A bracket holding one state matches the two decaying solutions at
    one probe (default: the midpoint) on W, the normalised Wronskian of
    ``_wronskian``, by Brent's method: one scalar W per iterate along the
    same two slab lists (threshold anchors at the ceiling), each energy
    walked once, one real walk per end serving the count and W.  W is
    signed and continuous on both engines (``_Ends``), so its root is
    the state.  Brent's method may take one iteration per halving from
    the bracket's width down to its absolute tolerance on top of its own
    limit.  A bracket with more states, or where Brent's method finds no
    root, is halved by N.  One that float arithmetic cannot halve holds
    its k states within one float spacing: it reports its upper end k
    times.  That is a tunnel doublet closer than the spacing
    for k > 1, and for k = 1 a state that Brent's method could not
    refine (W NaN or of one sign at the floats beside it).
    Residuals are |W| at each energy reported.  A search whose roots do
    not number N(ceiling) (only a node count that is not monotone gives
    one) raises BracketingExhaustedError with every energy the search
    evaluated and W there; a node count above MAX_STATES raises
    NonFiniteStateError before any bracket is searched.
    """
    if probe_x is not None:
        require_finite("probe", probe_x)
    if not pot.cells:
        raise EmptyWindowError("a bare step supports no bound states")
    floor = min(min(cell[2:]) for cell in pot.cells)
    ceil = min(pot.left_level, pot.right_level)
    if not floor < ceil:
        raise EmptyWindowError(
            f"no interior region below the leads (floor {floor} >= ceiling {ceil})"
        )
    probe = probe_x if probe_x is not None else _default_probe(pot)
    ends = _Ends(pot, probe, cfg, params)
    # wavenumber scale of the window: psi' / (sigma psi) is of order one
    sigma = math.sqrt(ends.c * (ceil - floor))
    if not math.isfinite(sigma):
        raise NonFiniteStateError(f"bound window ({floor}, {ceil}) overflows")

    if ends.sampled:
        # a search walks many energies, counted only as it goes: numpy's
        # sub-slab series serve them
        import numpy  # noqa: F401
    seen: dict[float, float] = {}

    def w_at(e: float) -> float:
        # NaN where W cannot be evaluated, on which brentq gives up
        w = seen.get(e)
        if w is None:
            try:
                w = _wronskian(*ends(e), sigma)
            except SolverError:
                w = math.nan
            seen[e] = w
        return w

    expected = ends.count(ceil)
    if expected > MAX_STATES:
        raise NonFiniteStateError(
            f"the node count gives {expected:.3g} bound states below {ceil}, "
            f"more than {MAX_STATES}"
        )
    roots: list[float] = []
    stack = [(floor, ceil, 0, expected)]
    while stack:
        lo, hi, n_lo, n_hi = stack.pop()
        if n_hi <= n_lo:
            continue
        if n_hi - n_lo == 1:
            # brentq's own limit, plus one iteration per halving from the
            # bracket's width down to xtol: a state within about 1e-280 of
            # zero sits in a bracket some 2^520 of its tolerances wide
            limit = _MAXITER + math.ceil(math.log2(hi - lo) - math.log2(_XTOL))
            try:
                roots.append(brentq(w_at, lo, hi, xtol=_XTOL, rtol=8.9e-16, maxiter=limit))
                continue
            except (ValueError, RuntimeError):
                # ends of one sign, a NaN W, or no convergence in brentq's
                # iterations (a window far narrower than the energies)
                pass
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            roots.extend([hi] * (n_hi - n_lo))
            continue
        n_mid = ends.count(mid)
        stack.append((mid, hi, n_mid, n_hi))
        stack.append((lo, mid, n_lo, n_mid))

    if len(roots) != expected:
        evaluated = sorted(seen)
        raise BracketingExhaustedError(
            f"found {len(roots)} states, the node count gives {expected}",
            energies=evaluated,
            mismatches=[seen[e] for e in evaluated],
        )
    return SpectrumResult(
        kind=SpectrumKind.BOUND,
        energies=roots,
        residuals=[abs(w_at(e)) for e in roots],
        probe_x=probe,
    )


def _windows(e: float, lo: float, hi: float, xatol: float):
    """Where the components of r are tried for a sign change after the
    scan bracket (lo, hi), where r circles the origin across it and
    neither component changes sign there: windows about the bounded
    minimiser's answer e, from 4 of its tolerances (4 (sqrt(eps) |e| +
    xatol / 3)) to either side, doubling, inside the bracket."""
    w = 4.0 * (math.sqrt(2.2e-16) * abs(e) + xatol / 3.0)
    while True:
        a, b = max(lo, e - w), min(hi, e + w)
        if a == lo and b == hi:
            return
        yield a, b
        w *= 2.0


def find_resonances(
    pot: Potential,
    e_min: float,
    e_max: float,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> SpectrumResult:
    """Full-transmission energies inside (e_min, e_max], for incidence
    from ``side``: the zeros of r.

    Scans |r(E)| at SCAN_POINTS energies (``_Incidence.reflections``:
    one array pass per slab or sub-slab of the walk from the far lead to
    the entry edge where ``analytic._array_pass`` allows it) and
    refines each strict local minimum by Brent's root finder on each
    component of r that changes sign across its bracket, one scalar r
    per iterate along the same walk, each energy evaluated once.  Where
    both components' roots agree to the minimiser's xatol with |r|
    below RESONANCE_TOL, they are a zero of r, and the least |r| of them
    is the answer.  Otherwise Brent's bounded minimization of |r|^2 runs
    too, and the least |r| of its answer and the roots is taken, its
    answer on a tie; where neither component changes sign across the
    bracket, windows about its answer are tried for one (``_windows``).
    An energy where r cannot be evaluated counts as |r| = inf to the
    minimiser and drops that component's root; where r has a value at
    no scan energy, the walk's error at the first one is raised.
    Accepts energies where |r| < RESONANCE_TOL, and reports |r| as the
    residual: R = |r|^2 comes from the same walk; where the scan's |r| is
    below RESONANCE_TOL at both ends of a bracket, only agreeing roots
    do.  A potential whose cells and leads all sit at one level reflects
    nothing at any energy: it is flagged transparent, with no scan.
    ``probe_x`` of the result is the entry edge.
    """
    require_finite("window bounds", e_min, e_max)
    if not e_min < e_max:
        raise ValueError("need e_min < e_max")
    walk = _Incidence(pot, side, cfg, params)
    if e_min <= walk.u_in:
        raise EvanescentIncidenceError(
            f"window starts at {e_min}, at or below incidence lead"
        )
    edge = pot.b if side is Side.RIGHT else pot.a
    if len({pot.left_level, pot.right_level, *(u for cell in pot.cells for u in cell[2:])}) == 1:
        # r is 0 at every energy only on a flat line, which a scan of R
        # cannot tell from structure finer than its grid
        return SpectrumResult(kind=SpectrumKind.RESONANCE, energies=[], residuals=[], probe_x=edge,
                              transparent=True)
    # energy tolerances relative to the window's size in energy: one
    # search in any units and at any length scale, where E goes as 1 / x^2
    scale = max(abs(e_min), abs(e_max))
    xtol, xatol = 1e-14 * scale, 1e-12 * scale

    def modulus(e: float):
        r = walk.reflection(e)
        return None if r is None else abs(r)

    def squared(e: float) -> float:
        r = modulus(e)
        return math.inf if r is None else r ** 2

    def component(comp, e: float) -> float:
        # a failed evaluation is NaN, on which brentq gives up
        r = walk.reflection(e)
        return math.nan if r is None else comp(r)

    def roots(a: float, b: float):
        # Brent's root, with |r| there, on each component of r that
        # changes sign across (a, b); None where neither does
        r_a, r_b = walk.reflection(a), walk.reflection(b)
        if r_a is None or r_b is None:
            return None
        comps = [c for c in (lambda r: r.imag, lambda r: r.real) if c(r_a) * c(r_b) < 0.0]
        found = []
        for comp in comps:
            try:
                e_root = brentq(partial(component, comp), a, b, xtol=xtol, rtol=8.9e-16)
            except ValueError:
                continue
            found.append((float(e_root), modulus(e_root)))
        return found if comps else None

    grid = _linspace(e_min, e_max, SCAN_POINTS + 1)[1:]
    scan = [(e, abs(r)) for e, r in zip(grid, walk.reflections(grid)) if r is not None]
    if not scan:
        # r has a value nowhere in the window: the scalar walk at one
        # energy raises the SolverError that dropped every scan point
        walk(grid[0])

    energies: list[float] = []
    residuals: list[float] = []
    for i in range(1, len(scan) - 1):
        e_m, r_m = scan[i]
        if not (r_m < scan[i - 1][1] and r_m < scan[i + 1][1]):
            continue
        lo, hi = scan[i - 1][0], scan[i + 1][0]
        found = roots(lo, hi)
        # both components of r vanish together at a true resonance: where
        # their roots agree to xatol, with |r| below RESONANCE_TOL, r is
        # zero there to float resolution and the minimiser is not run
        agree = found and len(found) == 2 and abs(found[0][0] - found[1][0]) <= xatol
        if not (agree and min(r for _, r in found) < RESONANCE_TOL):
            if max(scan[i - 1][1], scan[i + 1][1]) < RESONANCE_TOL:
                continue  # a minimum of an |r| this small is no zero unless the roots agree
            e_opt = minimize_scalar(squared, lo, hi, xatol=xatol)
            windows = () if found is not None else _windows(e_opt, lo, hi, xatol)
            # its answer first: a root replaces it only with a smaller |r|
            found = [(e_opt, modulus(e_opt))] + (found or [])
            for a, b in windows:
                more = roots(a, b)
                if more is not None:
                    found += more
                    break
        e_star = r_star = None
        for e, r in found:
            if r is not None and (r_star is None or r < r_star):
                e_star, r_star = e, r
        if r_star is None or r_star >= RESONANCE_TOL:
            continue
        if energies and abs(e_star - energies[-1]) < 1e-8 * (e_max - e_min):
            continue
        energies.append(e_star)
        residuals.append(r_star)
    return SpectrumResult(
        kind=SpectrumKind.RESONANCE,
        energies=energies,
        residuals=residuals,
        probe_x=edge,
    )
