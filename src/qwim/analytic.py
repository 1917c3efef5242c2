"""Closed-form impedance algebra for constant and linear potential slabs.

The quantum wave impedance of a solution psi is

    Z(x) = (hbar / i m) psi'(x) / psi(x)

and satisfies the Riccati equation

    dZ/dx + i (m/hbar) Z^2 = i (2/hbar) (E - U(x)).

Where U is constant the general solution is Z(x) = z * tanh(gamma x + phi)
with the characteristic impedance z = sqrt(2 (E - U) / m) and propagation
constant gamma = i (m/hbar) z.  Branch convention: for E > U the root is
real positive (gamma = i k purely imaginary); for E < U we take
z = +i sqrt(2 (U - E) / m), which makes gamma real negative (gamma = -kappa).
With that branch the decaying-tail boundary values are Z(a) = -z1 on the
left and Z(b) = +z2 on the right, and Z = +z / -z are the attractors of
leftward / rightward integration through an evanescent region.

Two walkers step across a slab list, split by problem.
``_chain(slabs, e, z_anchor, params)`` steps the complex Z and psi of
scattering, resonances and ``impedance_mismatch``; ``_real_walk(slabs,
e, y_anchor, params)`` steps the real solution of the bound-state
search.  ``_cut`` alone cuts a potential into slabs, at any
monotone points in one pass; ``_steps``, its walk between two points,
builds the searches' lists, once per stack and end, the stepper's, and
those of the points that the array pass of ``_read`` leaves to the
walk.
Each constant slab is one step of the tanh addition law: it maps Z(x) to
Z(x + dx) and gives the psi ratio across the step over the same
denominator.  Where E equals a slab's level psi is linear across it, and
the step takes its exact limit instead (only a degenerate *lead* is an
error).  Each walker returns its last step undivided, so a psi-node at
the end point is no error.  ``propagate_impedance``, ``layer_transform``
and ``psi_growth_factor`` are walks of one slab.  The scattering
solve, its sweep and the resonance search walk one list from the far
lead to the entry edge, in the potential's own frame from either side
(``scattering._Incidence``); the bound search walks one from each end
to its probe.  Each search builds its lists once, for every energy it
evaluates.
``_chain`` computes each level's z and gamma and the step itself
inline, in the arithmetic of ``_constants`` (the scalar core of
``region_constants``).

Below both leads a bound state's psi is real, and so is
psi'/psi = i (m/hbar) Z.  ``_real_walk`` carries (psi, dpsi/ds) there
in real arithmetic, s the distance walked: cos / sin on a propagating
slab, the linear limit at a slab's level, the real content of the
sub-slab maps on a sampled potential, and on an evanescent slab
cosh / sinh where kappa h <= 1 and otherwise the parts that grow and
decay along the walk, each to full relative accuracy, so a psi that
decays across a barrier does not cancel away.  It carries psi's sign,
not its size, so nothing underflows across a thick barrier, and a
psi-node on a step's end is counted, not divided by.  It always counts
the psi-nodes the solution crosses: the bound-state search's Sturm
count.  One walk per energy and end gives both that count and the
matching function W (``spectral._Ends``).

``_chain_many`` in :mod:`qwim._arrays` is ``_chain``'s array twin for a
whole energy grid: one array pass per slab, with an ``ok`` mask marking
the energies where the scalar walk would raise.  Energy sweeps and the
scan grids of the spectral searches use it where numpy is loaded
already or the potential is sampled (``_array_pass``), and handle the
flagged energies again one at a time; elsewhere they walk each energy
with ``_chain``.

A sampled potential is linear between its samples, U = u0 + F s, and
there psi'' = (A + B s) psi with A = 2m (u0 - E) / hbar^2 and
B = 2m F / hbar^2.  Its slab list holds (u_start, slope, dx) per sample
interval, and the walkers split each interval into sub-slabs short
enough that a Taylor series of the fundamental pair converges fast
(``_series``); Z maps across each sub-slab as

    Z -> (kappa f' + g' Z) / (f + (g / kappa) Z),   kappa = hbar / (i m),

with psi(start) / psi(end) = 1 / den: the shape of a constant slab's
step, so the same walkers carry it.  The sub-slab maps are real at real
E: ``_real_walk`` reads f, f', g and g' off them.  They come from
numpy's array series (``_arrays._linear_maps``) where numpy is loaded
already, and from its plain-Python twin (``_linear_twin``: the same
split and recurrence, one sub-slab at a time) elsewhere
(``_linear_steps``); ``_linear_walks`` hands out those of several
consecutive walks from one call.

``_bridge`` gives the psi ratio across each interval of a Riccati
trajectory, walking the interval's slabs from the end with the larger
|Z|, and a long evanescent interval from both ends, of which it keeps
the walk along which |psi| grows: ``reconstruct_wavefunction`` and the
incidence helper's field (``scattering._Incidence.psi``, for ``profile
--force-numeric`` and ``validate``) rebuild psi from it, the
``force_numeric`` bound search signs psi, and a ``force_numeric`` solve
takes t from the product of its ratios.  On a piecewise potential with
numpy loaded already, the intervals that lie on one cell (all of a
stepper trajectory's) take that step together in one array pass
(``_arrays._bridge_many``), which finds every interval's cell with one
search of the samples against the joins; only the intervals it leaves
are cut, in one pass over their ends.  A cold run and a sampled
potential cut all the samples in one pass (``_cut``) and walk each
interval with ``_chain``.  ``_read`` gives Z at a grid's points off a Riccati
trajectory by the same rule: one step from the end of the point's
interval with the larger |Z|, in one array pass (``_arrays._read_many``)
or one walk a point.  The stepper knows no grid: ``integrate_impedance``'s
grid and ``profile --force-numeric`` read theirs here.

Everything here is scalar arithmetic, and this module imports
no numpy, so work at one energy loads none, on either kind of
potential: ``_chain`` walks a sampled potential's slabs by the twin
unless numpy is loaded already.  Work at many energies on a sampled
potential loads numpy at its set-up (``_array_pass``).  The adaptive
Riccati integrator in :mod:`qwim.riccati` is validated against these
maps.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice

from .errors import (
    DegenerateEnergyError,
    EvanescentIncidenceError,
    NonFiniteStateError,
    TransformPoleError,
)
from .model import ModelParams, Potential, SampledPotential, require_finite

# E is degenerate with U when |E - U| <= EPS_DEGENERATE * max(|E|, |U|).
EPS_DEGENERATE = 1e-12

# |Re(gamma * length)| above which cosh/sinh forms are traded for tanh
# forms; keeps thick evanescent slabs overflow-free.
_SATURATION_CUT = 300.0
# Sub-slabs one walk along linear slabs may take at most (seconds of
# walking per energy); a split count past it counts as an overflow.
_MAX_SUBSLABS = 1 << 22
# Evanescent phase sum(kappa |dx|) of a bridged interval past which it is
# walked from both ends: a walk the way psi decays multiplies its
# anchor's error by up to exp(2 sum(kappa |dx|)), so below this bound an
# anchor exact to rounding gives at most exp(4) eps, about 1.2e-14.
_BRIDGE_PHASE = 2.0


@dataclass(frozen=True)
class RegionConstants:
    """Characteristic impedance and propagation constant of one region.

    ``z`` has velocity-like units sqrt(energy/mass); ``gamma`` is exactly
    i (m/hbar) z.  Propagating regions (e > u): z real positive,
    gamma = i k.  Evanescent regions (e < u): z = +i sqrt(2(u-e)/m),
    gamma = -kappa real negative.
    """

    z: complex
    gamma: complex
    e: float
    u: float
    params: ModelParams

    @property
    def is_propagating(self) -> bool:
        return self.e > self.u

    @property
    def k(self) -> float:
        """Wavenumber sqrt(2m(e-u))/hbar of a propagating region."""
        return self.gamma.imag

    @property
    def kappa(self) -> float:
        """Decay constant sqrt(2m(u-e))/hbar of an evanescent region."""
        return -self.gamma.real


def _scale(params: ModelParams) -> float:
    """2 m / hbar^2, which turns an energy into a squared wavenumber:
    ``2.0 * mass / hbar ** 2``, or where hbar ** 2 leaves the float range
    (hbar below about 1e-162 or above about 1.4e154, where ``**`` raises)
    ``2.0 * mass / hbar / hbar``, which never raises: inf or 0 past the
    range, and the walks that use it raise their own typed errors."""
    try:
        return 2.0 * params.mass / params.hbar ** 2
    except (OverflowError, ZeroDivisionError):
        return 2.0 * params.mass / params.hbar / params.hbar


def _constants(e: float, u: float, params: ModelParams) -> tuple[complex, complex]:
    """(z, gamma) of a level u at energy e, with ``region_constants``'
    checks: DegenerateEnergyError where e and u coincide to relative
    EPS_DEGENERATE, NonFiniteStateError where z or gamma overflows."""
    de = e - u
    if abs(de) <= EPS_DEGENERATE * max(abs(e), abs(u)):
        raise DegenerateEnergyError(f"energy {e} degenerate with level {u}")
    m = params.mass
    if de > 0.0:
        z = complex(math.sqrt(2.0 * de / m), 0.0)
    else:
        z = complex(0.0, math.sqrt(-2.0 * de / m))
    gamma = 1j * (m / params.hbar) * z
    if not (cmath.isfinite(z) and cmath.isfinite(gamma)):
        require_finite("energy and level", e, u)
        raise NonFiniteStateError(f"energy {e} against level {u} overflows z")
    return z, gamma


def region_constants(e: float, u: float, params: ModelParams = ModelParams()) -> RegionConstants:
    """Characteristic constants of a constant region at energy ``e``.

    Raises DegenerateEnergyError when e and u coincide to relative
    EPS_DEGENERATE: both z and gamma vanish there and the tanh family
    degenerates.  Raises NonFiniteStateError when z or gamma overflows
    (a finite level such as -1e308).
    """
    z, gamma = _constants(e, u, params)
    return RegionConstants(z=z, gamma=gamma, e=e, u=u, params=params)


def _divide(x: complex, den: complex) -> complex:
    """x / den for a slab step's num or f; raises TransformPoleError only
    where den is exactly zero (a psi-node at the step's end)."""
    if den == 0:
        raise TransformPoleError("impedance pole: psi-node at the end of a slab step")
    return x / den


def _cut(pot: Potential, points) -> list[list[tuple[float, ...]]]:
    """The slab lists of a walk through monotone ``points``: one per
    consecutive pair, the walk from the one to the next, a step per slab
    in walk order.  A step is (level, dx) on a segment and (u_start,
    slope, dx) on a sample interval: u_start is U where the step starts,
    slope dU/dx, dx signed by the walk's direction.  Past a or b a lead is
    one more slab at its level, (level, 0.0, dx) when sampled.  No step
    has dx = 0 (a linear sub-slab of length 0 would have no map), so
    equal points have none.  One pass over the cells (``pot.cells``, and
    the leads as far as the walk reaches) cuts every pair, testing once
    per cell whether the pair's end lies in it, and stops at the last
    point.  Each list is bitwise the pair's own walk: a flat cell, a lead
    too, starts each step at its level.  The cells are contiguous, each
    join one float (a join within JOIN_TOL at its midpoint), so a walk and
    its reverse cross the same slabs."""
    if len(points) < 2:
        return []
    forward = points[0] < points[-1]
    lo, hi = (points[0], points[-1]) if forward else (points[-1], points[0])
    # the cells in walk order, a lead's reaching only as far as the walk
    sampled = isinstance(pot, SampledPotential)
    cells = pot.cells if forward else reversed(pot.cells)
    a, b = pot.a, pot.b
    if lo < a or hi > b:
        left = ((lo, a, pot.left_level, pot.left_level),) if lo < a else ()
        right = ((b, hi, pot.right_level, pot.right_level),) if hi > b else ()
        cells = chain(left, cells, right) if forward else chain(right, cells, left)
    # the pair being cut, from p to q, and its steps
    ends = iter(points)
    p, q = next(ends), next(ends)
    cuts = [steps := []]
    for x0, x1, u0, u1 in cells:
        while True:
            # the part of the cell on the pair's walk, min and max written
            # out: a builtin call per cell costs more than the rest of it
            if forward:
                c0, c1 = x0 if x0 > p else p, x1 if x1 < q else q
            else:
                c0, c1 = x0 if x0 > q else q, x1 if x1 < p else p
            if c0 < c1:
                if not sampled:
                    steps.append((u0, c1 - c0 if forward else c0 - c1))
                elif forward:
                    slope = (u1 - u0) / (x1 - x0)
                    u = u0 if c0 == x0 or not slope else u0 + slope * (c0 - x0)
                    steps.append((u, slope, c1 - c0))
                else:
                    slope = (u1 - u0) / (x1 - x0)
                    u = u1 if c1 == x1 or not slope else u1 + slope * (c1 - x1)
                    steps.append((u, slope, c0 - c1))
            # the walk goes on past the cell, or the next pair starts in it
            if q > x1 if forward else q < x0:
                break
            p, q = q, next(ends, None)
            if q is None:
                return cuts
            cuts.append(steps := [])
    return cuts


def _steps(pot: Potential, x_from: float, x_to: float) -> list[tuple[float, ...]]:
    """The slab list of the walk from x_from to x_to (``_cut``)."""
    return _cut(pot, (x_from, x_to))[0]


def _chain(
    slabs: list[tuple[float, ...]],
    e: float,
    z_anchor: complex,
    params: ModelParams,
) -> tuple[complex, complex, complex]:
    """Carry an impedance anchored at one end of a slab list (``_steps``)
    across it: the walk of scattering, resonances and
    ``impedance_mismatch``, at any complex anchor.

    A constant slab of characteristic impedance z and propagation
    constant gamma (``_constants``' values and checks, computed inline)
    takes one step of dx (either sign).  With g = gamma dx the tanh
    addition law gives, over one shared denominator,

        num = z (Z cosh g + z sinh g),   den = z cosh g + Z sinh g,   f = z,

    with f the step's psi factor, so den -> 0 is a psi-node at the step's
    end.  Thick evanescent steps (|Re g| > _SATURATION_CUT) divide all
    three by the dominant exponential first, so cosh/sinh never overflow.
    A slab whose level equals e (to EPS_DEGENERATE) carries psi linearly,
    the z -> 0 limit of the step divided by z: num = Z,
    den = 1 + i (m/hbar) Z dx, f = 1.  A list of linear slabs is walked
    one sub-slab map of ``_linear_steps`` at a time:
    num = kappa f' + g' Z and den = f + (g / kappa) Z, with f = 1; a
    list of those maps themselves at e, (kfp, gp, f, gk), is walked as
    given (``_linear_walks``).
    Returns the last step undivided, (num, den, r), with r the product of
    the f: Z(x_to) = num / den and psi(anchor) / psi(x_to) = r / den, so
    a psi-node at x_to is no error (one before it raises
    TransformPoleError).  Raises NonFiniteStateError where a value
    overflows.  The bound-state search walks its real solutions, and
    counts their psi-nodes, with ``_real_walk`` instead.
    """
    num, den, r = z_anchor, 1.0, 1.0
    m = params.mass
    i_m = 1j * (m / params.hbar)
    if slabs and len(slabs[0]) > 2:
        if len(slabs[0]) == 3:
            slabs = _linear_steps(slabs, e, params)[1]
        for kfp, gp, f, gk in slabs:
            z_at, r = _divide(num, den), r / den
            num, den = kfp + gp * z_at, f + gk * z_at
    else:
        sqrt, cosh, sinh, isfinite = math.sqrt, cmath.cosh, cmath.sinh, cmath.isfinite
        eps_e = EPS_DEGENERATE * abs(e)
        # an infinite phase k dx (a vast slab, a tiny hbar) raises
        # ValueError in cmath.cosh / sinh; the try costs nothing otherwise
        try:
            for u, dx in slabs:
                if den == 0:
                    _divide(num, den)  # raises
                z_at, r = num / den, r / den
                de = e - u
                # |de| <= EPS_DEGENERATE * max(|e|, |u|), split in two: the
                # product rounds monotonically
                if abs(de) <= eps_e or abs(de) <= EPS_DEGENERATE * abs(u):
                    num, den = z_at, 1.0 + z_at * (i_m * dx)
                    continue
                if de > 0.0:
                    z = complex(sqrt(2.0 * de / m), 0.0)
                else:
                    z = complex(0.0, sqrt(-2.0 * de / m))
                gamma = i_m * z
                # gamma is finite only where z is
                if not isfinite(gamma):
                    _constants(e, u, params)  # raises
                g = gamma * dx
                if abs(g.real) > _SATURATION_CUT:
                    th = 1.0 if g.real > 0 else -1.0
                    # the saturated form: num, den and f times 2 exp(-th g)
                    c1, c2 = 1.0, th
                    r *= 2.0 * z * cmath.exp(-th * g)
                else:
                    c1, c2 = cosh(g), sinh(g)
                    r *= z
                num, den = z * (z_at * c1 + z * c2), z * c1 + z_at * c2
        except ValueError:
            raise NonFiniteStateError(f"slab phase overflows at energy {e}") from None
    if not (cmath.isfinite(num) and cmath.isfinite(den) and cmath.isfinite(r)):
        raise NonFiniteStateError(f"layer chain overflows at energy {e}")
    return num, den, r


def _real_walk(
    slabs: list[tuple[float, ...]],
    e: float,
    y_anchor: float,
    params: ModelParams,
) -> tuple[float, float, int]:
    """Carry a real solution anchored at one end of a slab list
    (``_steps``) across it, at a real e, and count its psi-nodes: the
    bound-state search's walk.

    With s the distance walked, the solution starts at psi = 1,
    dpsi/ds = ``y_anchor`` (a decaying tail's kappa, where
    psi'/psi = i (m/hbar) Z is real), and each step maps (p, d), a
    positive multiple of (psi, dpsi/ds), by the slab's real transfer
    matrix over h = |dx|, times a positive factor:

        den = p c + d s / k,  num = d c - p k s          (c, s = cos, sin of k h)
        den = p c + d s / kap,  num = d c + p kap s      (cosh, sinh of g = kap h <= 1)
        den = A + B exp(-2 g),  num = kap (A - B exp(-2 g))      (g > 1)
        den = p + d h,  num = d                          (a slab at level e)
        den = p f + d g,  num = p f' + d g'              (a linear sub-slab)

    with k or kap = sqrt(2m |e - u|) / hbar and the linear limit where e
    equals a slab's level to EPS_DEGENERATE.  Past g = 1 the evanescent
    step is split into the parts that grow and decay along the walk,
    A = p + d / kap and B = p - d / kap, over cosh(g) + sinh(g): each
    part keeps its relative accuracy, where the cosh / sinh form would
    lose a decaying psi in the cancellation of two terms of order
    exp(g), and nothing overflows (past _SATURATION_CUT exp(-2 g) is
    below rounding: the saturated form).  Where A is 0 the step is over
    cosh(g) - sinh(g) instead, B alone, so that an underflowing
    exp(-2 g) cannot lose psi.  A linear sub-slab takes the real
    content of its ``_linear_steps`` map, (f, f', g, g') in the walk's
    direction.  Each step starts from the last one's (den, num) scaled
    to p = 1, or to (p, d) = (0, 1) where den is exactly 0 (a psi-node
    on the step's start), with psi's sign kept aside: nothing is
    divided by a vanishing psi, and nothing underflows.

    The count takes each psi-node once, on the half-open step
    (start, end].  A propagating slab turns the Pruefer angle theta
    (tan theta = k psi / (dpsi/ds), theta0 in [0, pi)) by exactly k h,
    so it crosses floor((theta0 + k h) / pi) nodes.  An evanescent slab,
    a slab at level e (psi linear) and a linear sub-slab
    (h sqrt(max |A|) <= 1 < pi) each hold at most one node, there iff
    den <= 0 from p = 1.

    Returns (p, d, nodes): the last step undivided, signed so that
    (p, d) is a positive multiple of (psi, dpsi/ds) at the walk's end.
    Raises NonFiniteStateError where a value overflows.
    """
    m, hbar = params.mass, params.hbar
    den, num, neg, nodes = 1.0, y_anchor, False, 0
    if slabs and len(slabs[0]) == 3:
        # g and f' of a complex map (kfp, gp, f, gk) in the walk's direction
        fwd = 1.0 if slabs[0][2] > 0.0 else -1.0
        to_g, to_fp = fwd * hbar / m, -fwd * m / hbar
        for kfp, gp, f, gk in _linear_steps(slabs, e, params)[1]:
            if den:
                p, d = 1.0, num / den
                if den < 0.0:
                    neg = not neg
            else:
                p, d = 0.0, 1.0
                if num < 0.0:
                    neg = not neg
            den, num = p * f + d * (gk.imag * to_g), p * (kfp.imag * to_fp) + d * gp
            nodes += den <= 0.0 < p
    else:
        sqrt, cos, sin, exp = math.sqrt, math.cos, math.sin, math.exp
        cosh, sinh = math.cosh, math.sinh
        atan2, floor, pi = math.atan2, math.floor, math.pi
        c2 = 2.0 * m / hbar / hbar
        eps_e = EPS_DEGENERATE * abs(e)
        # |de| <= EPS_DEGENERATE * |u| implies |de| < 2 eps_e: that test
        # first spares the second its abs(u)
        eps_2e = 2.0 * eps_e
        # an infinite phase k h (a vast slab, a tiny hbar) raises
        # ValueError in cos / sin, and an overflowed k divides by 0
        try:
            for u, dx in slabs:
                if den:
                    p, d = 1.0, num / den
                    if den < 0.0:
                        neg = not neg
                else:
                    p, d = 0.0, 1.0
                    if num < 0.0:
                        neg = not neg
                h = dx if dx > 0.0 else -dx
                de = e - u
                ade = de if de > 0.0 else -de
                # |de| <= EPS_DEGENERATE * max(|e|, |u|), as _chain splits it
                if ade <= eps_2e and (ade <= eps_e or ade <= EPS_DEGENERATE * abs(u)):
                    den, num = p + d * h, d
                    nodes += den <= 0.0 < p
                elif de > 0.0:
                    k = sqrt(c2 * de)
                    kh = k * h
                    c, s = cos(kh), sin(kh)
                    if d < 0.0:
                        # theta0 = pi - atan2(k, -d), which would round to pi
                        # for k << |d| and count a node psi never reaches
                        nodes += 1 + floor((kh - atan2(k * p, -d)) / pi)
                    else:
                        nodes += floor((atan2(k * p, d) + kh) / pi)
                    den, num = p * c + d * (s / k), d * c - p * (k * s)
                else:
                    kap = sqrt(-c2 * de)
                    g = kap * h
                    if g > 1.0:
                        # the parts that grow and decay along the walk, the
                        # step divided by cosh(g) + sinh(g), or by cosh(g) -
                        # sinh(g) where psi only decays (exp(-2 g) may
                        # underflow)
                        grow, decay = p + d / kap, p - d / kap
                        if grow:
                            decay *= exp(-2.0 * g)
                        den, num = grow + decay, kap * (grow - decay)
                    else:
                        c, s = cosh(g), sinh(g)
                        den, num = p * c + d * (s / kap), d * c + p * (kap * s)
                    nodes += den <= 0.0 < p
        except (ValueError, ArithmeticError):
            raise NonFiniteStateError(f"slab phase overflows at energy {e}") from None
    if not (math.isfinite(den) and math.isfinite(num)):
        raise NonFiniteStateError(f"real walk overflows at energy {e}")
    return (-den, -num, nodes) if neg else (den, num, nodes)


def _cbrt(x: float) -> float:
    """The cube root of x >= 0: x ** (1/3) and one Newton step, within
    an ulp of numpy's ``cbrt`` (``math.cbrt`` is newer than Python 3.10,
    and further from it)."""
    y = x ** (1.0 / 3.0)
    return y - (y * y * y - x) / (3.0 * y * y) if 0.0 < y < math.inf else y


def _series(a: float, b: float) -> tuple[float, float, float, float]:
    """``_arrays._series`` for one sub-slab: (f, h f', g / h, g') at s = h
    of the fundamental pair of psi'' = (A + B s) psi, given a = A h^2 and
    b = B h^3.  The same recurrence, d_{k+2} = (a d_k + b d_{k-1}) /
    ((k+1)(k+2)), summed term by term from d_{-1} as numpy sums f and
    g / h (its h f' and g' come from a dot product), and the same stop:
    three terms in a row of the majorant series below 2^-56 max(|a|, |b|),
    with this sub-slab's |a| and |b| where the array form takes a
    block's largest."""
    alpha, beta = abs(a), abs(b)
    tol = 2.0 ** -56 * max(alpha, beta)
    # the last three terms d_{k-1}, d_k, d_{k+1} of the majorant, f and g
    m3, m2, m1 = 0.0, 1.0, 1.0
    f3, f2, f1 = 0.0, 1.0, 0.0
    g3, g2, g1 = 0.0, 0.0, 1.0
    # the sums of d_k and of k d_k from d_{-1} on
    f, hfp, gh, gp = 1.0, 0.0, 1.0, 1.0
    k = 0
    while m1 > tol or m2 > tol or m3 > tol:
        q = (k + 1) * (k + 2)
        m3, m2, m1 = m2, m1, (alpha * m2 + beta * m3) / q
        w = 1.0 / q
        f3, f2, f1 = f2, f1, (a * f2 + b * f3) * w
        g3, g2, g1 = g2, g1, (a * g2 + b * g3) * w
        k += 1
        f += f1
        hfp += (k + 1) * f1
        gh += g1
        gp += (k + 1) * g1
    return f, hfp, gh, gp


def _linear_twin(slabs: list[tuple[float, float, float]], e: float, params: ModelParams):
    """``_arrays._linear_steps`` in plain Python: (count, steps), the
    sub-slabs of each linear slab (u_start, slope, dx) at energy e and an
    iterator of their (kfp, gp, f, gk) in walk order.  The same split
    (h sqrt(max |A|) <= 1, h |B|^(1/3) <= 1), the same maps from the
    scalar ``_series``, and the same NonFiniteStateError, raised at the
    call, where the split count is not finite or exceeds _MAX_SUBSLABS."""
    c = _scale(params)
    count, total = [], 0.0
    for u0, slope, dx in slabs:
        u1 = u0 + slope * dx
        reach = max(abs(u0 - e), abs(u1 - e))
        width = abs(dx) * max(math.sqrt(c * reach), _cbrt(abs(c * slope)))
        try:
            n = max(math.ceil(width), 1)
        except (OverflowError, ValueError):  # an infinite or NaN width
            n = width
        count.append(n)
        total += n
    if not total <= _MAX_SUBSLABS:  # NaN included
        raise NonFiniteStateError(f"linear slabs need {total} sub-slabs at energy {e}")
    inv_kappa = 1j * params.mass / params.hbar

    def steps():
        for (u0, slope, dx), n in zip(slabs, count):
            h = dx / n
            hh = h * h
            b, ih = c * slope * (hh * h), inv_kappa * h
            if not ih:  # h underflowed to 0: numpy's maps are NaN there
                raise NonFiniteStateError(f"linear sub-slab map overflows at energy {e}")
            for i in range(n):
                f, hfp, gh, gp = _series(c * (u0 + slope * (i * h) - e) * hh, b)
                yield hfp / ih, gp, f, ih * gh

    return count, steps()


def _linear_steps(slabs: list[tuple[float, float, float]], e: float, params: ModelParams):
    """The sub-slab maps of a linear slab list at one energy, (count,
    steps) as ``_linear_twin`` gives them: from numpy's array series
    (``_arrays._linear_steps``) where numpy is loaded already, so warm
    walks take it, and from the twin elsewhere, so a cold one-energy
    walk loads no numpy."""
    if "numpy" in sys.modules:
        from ._arrays import _linear_steps

        return _linear_steps(slabs, e, params)
    return _linear_twin(slabs, e, params)


def _linear_walks(walks: list[list[tuple[float, float, float]]], e: float, params: ModelParams):
    """``_linear_steps`` for consecutive linear slab lists at one energy,
    from one pass: yields each list's maps in turn, as a list that
    ``_chain`` walks as it walks the slabs.  One ``_linear_steps`` call
    serves them all, where a walk of each would make one numpy pass per
    list."""
    count, steps = _linear_steps([slab for walk in walks for slab in walk], e, params)
    counts = iter(count)
    for walk in walks:
        yield list(islice(steps, sum(islice(counts, len(walk)))))


def _array_pass(pot: Potential) -> bool:
    """Whether work at many energies on ``pot`` (an energy grid, a bound
    search) takes numpy: an energy grid then takes one array pass
    (``scattering._Incidence.many``) rather than a walk per energy.  Yes
    where numpy is loaded already, and on a sampled potential, which
    loads it here: its many walks then take numpy's sub-slab series,
    not the slower twin.  Warm, the array pass is the faster; cold, on a
    piecewise potential, numpy's import costs more than walking a grid
    one energy at a time."""
    if isinstance(pot, SampledPotential):
        import numpy  # noqa: F401

        return True
    return "numpy" in sys.modules


def _bridge(pot: Potential, e: float, xs: list[float], zs: list[complex],
            params: ModelParams) -> list[complex]:
    """psi(xs[i + 1]) / psi(xs[i]) across each interval of a Riccati
    trajectory's samples (xs monotone, zs its Z there): the ``_chain``
    walk of the interval's slabs (its piece of ``_cut`` of the
    samples), reversed if need be, from the end with the larger |Z|
    (the second at a tie), anchored at the trajectory's Z there, so it
    never divides by a vanishing psi and carries sign flips through
    nodes.  A piece crosses
    any join in its interval; a repeated sample has ratio 1.  A ratio
    past the float range is infinite.  Descending samples give bitwise
    what the mirror's ascending ones give.

    On a piecewise potential with numpy loaded already, the intervals
    that lie on one cell (every interval of a stepper trajectory, which
    ends each slab on its join) take one array step together
    (``_arrays._bridge_many``, which reads each interval's slab off its
    cell): the walk's arithmetic, with numpy's complex cosh, sinh and
    exp for cmath's, and the walk's own division for the ratio.  The
    intervals it leaves are cut in one pass over their ends and walk,
    so errors stay the walk's.  Cold, and on a sampled potential, one
    ``_cut`` of the samples gives every interval's walk, so a cold walk
    loads no numpy; a sampled potential's intervals walk one at a time,
    with their maps from one ``_linear_walks`` call.

    Where psi decays along an evanescent interval, a walk the way it
    decays multiplies its anchor's error by about exp(2 sum(kappa |dx|)),
    whichever end has the larger |Z|.  An interval whose evanescent phase
    passes _BRIDGE_PHASE is therefore walked from both ends, and the walk
    along which |psi| grows more is kept (the first at a tie); the array
    pass leaves those intervals to the walk."""
    sampled = isinstance(pot, SampledPotential)
    if sampled or "numpy" not in sys.modules:
        walks = _cut(pot, xs)
        ratios, redo = [None] * len(walks), range(len(walks))
    else:
        from ._arrays import _bridge_many

        ratios, redo = _bridge_many(pot, e, xs, zs, params)
        # one cut of the intervals left, as (start, end) pairs: every
        # other piece is one of them, the rest the gaps between them
        pairs = [x for i in redo for x in xs[i:i + 2]]
        walks = dict(zip(redo, _cut(pot, pairs)[::2])) if redo else {}
    # (interval, walked forward, walked from both ends)
    runs = []
    for i in redo:
        forward = abs(zs[i]) > abs(zs[i + 1])
        if _phase(walks[i], e, params) > _BRIDGE_PHASE:
            runs += (i, forward, True), (i, not forward, True)
        else:
            runs.append((i, forward, False))
    todo = []
    for i, forward, _ in runs:
        walk = walks[i]
        if not forward:  # walked back, each step from its other end
            if sampled:
                walk = [(u + slope * dx, slope, -dx) for u, slope, dx in reversed(walk)]
            else:
                walk = [(u, -dx) for u, dx in reversed(walk)]
        todo.append(walk)
    if sampled:
        todo = _linear_walks(todo, e, params)
    best = None
    for (i, forward, both), walk in zip(runs, todo):
        _, den, r = _chain(walk, e, zs[i] if forward else zs[i + 1], params)
        if both:
            # psi(other end) / psi(anchor) = den / r: |psi|'s growth along
            # the walk, the first walk's kept unless the second's is larger
            growth = abs(den) / abs(r) if r else math.inf
            if ratios[i] is not None and not growth > best:
                continue
            best = growth
        # psi(anchor) / psi(other end) = r / den
        top, bottom = (den, r) if forward else (r, den)
        ratios[i] = top / bottom if bottom else complex(math.inf)
    return ratios


def _phase(walk: list[tuple[float, ...]], e: float, params: ModelParams) -> float:
    """sum(kappa |dx|) over the evanescent steps of a ``_cut`` walk, a
    linear step's kappa taken at its higher end, so the phase is never
    underestimated."""
    c = _scale(params)
    phase = 0.0
    for step in walk:
        u, dx = step[0], step[-1]
        if len(step) == 3:
            u = max(u, u + step[1] * dx)
        if u > e:
            phase += math.sqrt(c * (u - e)) * abs(dx)
    return phase


def _read(pot: Potential, e: float, xs: list[float], zs: list[complex], grid,
          params: ModelParams) -> tuple[list[float], list[complex]]:
    """A Riccati trajectory (xs ascending, zs its Z) read at the points
    of ``grid``: (xs, zs) of its first sample, the grid's points strictly
    inside it, ascending (its own floats, repeats kept), and its last
    sample.  A point on a sample takes that sample's Z; elsewhere Z is
    one exact ``_chain`` step from the end of the point's interval with
    the larger |Z| (``_bridge``'s rule), on the interval's slab: the
    stepper ends each slab on its join, so every interval is one slab,
    walked from either direction.  As in ``_bridge``, the steps take one
    array pass on a piecewise potential with numpy loaded already
    (``_arrays._read_many``, each slab off its interval's cell), and the
    points it leaves cut their interval alone (``_steps``); elsewhere
    one ``_cut`` of the samples gives every slab, and each point walks
    alone.  A psi-node on a point raises TransformPoleError, a
    point that is not finite NonFiniteInputError."""
    points = sorted(grid)
    require_finite("grid points", *points)
    lo, hi = xs[0], xs[-1]
    points = points[bisect_right(points, lo):bisect_left(points, hi)]
    sampled = isinstance(pot, SampledPotential)
    if sampled or "numpy" not in sys.modules:
        walks = _cut(pot, xs)
        read, redo = [None] * len(points), range(len(points))
    else:
        from ._arrays import _read_many

        walks = None
        read, redo = _read_many(pot, e, xs, zs, points, params)
    todo, steps = [], []
    for k in redo:
        p = points[k]
        i = bisect_right(xs, p) - 1
        if xs[i] == p:
            read[k] = zs[i]
            continue
        j = i if abs(zs[i]) > abs(zs[i + 1]) else i + 1
        # the interval's one step, (level,) or (u_start, slope), and dx
        (*step, dx), = _steps(pot, xs[i], xs[i + 1]) if walks is None else walks[i]
        if sampled and j != i:  # a line walked from its other end
            step[0] += step[1] * dx
        todo.append((k, j))
        steps.append([(*step, p - xs[j])])
    if sampled:
        steps = _linear_walks(steps, e, params)
    for (k, j), walk in zip(todo, steps):
        read[k] = _divide(*_chain(walk, e, zs[j], params)[:2])
    return [lo, *points, hi], [zs[0], *read, zs[-1]]


def propagate_impedance(rc: RegionConstants, z_at: complex, dx: float) -> complex:
    """Z(x + dx) given Z(x) inside one constant region (dx of either sign).

    The impedance half of a one-slab ``_chain`` walk: tanh addition law,
    saturated form for thick evanescent slabs.
    """
    return _divide(*_chain([(rc.u, dx)], rc.e, z_at, rc.params)[:2])


def layer_transform(rc: RegionConstants, z_far: complex, length: float) -> complex:
    """Impedance at the near side of a slab given the far-side value.

    For a constant slab of the given length terminated by ``z_far`` at its
    far (larger-x) end:

        Z_near = z (z_far cosh(g l) - z sinh(g l)) / (z cosh(g l) - z_far sinh(g l))

    The matched load z_far = z is a fixed point (no reflected component to
    unwind), and chaining transforms composes: two slabs of lengths l1, l2
    equal one slab of length l1 + l2.
    """
    if not length > 0.0:
        raise ValueError("layer_transform needs a strictly positive length")
    return _divide(*_chain([(rc.u, -length)], rc.e, z_far, rc.params)[:2])


def psi_growth_factor(rc: RegionConstants, z_exit: complex, length: float) -> complex:
    """psi(exit) / psi(entry) across one constant slab.

    Computed from the exit-side impedance, which keeps the expression
    cancellation-free even through thick evanescent slabs:

        psi_exit / psi_entry = z / (z cosh(g l) - Z_exit sinh(g l))

    (the ratio half of a one-slab ``_chain`` walk back from the exit, so
    it shares the layer transform's denominator: a finite entry impedance
    guarantees a well-conditioned factor).
    """
    _, den, r = _chain([(rc.u, -length)], rc.e, z_exit, rc.params)
    return _divide(r, den)


def _psi_growth_entry(rc: RegionConstants, z_entry: complex, length: float) -> complex:
    """psi(exit) / psi(entry) across one constant slab, from the entry side.

        psi_exit / psi_entry = cosh(g l) + (Z_entry / z) sinh(g l)

    Algebraically the same ratio as psi_growth_factor, but conditioned
    the opposite way: it stays accurate when the slab starts at or near
    a psi-node (|Z_entry| large), where the exit-side denominator would
    cancel catastrophically.  It is den / r of the one-slab ``_chain``
    walk from the entry.
    """
    _, den, r = _chain([(rc.u, length)], rc.e, z_entry, rc.params)
    return den / r


@dataclass(frozen=True)
class BarrierAmplitudes:
    """Closed-form scattering amplitudes of one rectangular barrier."""

    r: complex
    t: complex
    big_r: float
    big_t: float


def barrier_closed_forms(
    e: float,
    u_b: float,
    length: float,
    params: ModelParams = ModelParams(),
) -> BarrierAmplitudes:
    """Rectangular barrier of height u_b on [0, length], zero leads.

    Amplitudes come from the impedance algebra,

        r = (z0 - Z(0)) / (z0 + Z(0)),
        t = 2 z0 zb exp(-g0 l) / (2 z0 zb cosh(gb l) - (z0^2 + zb^2) sinh(gb l)),

    and the probability coefficients from the textbook branch forms

        E < U_b:  T = 1 / (1 + (k0/kb' + kb'/k0)^2 sinh^2(kb' l) / 4)
        E > U_b:  T = 1 / (1 + (k0/kb - kb/k0)^2 sin^2(kb l) / 4)

    with kb' = sqrt(2m(U_b - E))/hbar, kb = sqrt(2m(E - U_b))/hbar.  The
    two routes are algebraically identical, so |r|^2 = R, |t|^2 = T and
    R + T = 1 hold to rounding; full transmission T = 1 occurs exactly at
    kb l = n pi.  Past kb' l = _SATURATION_CUT, where sinh^2 would
    overflow, each form is divided through by its dominant exponential,
    as the layer chain's saturated step is, so T decays to 0 and never
    overflows.
    """
    if not length > 0.0:
        raise ValueError("barrier length must be positive")
    rc0 = region_constants(e, 0.0, params)
    if not rc0.is_propagating:
        raise EvanescentIncidenceError(f"energy {e} below the zero leads")
    rcb = region_constants(e, u_b, params)
    z0, zb = rc0.z, rcb.z
    k0 = rc0.gamma.imag

    z_entry = layer_transform(rcb, z0, length)
    r = (z0 - z_entry) / (z0 + z_entry)

    gl = rcb.gamma * length
    if abs(gl.real) > _SATURATION_CUT:
        # the saturated forms (E < U_b, gb l = -kb' l): t's numerator and
        # denominator divided by exp(kb' l) / 2, R's and T's by
        # sinh^2(kb' l) = exp(2 kb' l) / 4, exact to rounding past the cut
        t = 4.0 * z0 * zb * cmath.exp(gl - rc0.gamma * length) / (z0 + zb) ** 2
        ratio2 = rcb.kappa * rcb.kappa / (k0 * k0)
        w, q = 16.0 * ratio2 * math.exp(2.0 * gl.real), (1.0 + ratio2) ** 2
        return BarrierAmplitudes(r=r, t=t, big_r=q / (w + q), big_t=w / (w + q))
    t = (
        2.0 * z0 * zb * cmath.exp(-rc0.gamma * length)
        / (2.0 * z0 * zb * cmath.cosh(gl) - (z0 * z0 + zb * zb) * cmath.sinh(gl))
    )

    if e < u_b:
        kb = rcb.kappa
        s2 = math.sinh(kb * length) ** 2
        ratio2 = kb * kb / (k0 * k0)
        big_r = (1.0 + ratio2) ** 2 * s2 / (4.0 * ratio2 + (1.0 + ratio2) ** 2 * s2)
        big_t = 1.0 / (1.0 + 0.25 * (k0 / kb + kb / k0) ** 2 * s2)
    else:
        kb = rcb.k
        s2 = math.sin(kb * length) ** 2
        ratio2 = kb * kb / (k0 * k0)
        big_r = (1.0 - ratio2) ** 2 * s2 / (4.0 * ratio2 + (1.0 - ratio2) ** 2 * s2)
        big_t = 1.0 / (1.0 + 0.25 * (k0 / kb - kb / k0) ** 2 * s2)
    return BarrierAmplitudes(r=r, t=t, big_r=big_r, big_t=big_t)
