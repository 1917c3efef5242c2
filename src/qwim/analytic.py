"""Closed-form impedance algebra for constant and linear potential slabs.

The quantum wave impedance of a solution psi is Z = (hbar / i m) psi'/psi.
The walks here carry zeta = (m/hbar) Z = psi' / (i psi), which obeys

    dzeta/dx = i (c (E - U(x)) - zeta^2),   c = 2m / hbar^2,

so they depend on the units only through c.  ``_units`` takes c and
w = m/hbar from the ``ModelParams`` once, at the edge of every public
solve, sweep, search, trajectory, slab view and reconstruction, and
raises NonFiniteStateError where either is not a positive normal float;
only the impedances a public call returns are turned back into
Z = zeta / w, part by part (``_from_zeta``).

Where U is constant zeta = k tanh(i k x + phi), with the characteristic
impedance k = sqrt(c (E - U)) real positive above the level and
k = +i sqrt(c (U - E)) below it, where the propagation constant i k is
real negative.  With that branch the decaying tails are zeta(a) = -k1
on the left and zeta(b) = +k2 on the right, and +k / -k are the
attractors of leftward / rightward integration through an evanescent
region.

Two walkers step across a slab list, split by problem.
``_chain(slabs, e, z_anchor, c)`` steps the complex zeta and psi of
scattering, resonances and ``impedance_mismatch``; ``_real_walk(slabs,
e, y_anchor, c)`` steps the real solution of the bound-state search.
``_cut`` alone cuts a potential into slabs, at any monotone points in
one pass; ``_steps``, its walk between two points, builds the searches'
lists, once per stack and end, the stepper's, and those of the walks
from a sample (``_walks``) that cross a join short of the farthest
walk from their start.  Each constant
slab is one step of the tanh addition law: it maps zeta(x) to
zeta(x + dx) and gives the psi ratio across the step over the same
denominator.  Where E equals a slab's level psi is linear across it,
and the step takes its exact limit instead (only a degenerate *lead* is
an error).  Each walker returns its last step undivided, so a psi-node
at the end point is no error.  ``propagate_impedance``,
``layer_transform`` and ``psi_growth_factor`` are walks of one slab.
The scattering solve, its sweep and the resonance search walk one list
from the far lead to the entry edge, in the potential's own frame from
either side (``scattering._Incidence``); the bound search walks one
from each end to its probe.  Each search builds its lists once, for
every energy it evaluates.

Below both leads a bound state's psi is real, and so is
psi'/psi = i zeta.  ``_real_walk`` carries (psi, dpsi/ds) there in real
arithmetic, s the distance walked: cos / sin on a propagating slab, the
linear limit at a slab's level, the real content of the sub-slab maps
on a sampled potential, and on an evanescent slab cosh / sinh where
kappa h <= 1 and otherwise the parts that grow and decay along the
walk, each to full relative accuracy, so a psi that decays across a
barrier does not cancel away.  It carries psi's sign, not its size, so
nothing underflows across a thick barrier, and it counts the psi-nodes
the solution crosses: the bound-state search's Sturm count.  One walk
per energy and end gives both that count and the matching function W
(``spectral._Ends``).

``_chain_many`` in :mod:`qwim._arrays` is ``_chain``'s array twin for a
whole energy grid, with an ``ok`` mask marking the energies where the
scalar walk would raise.  Energy sweeps and the resonance scan use it
where numpy is loaded already, or where the potential is sampled and
its grid's walks cost more than numpy's import (``_array_pass``), and
walk the flagged energies again one at a time.

A sampled potential is linear between its samples, U = u0 + F s, and
there psi'' = (A + B s) psi with A = c (u0 - E) and B = c F.  Its slab
list holds (u_start, slope, dx) per sample interval, and the walkers
split each interval into sub-slabs short enough that a Taylor series
of the fundamental pair converges fast (``_series``); zeta maps across
each sub-slab as

    zeta -> (-i f' + g' zeta) / (f + i g zeta),

with psi(start) / psi(end) = 1 / den: the shape of a constant slab's
step, so the same walkers carry it.  The maps are real at real E apart
from the factors i: ``_real_walk`` walks a list of them and reads f,
f', g and g' off each.  ``_sub_slab_maps`` is their one scalar source:
it takes them from numpy's array series (``_arrays._linear_maps``)
where numpy is loaded already, and from its plain-Python twin
(``_linear_twin``) elsewhere, bit for bit the same: each map is a
function of its own sub-slab's split, a and b alone (``_series``), so a
walk gives the same bits cold and warm, whatever else shares its pass.
``_chain`` walks a linear slab list's maps as they are made, and
``_linear_walks`` hands out the maps of several consecutive walks from
one pass: both ends of a bound search at one energy
(``spectral._Ends``), and the scalar tail of a batch of walks from
samples.

psi and zeta come back from a Riccati trajectory by one walk, from a
sample at the trajectory's zeta there to a target: ``_bridge`` walks
each interval from the end with the larger |zeta| and keeps the psi
ratio r / den, ``_read`` walks to each grid point from that end of its
interval and keeps zeta = num / den.  Where numpy is loaded already, a
piecewise potential's walks that lie on one cell take one array pass
(``_arrays._anchored_many``); the rest take the scalar tail in one
batch, one ``_cut`` of their ends (``_walks``) and one ``_chain`` each
(``_anchored``).  Callers that want lists take arrays via ``_listed``.

This module imports no numpy, so work at one energy loads none, on
either kind of potential.  The adaptive Riccati integrator in
:mod:`qwim.riccati` is validated against these maps.
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
# numpy's import, counted in the twin's sub-slab maps (``_linear_twin``):
# cold, a grid on a sampled potential whose walks take at most this many
# maps is walked one energy at a time sooner than numpy loads
# (``_array_pass``).  On a 2-core x86-64 host (Python 3.11.7, numpy
# 2.4.6) ``import numpy`` took 98-192 ms over 13 cold starts, and a
# twin map (its series of 28 terms and chain step) 7.8-9.1 us across a
# 41-sample Gaussian bump at four energies: 1.1-2.5 x 10^4 maps, of
# which the count takes the low end.
_IMPORT_MAPS = 10_000
# The last term d_28 of every sub-slab's series (``_series``): where
# |a| = |b| = 1, the bound of the split (``_split``), its majorant series
# (|a| and |b| in place of a and b, d_0 = d_1 = 1) has three terms in a
# row below 2^-56 from d_28 on, as it has up to |a| = |b| = 1.1.
_SERIES_TERMS = 28
# The twin's recurrence factors 1 / (k (k + 1)), k = 1 to 27, and its
# sums' weights k = 28 down to 1, as floats (``_series``): read from
# tuples, they cost the twin about a fifth less time than computed
_SERIES_FACTORS = tuple(1.0 / (k * (k + 1)) for k in range(1, _SERIES_TERMS))
_SERIES_WEIGHTS = tuple(float(k) for k in range(_SERIES_TERMS, 0, -1))


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


def _units(params: ModelParams) -> tuple[float, float]:
    """(c, w) = (2 m / hbar^2, m / hbar), taken once at the edge of every
    public solve: c turns an energy into a squared wavenumber, w the
    impedance Z into zeta = w Z = psi' / (i psi), and results depend on
    the units only through them.  Raises NonFiniteStateError where either
    is not a positive normal float (at m = 1, hbar past about 1e154 or
    below about 1e-154), so no walk sees units it cannot carry."""
    w = params.mass / params.hbar
    c = 2.0 * w / params.hbar
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in (c, w)):
        raise NonFiniteStateError(f"units hbar {params.hbar}, mass {params.mass} put 2m/hbar^2 "
                                  f"= {c} or m/hbar = {w} outside the normal float range")
    return c, w


def _constants(e: float, u: float, c: float) -> complex:
    """The characteristic impedance in zeta of a level u at energy e,
    k = sqrt(c (e - u)), or i sqrt(c (u - e)) below the level (its
    propagation constant is i k), with ``region_constants``' checks:
    DegenerateEnergyError where e and u coincide to relative
    EPS_DEGENERATE, NonFiniteStateError where k overflows."""
    de = e - u
    if abs(de) <= EPS_DEGENERATE * max(abs(e), abs(u)):
        raise DegenerateEnergyError(f"energy {e} degenerate with level {u}")
    if de > 0.0:
        k = complex(math.sqrt(c * de), 0.0)
    else:
        k = complex(0.0, math.sqrt(-c * de))
    if not cmath.isfinite(k):
        require_finite("energy and level", e, u)
        raise NonFiniteStateError(f"energy {e} against level {u} overflows z")
    return k


def region_constants(e: float, u: float, params: ModelParams = ModelParams()) -> RegionConstants:
    """Characteristic constants of a constant region at energy ``e``.

    Raises DegenerateEnergyError when e and u coincide to relative
    EPS_DEGENERATE: both z and gamma vanish there and the tanh family
    degenerates.  Raises NonFiniteStateError when z or gamma overflows
    (a finite level such as -1e308), or the units do (``_units``).
    """
    c, w = _units(params)
    k = _constants(e, u, c)
    return RegionConstants(z=_from_zeta(k, w), gamma=1j * k, e=e, u=u, params=params)


def _from_zeta(zeta: complex, w: float) -> complex:
    """Z = zeta / w, part by part, as zeta = w Z is taken: Python's complex
    times or over a float is a full complex product or quotient, which
    turns -0.0 parts to 0.0 and inf parts to NaN."""
    return complex(zeta.real / w, zeta.imag / w)


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
    c: float,
) -> tuple[complex, complex, complex]:
    """Carry an impedance zeta anchored at one end of a slab list
    (``_steps``) across it: the walk of scattering, resonances and
    ``impedance_mismatch``, at any complex anchor, with c = 2m/hbar^2.

    A constant slab of characteristic impedance k (``_constants``' value
    and checks, computed inline) and propagation constant i k takes one
    step of dx (either sign).  With g = i k dx the tanh addition law
    gives, over one shared denominator,

        num = k (zeta cosh g + k sinh g),   den = k cosh g + zeta sinh g,   f = k,

    with f the step's psi factor, so den -> 0 is a psi-node at the step's
    end.  Thick evanescent steps (|Re g| > _SATURATION_CUT) divide all
    three by the dominant exponential first, so cosh/sinh never overflow.
    A slab whose level equals e (to EPS_DEGENERATE) carries psi linearly,
    the k -> 0 limit of the step divided by k: num = zeta,
    den = 1 + i zeta dx, f = 1.  A list of linear slabs is walked one
    sub-slab map of ``_sub_slab_maps`` at a time, as the maps are made:
    num = -i f' + g' zeta and den = f + i g zeta, with f = 1; a list of
    those maps themselves at e, (kfp, gp, f, gk), is walked as given
    (``_linear_walks``).
    Returns the last step undivided, (num, den, r), with r the product of
    the f: zeta(x_to) = num / den and psi(anchor) / psi(x_to) = r / den, so
    a psi-node at x_to is no error (one before it raises
    TransformPoleError).  Raises NonFiniteStateError where a value
    overflows.  The bound-state search walks its real solutions, and
    counts their psi-nodes, with ``_real_walk`` instead.
    """
    num, den, r = z_anchor, 1.0, 1.0
    if slabs and len(slabs[0]) > 2:
        if len(slabs[0]) == 3:
            slabs = _sub_slab_maps(slabs, e, c)[1]
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
                    num, den = z_at, 1.0 + z_at * (1j * dx)
                    continue
                if de > 0.0:
                    k = complex(sqrt(c * de), 0.0)
                else:
                    k = complex(0.0, sqrt(-c * de))
                gamma = 1j * k
                # gamma is finite only where k is
                if not isfinite(gamma):
                    _constants(e, u, c)  # raises
                g = gamma * dx
                if abs(g.real) > _SATURATION_CUT:
                    th = 1.0 if g.real > 0 else -1.0
                    # the saturated form: num, den and f times 2 exp(-th g)
                    c1, c2 = 1.0, th
                    r *= 2.0 * k * cmath.exp(-th * g)
                else:
                    c1, c2 = cosh(g), sinh(g)
                    r *= k
                num, den = k * (z_at * c1 + k * c2), k * c1 + z_at * c2
        except ValueError:
            raise NonFiniteStateError(f"slab phase overflows at energy {e}") from None
    if not (cmath.isfinite(num) and cmath.isfinite(den) and cmath.isfinite(r)):
        raise NonFiniteStateError(f"layer chain overflows at energy {e}")
    return num, den, r


def _real_walk(
    slabs: list[tuple[float, ...]],
    e: float,
    y_anchor: float,
    c: float,
) -> tuple[float, float, int]:
    """Carry a real solution anchored at one end of a slab list
    (``_steps``), or of its sub-slab maps, across it, at a real e, with
    c = 2m/hbar^2, and count its psi-nodes: the bound-state search's
    walk.

    With s the distance walked, the solution starts at psi = 1,
    dpsi/ds = ``y_anchor`` (a decaying tail's kappa, where
    psi'/psi = i zeta is real), and each step maps (p, d), a
    positive multiple of (psi, dpsi/ds), by the slab's real transfer
    matrix over h = |dx|, times a positive factor:

        den = p cs + d sn / k,  num = d cs - p k sn      (cs, sn = cos, sin of k h)
        den = p cs + d sn / kap,  num = d cs + p kap sn  (cosh, sinh of g = kap h <= 1)
        den = A + B exp(-2 g),  num = kap (A - B exp(-2 g))      (g > 1)
        den = p + d h,  num = d                          (a slab at level e)
        den = p f + d g,  num = p f' + d g'              (a linear sub-slab)

    with k or kap = sqrt(c |e - u|) and the linear limit where e
    equals a slab's level to EPS_DEGENERATE.  Past g = 1 the evanescent
    step is split into the parts that grow and decay along the walk,
    A = p + d / kap and B = p - d / kap, over cosh(g) + sinh(g): each
    part keeps its relative accuracy, where the cosh / sinh form would
    lose a decaying psi in the cancellation of two terms of order
    exp(g), and nothing overflows (past _SATURATION_CUT exp(-2 g) is
    below rounding: the saturated form).  Where A is 0 the step is over
    cosh(g) - sinh(g) instead, B alone, so that an underflowing
    exp(-2 g) cannot lose psi.  On a sampled potential the walk takes
    the sub-slab maps at e, (kfp, gp, f, gk) of ``_linear_walks``, in
    place of the linear slabs, and each sub-slab its map's real content,
    (f, f', g, g') in the walk's direction: the sign of g (gk = i g), as
    g / h > 0 on every sub-slab.  Each step
    starts from the last one's (den, num) scaled to p = 1, or to
    (p, d) = (0, 1) where den is exactly 0 (a psi-node on the step's
    start), with psi's sign kept aside: nothing is divided by a
    vanishing psi, and nothing underflows.

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
    den, num, neg, nodes = 1.0, y_anchor, False, 0
    if slabs and len(slabs[0]) > 2:
        # g and f' of a complex map (kfp, gp, f, gk) = (-i f', g', f, i g)
        # in the walk's direction, the sign of g = h (g / h)
        fwd = 1.0 if slabs[0][3].imag > 0.0 else -1.0
        for kfp, gp, f, gk in slabs:
            if den:
                p, d = 1.0, num / den
                if den < 0.0:
                    neg = not neg
            else:
                p, d = 0.0, 1.0
                if num < 0.0:
                    neg = not neg
            den, num = p * f + d * (gk.imag * fwd), p * (kfp.imag * -fwd) + d * gp
            nodes += den <= 0.0 < p
    else:
        sqrt, cos, sin, exp = math.sqrt, math.cos, math.sin, math.exp
        cosh, sinh = math.cosh, math.sinh
        atan2, floor, pi = math.atan2, math.floor, math.pi
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
                    k = sqrt(c * de)
                    kh = k * h
                    cs, sn = cos(kh), sin(kh)
                    if d < 0.0:
                        # theta0 = pi - atan2(k, -d), which would round to pi
                        # for k << |d| and count a node psi never reaches
                        nodes += 1 + floor((kh - atan2(k * p, -d)) / pi)
                    else:
                        nodes += floor((atan2(k * p, d) + kh) / pi)
                    den, num = p * cs + d * (sn / k), d * cs - p * (k * sn)
                else:
                    kap = sqrt(-c * de)
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
                        cs, sn = cosh(g), sinh(g)
                        den, num = p * cs + d * (sn / kap), d * cs + p * (kap * sn)
                    nodes += den <= 0.0 < p
        except (ValueError, ArithmeticError):
            raise NonFiniteStateError(f"slab phase overflows at energy {e}") from None
    if not (math.isfinite(den) and math.isfinite(num)):
        raise NonFiniteStateError(f"real walk overflows at energy {e}")
    return (-den, -num, nodes) if neg else (den, num, nodes)


def _series(a: float, b: float) -> tuple[float, float, float, float]:
    """``_arrays._series`` for one sub-slab, bit for bit: (f, h f', g / h,
    g') at s = h of the fundamental pair of psi'' = (A + B s) psi, given
    a = A h^2 and b = B h^3 with |a| and |b| at most about one (``_split``).
    The same recurrence, d_{k+2} = (a d_k + b d_{k-1}) / ((k+1)(k+2)),
    run to the same last term d_{_SERIES_TERMS}, and the same sums, of
    d_k and of k d_k from k = 1, each added one term at a time, smallest
    first.  Neither ``fsum`` nor the builtin ``sum``, which compensates
    floats from Python 3.12: numpy's sum over rows rounds each addition
    as it comes, and this order keeps the maps within about an ulp of
    the exact sums."""
    # the last three terms d_{k-2}, d_{k-1}, d_k of f and g
    f3, f2, f1 = 0.0, 1.0, 0.0
    g3, g2, g1 = 0.0, 0.0, 1.0
    # the terms d_0, d_1, ... of f and g / h
    fs, gs = [1.0, 0.0], [0.0, 1.0]
    f_term, g_term = fs.append, gs.append
    for w in _SERIES_FACTORS:
        f3, f2, f1 = f2, f1, (a * f2 + b * f3) * w
        g3, g2, g1 = g2, g1, (a * g2 + b * g3) * w
        f_term(f1)
        g_term(g1)
    # from the last term down to d_1; -0.0 + x is x, whatever the sign of
    # a zero x
    f = hfp = gh = gp = -0.0
    for k, df, dg in zip(_SERIES_WEIGHTS, reversed(fs), reversed(gs)):
        f += df
        gh += dg
        hfp += k * df
        gp += k * dg
    return f + fs[0], hfp, gh + gs[0], gp


def _cube_count(cube: float) -> float:
    """The least n >= 0 with n n n >= cube >= 0 in float products, as
    ``_arrays._linear_maps`` finds it: the cube root rounded to an
    integer, and one step up.  The root is within about 1e-15 of the
    exact one, relative, so that integer is the least n or one short of
    it for every count up to _MAX_SUBSLABS, however the root rounds.  A
    cube root alone can round apart in numpy and in Python, and split a
    slab apart."""
    n = float(round(cube ** (1.0 / 3.0)))
    return n + 1.0 if n * n * n < cube else n


def _split(slabs: list[tuple[float, float, float]], lo: float, hi: float, c: float):
    """The split of linear slabs (u_start, slope, dx) for the energies from
    lo to hi, with c = 2m/hbar^2: (count, total), the sub-slabs of each
    slab and their sum.  A slab takes the least number n of equal
    sub-slabs of length h = dx / n with h sqrt(max |A|) <= 1 and
    h^3 |B| <= 1, that is n^3 >= |dx|^3 |B| (``_cube_count``), at every
    such energy, |A| taken at the slab's ends and at lo and hi, as
    ``_arrays._linear_maps`` splits a block: so |a| and |b| of every
    sub-slab are at most one but for rounding.  A width or cube that is
    not finite stands for its n, so that total is not finite either."""
    count, total = [], 0.0
    for u0, slope, dx in slabs:
        u1 = u0 + slope * dx
        reach = max(abs(u0 - lo), abs(u1 - lo), abs(u0 - hi), abs(u1 - hi))
        size = abs(dx)
        width, cube = size * math.sqrt(c * reach), c * abs(slope) * size * size * size
        try:
            n = max(math.ceil(width), int(_cube_count(cube)), 1)
        except (OverflowError, ValueError):  # an infinite or NaN width or cube
            n = width + cube
        count.append(n)
        total += n
    return count, total


def _linear_twin(slabs: list[tuple[float, float, float]], e: float, c: float):
    """``_arrays._linear_steps`` in plain Python, bit for bit: (count,
    steps), the sub-slabs of each linear slab (u_start, slope, dx) at
    energy e, with c = 2m/hbar^2, and an iterator of their (kfp, gp, f,
    gk) in walk order.  The same split (``_split`` at e alone), the same
    a and b of each sub-slab, the same maps from the scalar ``_series``,
    with kfp and gk formed from a real quotient and product as numpy
    forms them, and the same NonFiniteStateError, raised at the call,
    where the split count is not finite or exceeds _MAX_SUBSLABS."""
    count, total = _split(slabs, e, e, c)
    if not total <= _MAX_SUBSLABS:  # NaN included
        raise NonFiniteStateError(f"linear slabs need {total} sub-slabs at energy {e}")

    def steps():
        for (u0, slope, dx), n in zip(slabs, count):
            h = dx / n
            hh = h * h
            b = c * slope * (hh * h)
            if not h:  # h underflowed to 0: numpy's maps are NaN there
                raise NonFiniteStateError(f"linear sub-slab map overflows at energy {e}")
            for i in range(n):
                f, hfp, gh, gp = _series(c * (u0 + slope * (i * h) - e) * hh, b)
                yield complex(0.0, -(hfp / h)), gp, f, complex(0.0, h * gh)

    return count, steps()


def _sub_slab_maps(slabs: list[tuple[float, float, float]], e: float, c: float):
    """The sub-slab maps of a linear slab list at one energy, (count,
    steps) as ``_linear_twin`` gives them, the steps made as they are
    used: from numpy's array series (``_arrays._linear_steps``) where
    numpy is loaded already, so warm walks take it, and from the twin
    elsewhere, so a cold one-energy walk loads no numpy.  Both give the
    same bits."""
    if "numpy" in sys.modules:
        from ._arrays import _linear_steps

        return _linear_steps(slabs, e, c)
    return _linear_twin(slabs, e, c)


def _linear_walks(walks: list[list[tuple[float, float, float]]], e: float, c: float):
    """``_sub_slab_maps`` for consecutive linear slab lists at one
    energy, from one pass: yields each list's maps in turn, as a list
    that ``_chain`` walks as it walks the slabs, and ``_real_walk`` in
    their place.  One call serves them all, where a walk of each would
    make one numpy pass per list: a map depends on its own sub-slab
    alone, so each list's maps are bitwise its own call's."""
    count, steps = _sub_slab_maps([slab for walk in walks for slab in walk], e, c)
    counts = iter(count)
    for walk in walks:
        yield list(islice(steps, sum(islice(counts, len(walk)))))


def _array_pass(pot: Potential, energies: list[float], c: float) -> bool:
    """Whether an energy grid on ``pot`` takes numpy: one array pass
    (``scattering._Incidence.many``) rather than a walk per energy, and
    on a sampled potential numpy's sub-slab series rather than the
    slower twin.  Warm, the array pass is the faster, so yes where numpy
    is loaded already.  Cold, on a piecewise potential, numpy's import
    costs more than walking a grid one energy at a time: no.  Cold, on a
    sampled potential, yes (and numpy is loaded here) only where the
    grid's walks would take more than _IMPORT_MAPS twin maps:
    len(energies) walks across [a, b], each split as one block of the
    grid's energies with c = 2m/hbar^2 (``_split``).  An empty grid is no
    work, and a split count that is not finite is unbounded work."""
    if "numpy" in sys.modules:
        return True
    if not isinstance(pot, SampledPotential) or not energies:
        return False
    per_walk = _split(_steps(pot, pot.a, pot.b), min(energies), max(energies), c)[1]
    if len(energies) * per_walk <= _IMPORT_MAPS:
        return False
    import numpy  # noqa: F401

    return True


def _bridge(pot: Potential, e: float, xs, zs, c: float):
    """psi(xs[i + 1]) / psi(xs[i]) across each interval of a Riccati
    trajectory's samples (xs monotone, zs its zeta there, c = 2m/hbar^2;
    lists, or arrays where numpy is loaded): the walk across the interval
    from the end with the larger |zeta| (the second at a tie), anchored
    at the trajectory's zeta there, so it never divides by a vanishing
    psi and carries sign flips through nodes.  A repeated sample has
    ratio 1, a ratio past the float range is infinite, and descending
    samples give bitwise what the mirror's ascending ones give.  On a
    piecewise potential with numpy loaded already the walks take the
    array pass (``_arrays._anchored_many``) and the ratios are an array;
    the intervals it leaves, and those it took whose evanescent phase
    passes _BRIDGE_PHASE, take the scalar tail (``_bridged``), which
    every interval takes elsewhere, where the ratios are a list."""
    xs, zs = _samples(pot, xs, zs)
    first = _larger(zs, False)
    x0, x1, z0, z1 = xs[:-1], xs[1:], zs[:-1], zs[1:]
    if isinstance(xs, list):
        return _bridged(pot, e, x0, x1, z0, z1, first, c)
    import numpy as np

    from ._arrays import _anchored_many

    starts, ends = np.where(first, x0, x1), np.where(first, x1, x0)
    _, den, r, redo, level = _anchored_many(pot, e, starts, np.where(first, z0, z1), ends, c)
    ratios = _quotients(np.where(first, den, r), np.where(first, r, den))
    # _phase of the one-cell walks
    far = np.sqrt(c * np.maximum(level - e, 0.0)) * np.abs(ends - starts) > _BRIDGE_PHASE
    far[redo] = True
    redo = np.flatnonzero(far)
    if redo.size:
        ratios[redo] = _bridged(pot, e, *(v[redo].tolist() for v in (x0, x1, z0, z1, first)), c)
    return ratios


def _bridged(pot: Potential, e: float, x0: list[float], x1: list[float], z0: list[complex],
             z1: list[complex], first: list[bool], c: float) -> list[complex]:
    """The scalar tail of ``_bridge``: psi(x1) / psi(x0) of each interval,
    zeta (z0, z1) at its ends, walked from its first end where ``first``
    holds.  A walk the way psi decays multiplies its anchor's error by
    about exp(2 sum(kappa |dx|)), so an interval whose evanescent phase
    (``_phase``) passes _BRIDGE_PHASE is walked from its other end too,
    off the same cut (``_turned``), and the walk along which |psi| grows
    more is kept (the first at a tie)."""
    ends = _where(first, x1, x0)
    walks = _walks(pot, _where(first, x0, x1), ends)
    far = [i for i, walk in enumerate(walks) if _phase(walk, e, c) > _BRIDGE_PHASE]
    _, den, r = _anchored(pot, e, walks + [_turned(pot, walks[i], ends[i]) for i in far],
                          _where(first, z0, z1) + [z1[i] if first[i] else z0[i] for i in far], c)
    top, bottom = _where(first, den, r), _where(first, r, den)
    for k, i in enumerate(far, len(first)):
        # |psi|'s growth along each walk, psi(end) / psi(start) = den / r
        if _growth(den[k], r[k]) > _growth(den[i], r[i]):
            top[i], bottom[i] = (r[k], den[k]) if first[i] else (den[k], r[k])
    return _quotients(top, bottom)


def _growth(den: complex, r: complex) -> float:
    """|psi(end) / psi(start)| of a walk, |den| / |r| (infinite at r = 0)."""
    return abs(den) / abs(r) if r else math.inf


def _read(pot: Potential, e: float, xs, zs, grid, c: float, rightward: bool = False):
    """A Riccati trajectory (xs ascending, zs its zeta, c = 2m/hbar^2)
    read at the points of ``grid``: (xs, zs) of its first sample, the
    grid's points strictly inside it, ascending (its own floats, repeats
    kept), and its last sample.  A point on a sample takes that sample's
    zeta, on a repeated sample that of the copy the walk reached first;
    elsewhere zeta is num / den of the walk to the point from the end of
    its interval with the larger |zeta|, at a tie the end the walk
    reached first.  That is the last copy and the second end for a walk
    toward smaller x, the first copy and the first end for one toward
    larger x (``rightward``), so the mirror's read (samples and points
    negated, the other rule) is bitwise the mirror of the read.  The
    walks take ``_bridge``'s routes, and (xs, zs) are arrays where they
    take the array pass, lists elsewhere and for a grid with a point
    that is not finite.  A psi-node on a point raises TransformPoleError,
    a point that is not finite NonFiniteInputError."""
    xs, zs = _samples(pot, xs, zs)
    if not isinstance(xs, list):
        import numpy as np

        from ._arrays import _anchored_many

        points = np.sort(np.asarray(grid, dtype=float), kind="stable")  # stable: a -0.0 keeps its place
        if np.isfinite(points).all():
            points = points[points.searchsorted(xs[0], side="right"):points.searchsorted(xs[-1], side="left")]
            # the copy of a sample a point lies on that the walk reaches
            # first; elsewhere the upper (rightward) or lower end of its
            # interval
            i = xs.searchsorted(points, side="left" if rightward else "right") - (not rightward)
            walked = np.flatnonzero(xs[i] != points)
            lower = i[walked] - rightward
            j = lower + 1 - _larger(zs, rightward)[lower]
            num, den, _, redo, _ = _anchored_many(pot, e, xs[j], zs[j], points[walked], c)
            if redo.size:
                starts, zetas, ends = (v.tolist() for v in (xs[j[redo]], zs[j[redo]], points[walked[redo]]))
                num[redo], den[redo], _ = _anchored(pot, e, _walks(pot, starts, ends), zetas, c)
            if 0 in den:
                _divide(0j, 0)  # raises
            read = zs[i]
            read[walked] = _quotients(num, den)
            return np.concatenate(([xs[0]], points, [xs[-1]])), np.concatenate(([zs[0]], read, [zs[-1]]))
        xs, zs = xs.tolist(), zs.tolist()
    points = sorted(_listed(grid))
    require_finite("grid points", *points)
    points = points[bisect_right(points, xs[0]):bisect_left(points, xs[-1])]
    first, read, walked = _larger(zs, rightward), [], []
    find = bisect_left if rightward else bisect_right
    for k, p in enumerate(points):
        i = find(xs, p) - (not rightward)  # as the array route finds it
        read.append(zs[i])
        if xs[i] != p:
            i -= rightward  # the interval's lower end
            walked.append((k, i + 1 - first[i]))
    walks = _walks(pot, [xs[j] for _, j in walked], [points[k] for k, _ in walked])
    for (k, _), num, den in zip(walked, *_anchored(pot, e, walks, [zs[j] for _, j in walked], c)[:2]):
        read[k] = _divide(num, den)
    return [xs[0], *points, xs[-1]], [zs[0], *read, zs[-1]]


def _samples(pot: Potential, xs, zs):
    """(xs, zs) as ``_bridge`` and ``_read`` walk them: arrays for the
    array pass on a piecewise potential where numpy is loaded already,
    and lists of Python numbers elsewhere."""
    if isinstance(pot, SampledPotential) or "numpy" not in sys.modules:
        return _listed(xs), _listed(zs)
    import numpy as np

    return np.asarray(xs, dtype=float), np.asarray(zs, dtype=complex)


def _listed(values):
    """``values`` with an array turned into a list of Python floats or
    complexes (``tolist``), and any other sequence as it is."""
    return values.tolist() if hasattr(values, "tolist") else values


def _larger(zs, tie: bool):
    """Whether each interval of samples with zeta ``zs`` (a list or an
    array) is walked from its first end: where |zeta| is larger there, or
    as large and ``tie``; an array's |zeta| is Python's (``_arrays._size``)."""
    if isinstance(zs, list):
        sizes = list(map(abs, zs))
        return [p > q or (tie and p == q) for p, q in zip(sizes, sizes[1:])]
    from ._arrays import _size

    sizes = _size(zs)
    return (sizes[:-1] > sizes[1:]) | (tie & (sizes[:-1] == sizes[1:]))


def _where(mask: list[bool], p: list, q: list) -> list:
    """p where ``mask`` holds and q elsewhere, entry by entry."""
    return [a if m else b for m, a, b in zip(mask, p, q)]


def _quotients(tops, bottoms):
    """tops / bottoms entry by entry, infinite where a bottom is zero: a
    list of lists, and an array of arrays, each entry bitwise Python's
    complex division (``_arrays._quotient``)."""
    if isinstance(tops, list):
        return [t / b if b else complex(math.inf) for t, b in zip(tops, bottoms)]
    from ._arrays import _quotient

    out = _quotient(tops, bottoms)
    out[bottoms == 0] = complex(math.inf)
    return out


def _walks(pot: Potential, starts: list[float], ends: list[float]) -> list[list[tuple[float, ...]]]:
    """The ``_cut`` walk from each of ``starts`` to its end, each bitwise
    its own ``_steps``, from one ``_cut`` pass.  The walks come in order
    along x, either way, and a run of walks from one start one way (a
    read's points in one interval) are pieces of the farthest of them;
    the runs' spans may touch but not overlap.  A walk toward smaller x
    is its span turned (``_turned``); a shorter walk takes the first
    slab's step to its end, or, across a join, its own ``_steps``."""
    runs, of, run = [], [], None  # [start, toward larger x, farthest end, walk]
    for a, t in zip(starts, ends):
        if t == a:
            run = None
        elif run is not None and run[0] == a and run[1] == (t > a):
            if t > run[2] if run[1] else t < run[2]:
                run[2] = t
        else:
            run = [a, t > a, t, None]
            runs.append(run)
        of.append(run)
    spans = [(run[0], run[2]) if run[1] else (run[2], run[0]) for run in runs]
    points = []
    for k in range(len(runs)) if not runs or spans[0] <= spans[-1] else range(len(runs) - 1, -1, -1):
        lo, hi = spans[k]
        if not points or points[-1] < lo:
            points.append(lo)
        assert points[-1] == lo, "walks out of order or overlapping"
        runs[k][3] = len(points) - 1
        points.append(hi)
    cuts = _cut(pot, points)
    for run in runs:
        run[3] = cuts[run[3]] if run[1] else _turned(pot, cuts[run[3]], run[0])
    walks = []
    for a, t, run in zip(starts, ends, of):
        if run is None or t == run[2]:
            walks.append(run[3] if run else [])
        else:
            walk = run[3]
            walks.append([(*walk[0][:-1], t - a)] if len(walk) == 1 else _steps(pot, a, t))
    return walks


def _turned(pot: Potential, walk: list[tuple[float, ...]], x: float) -> list[tuple[float, ...]]:
    """A ``_cut`` walk walked back from x, its end: bitwise ``_steps`` from
    x to its start, a line step starting at U from the end of its cell
    where it enters, as ``_cut`` takes it."""
    if not walk or len(walk[0]) == 2:
        return [(u, -dx) for u, dx in reversed(walk)]
    xs, us, n = pot.xs, pot.us, len(pot.xs)
    # the sample at the end of each cell where the turned walk enters it
    step = 1 if walk[0][2] < 0 else -1
    k = bisect_right(xs, x) - 1 if step > 0 else bisect_left(xs, x)
    turned = []
    for u, slope, dx in reversed(walk):
        if 0 <= k < n and 0 <= k + step < n:  # a cell, not a lead
            u = us[k] if turned or x == xs[k] or not slope else us[k] + slope * (x - xs[k])
        turned.append((u, slope, -dx))
        k += step
    return turned


def _anchored(pot: Potential, e: float, walks: list[list[tuple[float, ...]]],
              zetas: list[complex], c: float):
    """Lists (num, den, r) of the ``_chain`` walk of each of ``walks``
    anchored at its zeta, a sampled potential's sub-slab maps from one
    ``_linear_walks`` call: the scalar tail of ``_bridge`` and ``_read``."""
    if isinstance(pot, SampledPotential):
        walks = _linear_walks(walks, e, c)
    steps = [_chain(walk, e, z, c) for walk, z in zip(walks, zetas)]
    return [s[0] for s in steps], [s[1] for s in steps], [s[2] for s in steps]


def _phase(walk: list[tuple[float, ...]], e: float, c: float) -> float:
    """sum(kappa |dx|) over the evanescent steps of a ``_cut`` walk,
    kappa = sqrt(c (u - e)), a linear step's kappa taken at its higher
    end, so the phase is never underestimated."""
    phase = 0.0
    for step in walk:
        u, dx = step[0], step[-1]
        if len(step) == 3:
            u = max(u, u + step[1] * dx)
        if u > e:
            phase += math.sqrt(c * (u - e)) * abs(dx)
    return phase


def _view(rc: RegionConstants, z_at: complex, dx: float) -> tuple[complex, complex, complex, float]:
    """The one-slab ``_chain`` walk of a view across dx from Z = z_at, in
    the units of ``rc.params``: (num, den, r, w), zeta = num / den."""
    c, w = _units(rc.params)
    return (*_chain([(rc.u, dx)], rc.e, complex(z_at.real * w, z_at.imag * w), c), w)


def propagate_impedance(rc: RegionConstants, z_at: complex, dx: float) -> complex:
    """Z(x + dx) given Z(x) inside one constant region (dx of either sign).

    The impedance half of a one-slab ``_chain`` walk: tanh addition law,
    saturated form for thick evanescent slabs.
    """
    num, den, _, w = _view(rc, z_at, dx)
    return _from_zeta(_divide(num, den), w)


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
    num, den, _, w = _view(rc, z_far, -length)
    return _from_zeta(_divide(num, den), w)


def psi_growth_factor(rc: RegionConstants, z_exit: complex, length: float) -> complex:
    """psi(exit) / psi(entry) across one constant slab.

    Computed from the exit-side impedance, which keeps the expression
    cancellation-free even through thick evanescent slabs:

        psi_exit / psi_entry = z / (z cosh(g l) - Z_exit sinh(g l))

    (the ratio half of a one-slab ``_chain`` walk back from the exit, so
    it shares the layer transform's denominator: a finite entry impedance
    guarantees a well-conditioned factor).
    """
    _, den, r, _ = _view(rc, z_exit, -length)
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
    _, den, r, _ = _view(rc, z_entry, length)
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
