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

One walker, ``_chain(slabs, e, z_anchor, params)``, steps Z and psi
across a slab list that ``_steps`` builds once per stack and end point.
Each constant slab is one step of the tanh addition law: it maps Z(x) to
Z(x + dx) and gives the psi ratio across the step over the same
denominator.  Where E equals a slab's level psi is linear across it, and
the step takes its exact limit instead (only a degenerate *lead* is an
error).  The walker returns its last step undivided, so a psi-node at
the end point is no error.  ``propagate_impedance``, ``layer_transform``
and ``psi_growth_factor`` are walks of one slab.  The piecewise
scattering solve and the spectral matching use the walker too, the
spectral searches with one slab list per side for every energy they
evaluate.
It computes each level's z and gamma and the step itself inline, in the
arithmetic of ``_constants`` (the scalar core of ``region_constants``),
and on request also counts the psi-nodes a real solution crosses: the
bound-state search's Sturm count.
``_chain_many`` in :mod:`qwim._arrays` is its array twin for a whole
energy grid: one array pass per slab, with an ``ok`` mask marking the
energies where the scalar walk would raise.  Energy sweeps and the scan
grids of the spectral searches use it, and handle the flagged energies
again one at a time.

A sampled potential is linear between its samples, U = u0 + F s, and
there psi'' = (A + B s) psi with A = 2m (u0 - E) / hbar^2 and
B = 2m F / hbar^2.  Its slab list holds (u_start, slope, dx) per sample
interval, and the walkers split each interval into sub-slabs short
enough that a Taylor series of the fundamental pair converges fast
(``_arrays._series``); Z maps across each sub-slab as

    Z -> (kappa f' + g' Z) / (f + (g / kappa) Z),   kappa = hbar / (i m),

with psi(start) / psi(end) = 1 / den: the shape of a constant slab's
step, so the same walkers carry it (``_arrays._linear_maps``).  The
sub-slab maps are real at real E, so the bound-state anchors stay purely
imaginary.

Everything here is scalar complex arithmetic, and this module imports
no numpy, so a piecewise solve loads none: ``_chain`` imports
:mod:`qwim._arrays`, and numpy with it, only to walk linear slabs.  The
adaptive Riccati integrator in :mod:`qwim.riccati` is validated against
these maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def _steps(pot: Potential, x_to: float, from_left: bool) -> list[tuple[float, ...]]:
    """The slab list of a walk from the anchor (a if ``from_left``, else
    b) to x_to, one step per slab: (level, dx) of each segment of a
    piecewise potential, (u_start, slope, dx) of each sample interval of
    a sampled one, with u_start the potential where the step starts and
    slope its dU/dx.  The slab holding x_to is a partial step.
    ``_chain`` and ``_arrays._chain_many`` take either form."""
    steps = []
    if isinstance(pot, SampledPotential):
        xs, us = pot.xs, pot.us
        if from_left:
            for i in range(len(xs) - 1):
                x0, x1 = xs[i], xs[i + 1]
                if x0 >= x_to:
                    break
                steps.append((us[i], (us[i + 1] - us[i]) / (x1 - x0), min(x1, x_to) - x0))
        else:
            for i in range(len(xs) - 2, -1, -1):
                x0, x1 = xs[i], xs[i + 1]
                if x1 <= x_to:
                    break
                steps.append((us[i + 1], (us[i + 1] - us[i]) / (x1 - x0), max(x0, x_to) - x1))
        return steps
    if from_left:
        for seg in pot.segments:
            if seg.x_start >= x_to:
                break
            steps.append((seg.u, min(seg.x_end, x_to) - seg.x_start))
    else:
        for seg in reversed(pot.segments):
            if seg.x_end <= x_to:
                break
            steps.append((seg.u, max(seg.x_start, x_to) - seg.x_end))
    return steps


def _mirrored_steps(pot: Potential) -> list[tuple[float, ...]]:
    """The slab list of ``pot.mirrored()`` walked from its right end to
    its left: the walk from a to b with every step, and every slope,
    negated.  x -> -x is exact, so this is bitwise the mirror's list, and
    no mirror is built."""
    steps = _steps(pot, pot.b, True)
    if isinstance(pot, SampledPotential):
        return [(u, -slope, -dx) for u, slope, dx in steps]
    return [(u, -dx) for u, dx in steps]


def _chain(
    slabs: list[tuple[float, ...]],
    e: float,
    z_anchor: complex,
    params: ModelParams,
    count: bool = False,
) -> tuple:
    """Carry an impedance anchored at one end of a slab list (``_steps``)
    across it.

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
    one sub-slab map of ``_arrays._linear_maps`` at a time:
    num = kappa f' + g' Z and den = f + (g / kappa) Z, with f = 1.
    Returns the last step undivided, (num, den, r), with r the product of
    the f: Z(x_to) = num / den and psi(anchor) / psi(x_to) = r / den, so
    a psi-node at x_to is no error (one before it raises
    TransformPoleError).  Raises NonFiniteStateError where a value
    overflows.

    With ``count``, for a real solution (a purely imaginary anchor at a
    real e), returns (num, den, r, nodes): the psi-nodes crossed, each on
    the half-open step (start, end] once; the bound-state search's Sturm
    count.  With psi'/psi = i (m/hbar) Z and s the distance walked, a
    propagating slab turns the Pruefer angle theta (tan theta =
    k psi / (dpsi/ds), theta0 in (0, pi)) by exactly k |dx|, so it
    crosses floor((theta0 + k |dx|) / pi) nodes.  An evanescent slab, a
    slab at level e (psi linear) and a linear sub-slab
    (h sqrt(max |A|) <= 1 < pi) each hold at most one node, there iff
    psi(end) / psi(start) <= 0: den / z across an evanescent slab (the
    saturated form divides by a positive factor), den across the others.
    """
    num, den, r, nodes = z_anchor, 1.0, 1.0, 0
    m = params.mass
    i_m = 1j * (m / params.hbar)
    if slabs and len(slabs[0]) == 3:
        from ._arrays import _linear_steps

        for kfp, gp, f, gk in _linear_steps(slabs, e, params):
            z_at, r = _divide(num, den), r / den
            num, den = kfp + gp * z_at, f + gk * z_at
            if count:
                nodes += den.real <= 0.0
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
                    if count:
                        nodes += den.real <= 0.0
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
                if not count:
                    continue
                if de > 0.0:
                    k = gamma.imag
                    # psi'/psi in the direction of the walk
                    slope = (i_m * z_at).real if dx > 0.0 else -(i_m * z_at).real
                    if slope < 0.0:
                        # theta0 = pi - atan2(k, -slope), which would round to
                        # pi for k << |slope| and count a node psi never reaches
                        nodes += 1 + math.floor((k * abs(dx) - math.atan2(k, -slope)) / math.pi)
                    else:
                        nodes += math.floor((math.atan2(k, slope) + k * abs(dx)) / math.pi)
                else:
                    nodes += (den / z).real <= 0.0
        except ValueError:
            raise NonFiniteStateError(f"slab phase overflows at energy {e}") from None
    if not (cmath.isfinite(num) and cmath.isfinite(den) and cmath.isfinite(r)):
        raise NonFiniteStateError(f"layer chain overflows at energy {e}")
    return (num, den, r, nodes) if count else (num, den, r)


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
    kb l = n pi.
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
