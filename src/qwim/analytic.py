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

One slab step, ``_slab``, maps Z(x) to Z(x + dx) and gives the psi
ratio across the step over the same denominator; ``propagate_impedance``,
``layer_transform`` and ``psi_growth_factor`` are views of it.  Where E
equals a slab's level psi is linear across it, and the step takes its
exact limit instead (only a degenerate *lead* is an error).  One walker,
``_chain(slabs, e, z_anchor, params)``, strings those steps along a slab
list that ``_steps`` builds once per stack and end point, and returns
its last step undivided, so a psi-node at the end point is no error; the
piecewise scattering solve and the spectral matching both use it, the
spectral searches with one slab list per side for every energy they
evaluate.  It takes each level's z and gamma from ``_constants``, the
scalar core of ``region_constants`` without the dataclass.
``_chain_many`` is its array twin for a whole energy grid: one array
pass per slab, with an ``ok`` mask marking the energies where the
scalar walk would raise.  Energy sweeps and the scan grids of the
spectral searches use it, and handle the flagged energies again one at
a time.

A sampled potential is linear between its samples, U = u0 + F s, and
there psi'' = (A + B s) psi with A = 2m (u0 - E) / hbar^2 and
B = 2m F / hbar^2.  Its slab list holds (u_start, slope, dx) per sample
interval, and the walkers split each interval into sub-slabs of length
h with h sqrt(max |A|) <= 1 and h |B|^(1/3) <= 1.  There the Taylor
series of the fundamental pair f, g (f = g' = 1, f' = g = 0 at the
start) converges in under 30 terms with no cancellation (``_series``),
and Z maps across the sub-slab exactly as

    Z -> (kappa f' + g' Z) / (f + (g / kappa) Z),   kappa = hbar / (i m),

with psi(start) / psi(end) = 1 / den: the shape of ``_slab``, so the
same walkers carry it (``_linear_maps``).  The sub-slab maps are real
at real E, so the bound-state anchors stay purely imaginary.

Apart from the array passes everything here is scalar complex
arithmetic; the adaptive Riccati integrator in :mod:`qwim.riccati` is
validated against these maps.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEnergyError,
    EvanescentIncidenceError,
    NonFiniteStateError,
    PoleAtXError,
    TransformPoleError,
)
from .model import ModelParams, Potential, SampledPotential, require_finite

# E is degenerate with U when |E - U| <= EPS_DEGENERATE * max(|E|, |U|).
EPS_DEGENERATE = 1e-12
# Pole guard for closed-form tanh evaluation.
EPS_POLE = 1e-10
# Algebraic identities (composition, closed-form agreement) hold to this.
TOL_ALG = 1e-10
# Flux bookkeeping (R + T = 1 and friends) holds to this.
TOL_FLUX = 1e-10

# |Re(gamma * length)| above which cosh/sinh forms are traded for tanh
# forms; keeps thick evanescent slabs overflow-free.
_SATURATION_CUT = 300.0

# Slab-energy pairs per array pass of _chain_many, and sub-slab-energy
# pairs per chunk of linear sub-slab maps.
_BATCH_CELLS = 1 << 15
# Sub-slabs one walk along linear slabs may take at most (seconds of
# walking per energy); a split count past it counts as an overflow.
_MAX_SUBSLABS = 1 << 22


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


@dataclass(frozen=True)
class PhaseConstant:
    """Integration constant phi of Z = z tanh(gamma x + phi).

    ``sign`` 0 marks a finite value; +1 / -1 mark phi = +inf / -inf, the
    saturated pure-traveling-wave solutions Z = +z (pure transmission
    toward +x) and Z = -z.
    """

    value: complex = 0j
    sign: int = 0

    @classmethod
    def finite(cls, value: complex) -> "PhaseConstant":
        return cls(complex(value), 0)

    @classmethod
    def plus_inf(cls) -> "PhaseConstant":
        return cls(0j, +1)

    @classmethod
    def minus_inf(cls) -> "PhaseConstant":
        return cls(0j, -1)

    @property
    def is_infinite(self) -> bool:
        return self.sign != 0


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


def _pole_distance(theta: complex) -> float:
    """Distance from theta to the nearest pole of tanh (i pi/2 + i pi n)."""
    im = (theta.imag - 0.5 * math.pi) % math.pi
    return math.hypot(theta.real, min(im, math.pi - im))


def impedance_at(rc: RegionConstants, phi: PhaseConstant, x: float) -> complex:
    """Evaluate Z(x) = z tanh(gamma x + phi) for one constant region.

    The infinite-phi markers return the saturated values +z / -z exactly.
    """
    if phi.is_infinite:
        return rc.z if phi.sign > 0 else -rc.z
    theta = rc.gamma * x + phi.value
    if _pole_distance(theta) < EPS_POLE * max(1.0, abs(theta)):
        raise PoleAtXError(f"impedance pole at x={x} (theta={theta})")
    return rc.z * cmath.tanh(theta)


def phase_from_impedance(rc: RegionConstants, x: float, z_val: complex) -> PhaseConstant:
    """Invert Z(x) = z tanh(gamma x + phi) for phi.

    The matched values z_val == +z / -z map to the +inf / -inf markers.
    The imaginary part of a finite phi is reduced to the principal strip
    (-pi/2, pi/2] (tanh is i-pi periodic).
    """
    if z_val == rc.z:
        return PhaseConstant.plus_inf()
    if z_val == -rc.z:
        return PhaseConstant.minus_inf()
    phi = cmath.atanh(z_val / rc.z) - rc.gamma * x
    shift = math.ceil((phi.imag - 0.5 * math.pi) / math.pi)
    if shift:
        phi = complex(phi.real, phi.imag - shift * math.pi)
    return PhaseConstant.finite(phi)


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
    ``_chain`` and ``_chain_many`` take either form."""
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
) -> tuple[complex, complex, complex]:
    """Carry an impedance anchored at one end of a slab list (``_steps``)
    across it.

    One ``_slab`` step per constant slab; a slab whose level equals e (to
    EPS_DEGENERATE) carries psi linearly, the z -> 0 limit of the step
    divided by z: num = Z, den = 1 + i (m/hbar) Z dx, f = 1.  A list of
    linear slabs is walked one sub-slab map of ``_linear_maps`` at a
    time: num = kappa f' + g' Z and den = f + (g / kappa) Z, with a psi
    factor of one.  Returns the last step undivided, (num, den, r):
    Z(x_to) = num / den and psi(anchor) / psi(x_to) = r / den, so a
    psi-node at x_to is no error.  Raises NonFiniteStateError where a
    value overflows.
    """
    num, den, r = z_anchor, 1.0, 1.0
    if slabs and len(slabs[0]) == 3:
        flat = np.fromiter(itertools.chain.from_iterable(slabs), float, 3 * len(slabs))
        for maps in _linear_maps(flat.reshape(-1, 3), np.array([e]), params):
            for kfp, gp, f, gk in zip(*(m.ravel().tolist() for m in maps)):
                z_at, r = _divide(num, den), r / den
                num, den = kfp + gp * z_at, f + gk * z_at
    else:
        for u, dx in slabs:
            z_at, ratio = _divide(num, den), r / den
            try:
                z, gamma = _constants(e, u, params)
            except DegenerateEnergyError:
                num, den, r = z_at, 1.0 + z_at * (1j * (params.mass / params.hbar) * dx), ratio
                continue
            num, den, f = _slab(z, gamma, z_at, dx)
            r = ratio * f
    if not (cmath.isfinite(num) and cmath.isfinite(den) and cmath.isfinite(r)):
        raise NonFiniteStateError(f"layer chain overflows at energy {e}")
    return num, den, r


def _series(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(f, h f', g / h, g') at s = h of the fundamental pair of
    psi'' = (A + B s) psi, f(0) = g'(0) = 1 and f'(0) = g(0) = 0, given
    a = A h^2 and b = B h^3 (arrays that broadcast, |a| and |b| at most
    about one).

    The Taylor coefficients of either solution obey
    c_{k+2} = (A c_k + B c_{k-1}) / ((k+1)(k+2)), so d_k = c_k h^k obey
    it with a and b.  The sum stops where three terms in a row of the
    majorant series (|a| and |b| at their largest, d_0 = d_1 = 1) are
    below 2^-56 max(|a|, |b|): under 30 terms, with no cancellation
    beyond that of cos(1).
    """
    alpha, beta = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    tol = 2.0 ** -56 * max(alpha, beta)
    majorant = [0.0, 1.0, 1.0]
    while max(majorant[-3:]) > tol:
        k = len(majorant) - 3
        majorant.append((alpha * majorant[-2] + beta * majorant[-3]) / ((k + 1) * (k + 2)))
    # d[k + 1] holds d_k of both solutions side by side; d[0] is d_{-1} = 0
    d = np.zeros((len(majorant), 2) + np.broadcast(a, b).shape)
    d[1, 0] = d[2, 1] = 1.0
    for k in range(len(majorant) - 3):
        new = np.multiply(a, d[k + 1], out=d[k + 3])
        new += b * d[k]
        new *= 1.0 / ((k + 1) * (k + 2))
    s0 = d.sum(axis=0)
    s1 = np.tensordot(np.arange(-1.0, len(majorant) - 1), d, axes=1)
    return s0[0], s1[0], s0[1], s1[1]


def _linear_maps(slabs: np.ndarray, es: np.ndarray, params: ModelParams):
    """The sub-slab maps of a linear slab list (rows (u_start, slope, dx))
    over an energy array: an iterator over them in walk order, in chunks
    of at most _BATCH_CELLS sub-slab-energy pairs, (kfp, gp, f, gk), each
    of shape (sub-slabs, energies).  One sub-slab carries Z to
    (kfp + gp Z) / (f + gk Z), over the same denominator as the psi
    ratio psi(start) / psi(end) = 1 / (f + gk Z).

    Each slab is split into n equal sub-slabs of length h, so that
    h sqrt(max |A|) <= 1 and h |B|^(1/3) <= 1 for every energy, with
    psi'' = (A + B s) psi, A = 2m (U - E) / hbar^2 at the start of the
    sub-slab and B = 2m slope / hbar^2.  The fundamental pair f, g comes
    from ``_series``; with kappa = hbar / (i m), kfp = kappa f',
    gp = g' and gk = g / kappa.  Raises NonFiniteStateError where the
    split count is not finite or exceeds _MAX_SUBSLABS.
    """
    u0, slope, dx = slabs.T
    c = 2.0 * params.mass / params.hbar ** 2
    with np.errstate(all="ignore"):
        lo, hi = np.min(es), np.max(es)
        u1 = u0 + slope * dx
        reach = np.maximum(
            np.maximum(np.abs(u0 - lo), np.abs(u0 - hi)),
            np.maximum(np.abs(u1 - lo), np.abs(u1 - hi)),
        )
        width = np.abs(dx) * np.maximum(np.sqrt(c * reach), np.cbrt(np.abs(c * slope)))
        count = np.maximum(np.ceil(width), 1.0)
        total = float(np.sum(count))
    if not total <= _MAX_SUBSLABS:  # NaN included
        raise NonFiniteStateError(
            f"linear slabs need {total} sub-slabs at energies {lo} to {hi}"
        )
    count = count.astype(np.intp)
    first = np.cumsum(count) - count
    inv_kappa = 1j * params.mass / params.hbar
    chunk = max(1, _BATCH_CELLS // len(es))

    # the checks above run at the call; the maps are made as they are used
    def chunks():
        with np.errstate(all="ignore"):
            for k0 in range(0, int(total), chunk):
                k = np.arange(k0, min(k0 + chunk, int(total)))
                j = np.searchsorted(first, k, side="right") - 1
                h = dx[j] / count[j]
                u = u0[j] + slope[j] * ((k - first[j]) * h)
                h, hh = h[:, None], (h * h)[:, None]
                f, hfp, gh, gp = _series(
                    c * (u[:, None] - es) * hh, (c * slope[j])[:, None] * (hh * h)
                )
                yield hfp / (inv_kappa * h), gp, f, (inv_kappa * h) * gh

    return chunks()


def _region_constants_many(
    es: np.ndarray, u, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``region_constants`` over an energy array: (z, gamma, degenerate).

    Same arithmetic and branch as the scalar form; ``u`` may be a column
    of levels, giving one row per level.  ``degenerate`` marks where the
    scalar form raises DegenerateEnergyError; z and gamma vanish there.
    Where the scalar form overflows, z and gamma are not finite.
    """
    with np.errstate(all="ignore"):
        de = es - u
        degenerate = np.abs(de) <= EPS_DEGENERATE * np.maximum(np.abs(es), np.abs(u))
        # the principal root of (negative real + 0j) is +i sqrt(|x|): z's branch
        z = np.sqrt(2.0 * de / params.mass + 0j)
        return z, 1j * (params.mass / params.hbar) * z, degenerate


def _chain_many(
    slabs: list[tuple[float, ...]],
    es: np.ndarray,
    z_anchor: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_chain`` over an energy array: (num, den, r, ok).

    The slab constants, cosh/sinh and the saturated-branch factors of
    every slab crossed come from one array pass; the slab-to-slab
    recurrence is then a few array operations per slab, with ``_slab``'s
    arithmetic and ``_chain``'s limit at a slab level.  Linear slabs take
    the sub-slab maps of ``_linear_maps`` instead, split for the range
    of each block of energies.  ``ok`` is False wherever the scalar walk
    raises (a zero denominator short of the end, a value that is not
    finite), and for a whole block whose split count overflows; those
    entries mean nothing.  Energies are taken in blocks of at most
    _BATCH_CELLS slab-energy pairs, which bounds the temporaries.
    """
    z_anchor = np.broadcast_to(np.asarray(z_anchor, dtype=complex), es.shape)
    block = max(1, _BATCH_CELLS // max(1, len(slabs)))
    if slabs and len(slabs[0]) == 3:
        walk, slabs = _linear_many, np.array(slabs, dtype=float)
    else:
        walk, slabs = _slabs_many, np.array(slabs, dtype=float).reshape(-1, 2).T[..., None]
    parts = [
        walk(slabs, es[i:i + block], z_anchor[i:i + block], params)
        for i in range(0, max(1, len(es)), block)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _linear_many(slabs, es, z, params):
    """The pass of ``_chain_many`` along linear slabs over one block of
    energies: ``_chain``'s sub-slab walk, one array step per sub-slab."""
    num, den, r = z, np.ones_like(z), np.ones_like(z)
    try:
        maps = _linear_maps(slabs, es, params) if len(es) else ()
    except NonFiniteStateError:
        nan = np.full_like(z, np.nan)
        return nan, nan, nan, np.zeros(len(es), dtype=bool)
    with np.errstate(all="ignore"):
        for kfp, gp, f, gk in maps:
            for i in range(len(f)):
                z, r = num / den, r / den
                num, den = kfp[i] + gp[i] * z, f[i] + gk[i] * z
        ok = np.isfinite(num) & np.isfinite(den) & np.isfinite(r)
    return num, den, r, ok


def _slabs_many(slabs, es, z, params):
    """The array pass of ``_chain_many`` over one block of energies."""
    u, dx = slabs
    with np.errstate(all="ignore"):
        zs, gamma, degenerate = _region_constants_many(es, u, params)
        g = gamma * dx
        sat = np.abs(g.real) > _SATURATION_CUT
        th = np.sign(g.real) * sat
        g_cut = np.where(sat, 0.0, g)  # keeps cosh/sinh finite where unused
        # _slab's saturated branch divides through by exp(|Re g|) / 2:
        # cosh -> 1, sinh -> th, and f gains 2 exp(-th g)
        c1 = np.where(sat, 1.0, np.cosh(g_cut))
        c2 = np.where(sat, th, np.sinh(g_cut))
        zc1, zc2 = zs * c1, zs * c2
        f = np.where(sat, 2.0 * zs * np.exp(-th * g), zs)
        if degenerate.any():
            # _chain's linear step at a slab level: num = Z,
            # den = 1 + Z i (m/hbar) dx, f = 1
            zs, c1, zc1, f = (np.where(degenerate, 1.0, v) for v in (zs, c1, zc1, f))
            zc2 = np.where(degenerate, 0.0, zc2)
            c2 = np.where(degenerate, 1j * (params.mass / params.hbar) * dx, c2)
        num, den, r = z, np.ones_like(z), np.ones_like(z)
        for i in range(len(zs)):
            z, ratio = num / den, r / den
            num = zs[i] * (z * c1[i] + zc2[i])
            den = zc1[i] + z * c2[i]
            r = ratio * f[i]
        ok = np.isfinite(num) & np.isfinite(den) & np.isfinite(r)
    return num, den, r, ok


def propagate_impedance(rc: RegionConstants, z_at: complex, dx: float) -> complex:
    """Z(x + dx) given Z(x) inside one constant region (dx of either sign).

    The impedance half of ``_slab``: tanh addition law, saturated form
    for thick evanescent slabs.
    """
    return _divide(*_slab(rc.z, rc.gamma, z_at, dx)[:2])


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
    return _divide(*_slab(rc.z, rc.gamma, z_far, -length)[:2])


def psi_growth_factor(rc: RegionConstants, z_exit: complex, length: float) -> complex:
    """psi(exit) / psi(entry) across one constant slab.

    Computed from the exit-side impedance, which keeps the expression
    cancellation-free even through thick evanescent slabs:

        psi_exit / psi_entry = z / (z cosh(g l) - Z_exit sinh(g l))

    (the ratio half of ``_slab`` stepping back from the exit, so it shares
    the layer transform's denominator: a finite entry impedance
    guarantees a well-conditioned factor).
    """
    _, den, f = _slab(rc.z, rc.gamma, z_exit, -length)
    return _divide(f, den)


def _psi_growth_entry(rc: RegionConstants, z_entry: complex, length: float) -> complex:
    """psi(exit) / psi(entry) across one constant slab, from the entry side.

        psi_exit / psi_entry = cosh(g l) + (Z_entry / z) sinh(g l)

    Algebraically the same ratio as psi_growth_factor, but conditioned
    the opposite way: it stays accurate when the slab starts at or near
    a psi-node (|Z_entry| large), where the exit-side denominator would
    cancel catastrophically.  Chaining both forms so that each factor
    references the larger-|Z| endpoint makes a near-node sample appear
    only as 1/Z, which cancels exactly between adjacent slabs.
    """
    g = rc.gamma * length
    if abs(g.real) > _SATURATION_CUT:
        sgn = 1.0 if g.real > 0 else -1.0
        grow = 1.0 + sgn * z_entry / rc.z
        if abs(grow) < 1e-280:
            return 0.5 * (1.0 - sgn * z_entry / rc.z) * cmath.exp(-sgn * g)
        return 0.5 * cmath.exp(sgn * g + cmath.log(grow))
    return cmath.cosh(g) + (z_entry / rc.z) * cmath.sinh(g)


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
