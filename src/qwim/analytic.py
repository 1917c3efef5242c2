"""Closed-form impedance algebra for constant-potential regions.

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
``layer_transform`` and ``psi_growth_factor`` are views of it.  One
walker, ``_chain``, strings those steps across a piecewise stack and
returns its last step undivided, so a psi-node at the end point is no
error; the piecewise scattering solve and the spectral matching both use
it.  ``_chain_many`` is its array twin for a whole energy grid: one array
pass per slab, with an ``ok`` mask marking the energies where the
scalar walk would raise.  Piecewise energy sweeps and the scan grids of
the spectral searches use it, and handle the flagged energies again one
at a time.

Apart from those array twins everything here is exact scalar complex
arithmetic; the adaptive Riccati integrator in :mod:`qwim.riccati` is
validated against these formulas.
"""

from __future__ import annotations

import cmath
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
from .model import ModelParams, PiecewisePotential, require_finite

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

# Slab-energy pairs per array pass of _chain_many.
_BATCH_CELLS = 1 << 15


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


def region_constants(e: float, u: float, params: ModelParams = ModelParams()) -> RegionConstants:
    """Characteristic constants of a constant region at energy ``e``.

    Raises DegenerateEnergyError when e and u coincide to relative
    EPS_DEGENERATE: both z and gamma vanish there and the tanh family
    degenerates.  Raises NonFiniteStateError when z or gamma overflows
    (a finite level such as -1e308).
    """
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


def _slab(rc: RegionConstants, z_at: complex, dx: float) -> tuple[complex, complex, complex]:
    """One step of dx (either sign) inside a constant region.

    Returns (num, den, f) given Z(x), with Z(x + dx) = num / den and
    psi(x) / psi(x + dx) = f / den.  With g = gamma dx both follow from
    the tanh addition law and share one denominator,

        num = z (Z cosh g + z sinh g),   den = z cosh g + Z sinh g,
        f = z,

    so den -> 0 is a psi-node at x + dx; ``_divide`` raises only where
    den is exactly zero.  Thick evanescent steps divide all three through
    by the dominant exponential first, so cosh/sinh never overflow.
    """
    g = rc.gamma * dx
    if abs(g.real) > _SATURATION_CUT:
        th = 1.0 if g.real > 0 else -1.0
        c1, c2 = 1.0, th
        # num, den and f are the full ones times 2 exp(-th g)
        f = 2.0 * rc.z * cmath.exp(-th * g)
    else:
        c1, c2 = cmath.cosh(g), cmath.sinh(g)
        f = rc.z
    return rc.z * (z_at * c1 + rc.z * c2), rc.z * c1 + z_at * c2, f


def _divide(x: complex, den: complex) -> complex:
    """x / den for a slab step's num or f; raises TransformPoleError only
    where den is exactly zero (a psi-node at the step's end)."""
    if den == 0:
        raise TransformPoleError("impedance pole: psi-node at the end of a slab step")
    return x / den


def _steps(pot: PiecewisePotential, x_to: float, from_left: bool) -> list[tuple[float, float]]:
    """(level, dx) of each slab step from the anchor (a if ``from_left``,
    else b) to x_to; the slab holding x_to is a partial step."""
    steps = []
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


def _chain(
    pot: PiecewisePotential,
    e: float,
    z_anchor: complex,
    x_to: float,
    from_left: bool,
    params: ModelParams,
) -> tuple[complex, complex, complex]:
    """Carry an impedance anchored at one end of a piecewise stack to x_to.

    One ``_slab`` step per slab of ``_steps``.  Returns the last step
    undivided, (num, den, r): Z(x_to) = num / den and
    psi(anchor) / psi(x_to) = r / den, so a psi-node at x_to is no error.
    Raises NonFiniteStateError where a value overflows.
    """
    num, den, r = z_anchor, 1.0, 1.0
    for u, dx in _steps(pot, x_to, from_left):
        z, ratio = _divide(num, den), r / den
        num, den, f = _slab(region_constants(e, u, params), z, dx)
        r = ratio * f
    if not (cmath.isfinite(num) and cmath.isfinite(den) and cmath.isfinite(r)):
        raise NonFiniteStateError(f"layer chain overflows at energy {e}")
    return num, den, r


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
    pot: PiecewisePotential,
    es: np.ndarray,
    z_anchor: np.ndarray,
    x_to: float,
    from_left: bool,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_chain`` over an energy array: (num, den, r, ok).

    The slab constants, cosh/sinh and the saturated-branch factors of
    every slab crossed come from one array pass; the slab-to-slab
    recurrence is then a few array operations per slab, with ``_slab``'s
    arithmetic.  ``ok`` is False wherever the scalar walk raises (energy
    degenerate with a crossed slab, a zero denominator short of x_to, a
    value that is not finite); those entries mean nothing.  Energies are
    taken in blocks of at most _BATCH_CELLS slab-energy pairs, which
    bounds the temporaries.
    """
    steps = _steps(pot, x_to, from_left)
    u, dx = np.array(steps, dtype=float).reshape(-1, 2).T[..., None]
    z_anchor = np.broadcast_to(np.asarray(z_anchor, dtype=complex), es.shape)
    block = max(1, _BATCH_CELLS // max(1, len(steps)))
    parts = [
        _slabs_many(u, dx, es[i:i + block], z_anchor[i:i + block], params)
        for i in range(0, max(1, len(es)), block)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _slabs_many(u, dx, es, z, params):
    """The array pass of ``_chain_many`` over one block of energies."""
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
        num, den, r = z, np.ones_like(z), np.ones_like(z)
        for i in range(len(zs)):
            z, ratio = num / den, r / den
            num = zs[i] * (z * c1[i] + zc2[i])
            den = zc1[i] + z * c2[i]
            r = ratio * f[i]
        ok = ~degenerate.any(axis=0) & np.isfinite(num) & np.isfinite(den)
        ok &= np.isfinite(r)
    return num, den, r, ok


def propagate_impedance(rc: RegionConstants, z_at: complex, dx: float) -> complex:
    """Z(x + dx) given Z(x) inside one constant region (dx of either sign).

    The impedance half of ``_slab``: tanh addition law, saturated form
    for thick evanescent slabs.
    """
    return _divide(*_slab(rc, z_at, dx)[:2])


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
    return _divide(*_slab(rc, z_far, -length)[:2])


def psi_growth_factor(rc: RegionConstants, z_exit: complex, length: float) -> complex:
    """psi(exit) / psi(entry) across one constant slab.

    Computed from the exit-side impedance, which keeps the expression
    cancellation-free even through thick evanescent slabs:

        psi_exit / psi_entry = z / (z cosh(g l) - Z_exit sinh(g l))

    (the ratio half of ``_slab`` stepping back from the exit, so it shares
    the layer transform's denominator: a finite entry impedance
    guarantees a well-conditioned factor).
    """
    _, den, f = _slab(rc, z_exit, -length)
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
