"""Scattering observables r, t, R, T for stepped and smooth potentials.

Left incidence works from the transmitted side inward: the right lead
carries a pure outgoing wave, so Z(b) = z2 exactly, and the impedance is
propagated back to the entry interface a.  There

    r = (z1 - Z(a)) / (z1 + Z(a))

is the reflected/incident amplitude ratio at a, and the transmitted
amplitude follows from the accumulated phase integral

    psi(x) = psi(a) exp[(i m / hbar) int_a^x Z dx'],   t = psi(b) e^{-i k2 b}

with psi(a) = (1 + r) e^{i k1 a} for a unit incident wave.  Probability
coefficients are R = |r|^2 and T = (z2 / z1) |t|^2 (current ratio), which
sum to one whenever the far lead propagates.

One helper, ``_Incidence``, carries the far lead's wave to the entry
edge and takes r there, for one energy or a whole grid, for the solve,
the energy sweep and the resonance search (:mod:`qwim.spectral`), which
keep only their own lead phases.  It walks the potential's own slab list from
the far edge, on both engines: for right incidence from a with Z
negated, which is bitwise the mirror's walk, so no mirror is built.
Both kinds of potential use exact layer chaining, sampled ones one
linear sub-slab map at a time (:mod:`qwim.analytic`); with
``cfg.force_numeric`` set, any potential uses the adaptive Riccati
integrator, along the same slab list, with the running integral
tracked.  An energy grid, of a sweep or of the resonance scan, takes
one array pass per slab or sub-slab (:mod:`qwim._arrays`) where numpy
is loaded already, or the potential is sampled, which loads it then
(``analytic._array_pass``).  Points that pass flags (where a single
solve raises, or its values are not finite) are solved again one at a
time.  Elsewhere each energy is walked alone, by the same per-point
code.  ``_Incidence.profile`` cuts the walk at a grid's points in one
pass (``analytic._cut``), for Z and psi along the chain, and
``_Incidence.trajectory`` gives the stepper's walk as lists.

Only the functions that take or make arrays import numpy, so work at
one energy loads none on either engine or kind of potential (a sampled
potential's sub-slab maps come from their plain-Python twin unless
numpy is loaded already), and neither do a piecewise sweep or
resonance scan.  The stepper is imported only by ``force_numeric``
walks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .analytic import _array_pass, _chain, _constants, _cut, _divide, _linear_walks, _steps
from .errors import (
    EvanescentIncidenceError,
    NonFiniteStateError,
    QuadratureDivergenceError,
    SolverError,
)
from .model import (
    IntegrationConfig,
    ModelParams,
    Potential,
    SampledPotential,
    Side,
    require_finite,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, init=False)
class ScatteringResult:
    """Amplitudes and probability coefficients at one energy.

    ``r`` is the reflection ratio at the entry interface; ``t`` the
    transmitted plane-wave coefficient, or the evanescent tail amplitude
    at the far interface when ``evanescent_tail`` is set (then T = 0).
    ``z_entry`` is the impedance the structure presents at the entry
    interface, in the frame of the incidence side.
    """

    e: float
    side: Side
    r: complex
    t: complex
    big_r: float
    big_t: float
    z_entry: complex
    evanescent_tail: bool = False

    def __init__(self, e, side, r, t, big_r, big_t, z_entry, evanescent_tail=False):
        # the generated frozen __init__ makes one object.__setattr__ call
        # per field, three times this one's cost, and a sweep makes one
        # record per energy; the fields and their order are the dataclass's
        d = self.__dict__
        d["e"] = e
        d["side"] = side
        d["r"] = r
        d["t"] = t
        d["big_r"] = big_r
        d["big_t"] = big_t
        d["z_entry"] = z_entry
        d["evanescent_tail"] = evanescent_tail


@dataclass(frozen=True)
class EnergyPointError:
    """Per-point failure record used by energy sweeps."""

    e: float
    code: str
    message: str


class _Incidence:
    """Incidence from ``side``: the far lead's wave carried to the entry
    edge, set up once per solve, sweep, resonance search or profile.

    ``u_in`` and ``u_far`` are the incidence and the far lead's levels,
    ``x_in`` and ``x_far`` the entry and far edges in the frame of
    ``side``, where the lead phases are taken: right incidence sees the
    potential mirrored through x -> -x.  The walk runs in the potential's
    own frame, along one slab list from the far edge to the entry edge
    (``steps``): from b to a for left incidence, and from a to b for
    right, anchored at -z_far with the Z it gives negated.  The step is
    odd under x -> -x, Z -> -Z, so that is the mirror's walk, and no
    mirror is built.  Signed zeros follow the mirror's walk as well: a
    zero part of the chain's num comes from a cancellation, +0 on both
    walks, so each part of num is negated as 0.0 minus it, which keeps
    it +0 where unary minus gives -0; the stepper's Z takes unary minus.
    """

    def __init__(self, pot: Potential, side: Side, cfg: IntegrationConfig, params: ModelParams):
        self.pot, self.cfg, self.params = pot, cfg, params
        self.right = side is Side.RIGHT
        if self.right:
            self.u_in, self.u_far = pot.right_level, pot.left_level
            self.x_in, self.x_far = -pot.b, -pot.a
            self.ends = pot.a, pot.b
        else:
            self.u_in, self.u_far = pot.left_level, pot.right_level
            self.x_in, self.x_far = pot.a, pot.b
            self.ends = pot.b, pot.a
        # the engine: with force_numeric the stepper cuts its own list, and
        # ``steps`` is None; a bare step, with no slabs, takes the chain
        numeric = cfg.force_numeric and pot.a < pot.b
        self.steps = None if numeric else _steps(pot, *self.ends)
        self.walked: dict[float, complex | None] = {}

    def __call__(self, e: float, track: bool = False) -> tuple:
        """The walk at e: (r, tau, num, den, lead_in, lead_far), with
        ``lead_in`` and ``lead_far`` the (z, gamma) of the two leads
        (``analytic._constants``, which raises where e is degenerate with
        either).  The far lead's z is carried to the entry edge along the
        chain (``analytic._chain``), or with ``force_numeric`` along one
        Riccati trajectory (den = 1): Z(entry) = num / den in the frame of
        ``side``.  r and tau are ``_reflect``'s; tau is None on the stepper
        unless ``track`` asks for the running integral S it needs."""
        params = self.params
        lead_in = _constants(e, self.u_in, params)  # degenerate e == u_in raises here
        lead_far = _constants(e, self.u_far, params)
        if self.steps is None:
            _, zs, ss = self.trajectory(e, track=track)
            i = -1 if self.right else 0
            z = zs[i]
            num, den, ratio = (-z if self.right else z), 1.0, None
            if track:
                # S is measured from the far edge, so the integral of Z
                # from the entry edge to the far one is -S(entry); S is
                # even under x -> -x, Z -> -Z
                s = ss[i]
                ratio = cmath.exp(-1j * (params.mass / params.hbar) * s)
        elif self.right:
            num, den, ratio = _chain(self.steps, e, -lead_far[0], params)
            num = complex(0.0 - num.real, 0.0 - num.imag)
        else:
            num, den, ratio = _chain(self.steps, e, lead_far[0], params)
        return (*_reflect(lead_in[0], num, den, ratio), num, den, lead_in, lead_far)

    def many(self, es: np.ndarray) -> tuple:
        """The scalar call over an energy array, from one
        ``_arrays._chain_many`` pass (the chain's engine only, so not
        under ``force_numeric``): (r, tau, num, den, lead_in, lead_far,
        ok), with ``ok`` False wherever the scalar call raises or r is not
        finite; those entries mean nothing."""
        import numpy as np

        from ._arrays import _chain_many, _region_constants_many

        params = self.params
        z1, gamma1, degenerate1 = _region_constants_many(es, self.u_in, params)
        z2, gamma2, degenerate2 = _region_constants_many(es, self.u_far, params)
        if self.right:
            num, den, ratio, ok = _chain_many(self.steps, es, -z2, params)
            num = 0.0 - num  # numpy negates each part as 0.0 minus it
        else:
            num, den, ratio, ok = _chain_many(self.steps, es, z2, params)
        with np.errstate(all="ignore"):
            r, tau = _reflect(z1, num, den, ratio)
        ok &= ~degenerate1 & ~degenerate2 & np.isfinite(r)
        return r, tau, num, den, (z1, gamma1), (z2, gamma2), ok

    def reflection(self, e: float) -> complex | None:
        """r at e from the scalar call; None where it raises a SolverError
        or divides by zero, or r is not finite.  Each energy is walked
        once per helper."""
        if e not in self.walked:
            try:
                r = self(e)[0]
            except (SolverError, ZeroDivisionError):
                r = None
            self.walked[e] = r if r is not None and cmath.isfinite(r) else None
        return self.walked[e]

    def reflections(self, es: list[float]) -> list:
        """``reflection`` at each energy of ``es``.  Where ``_array_pass``
        allows it, and without ``force_numeric``, the grid takes one array
        pass (``many``), and every energy it flags is walked again alone,
        so the energies dropped are exactly those a point-by-point scan
        drops."""
        rs: list = [None] * len(es)
        redo = range(len(es))
        if not self.cfg.force_numeric and _array_pass(self.pot):
            import numpy as np

            r, *_, ok = self.many(np.array(es, dtype=float))
            rs, redo = r.tolist(), np.flatnonzero(~ok).tolist()
        for i in redo:
            rs[i] = self.reflection(es[i])
        return rs

    def profile(self, e: float, grid: list[float]) -> tuple[list[complex], list[complex]]:
        """Z and psi at each point of ``grid`` (ascending from a to b) on
        the chain, in the potential's own frame: the walk from the far
        edge, anchored at the far lead's z as ``trajectory`` is, cut at
        the grid points in one pass (``analytic._cut``), a sampled
        potential's sub-slab maps from one pass too.  Each piece's (num,
        den, r) gives Z at its end, num / den, and psi at its start over
        psi at its end, r / den; psi is relative to psi at the entry edge.
        A psi-node exactly at a grid point raises TransformPoleError, and
        a psi that is not finite QuadratureDivergenceError."""
        params = self.params
        z = _constants(e, self.u_far, params)[0]
        pieces = _cut(self.pot, grid if self.right else grid[::-1])
        if isinstance(self.pot, SampledPotential):
            pieces = _linear_walks(pieces, e, params)
        zs = [-z if self.right else z]
        ratios = []
        for piece in pieces:
            num, den, r = _chain(piece, e, zs[-1], params)
            zs.append(_divide(num, den))
            ratios.append(r / den)
        psi = [1.0 + 0j] * len(zs)
        for i in range(len(ratios) - 1, -1, -1):
            psi[i] = psi[i + 1] * ratios[i]
        if not all(map(cmath.isfinite, psi)):
            raise QuadratureDivergenceError(f"psi along the chain is not finite at energy {e}")
        if not self.right:
            zs.reverse()
            psi.reverse()
        return zs, psi

    def trajectory(self, e: float, track: bool = False, grid=()) -> tuple:
        """The Riccati trajectory of the walk at e, anchored at the far
        lead's z, in the potential's own frame, as the lists (xs, zs, ss)
        of ``riccati._trajectory``, forced through the points of ``grid``:
        the entry edge is its first sample for left incidence, and its
        last, Z negated, for right."""
        from .riccati import _trajectory

        z_far = _constants(e, self.u_far, self.params)[0]
        (start, end), anchor = self.ends, -z_far if self.right else z_far
        return _trajectory(self.pot, e, start, anchor, end, self.cfg, self.params, track, grid)


def _reflect(z1, num, den, ratio) -> tuple:
    """(r, tau) from a walk's undivided Z(entry) = num / den and
    psi(far) / psi(entry) = ratio / den, scalars or arrays:
    r = (z1 - Z) / (z1 + Z), and tau = 2 z1 ratio / (z1 den + num) is
    psi(far) per unit incident wave at the entry edge (None where ratio
    is).  One division serves both, so a psi-node at the entry edge
    (den = 0) leaves both finite."""
    inv = 1.0 / (z1 * den + num)
    r = (z1 * den - num) * inv
    return r, None if ratio is None else 2.0 * z1 * ratio * inv


def solve_scattering(
    pot: Potential,
    e: float,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> ScatteringResult:
    """Scattering amplitudes at energy ``e`` for the given incidence side.

    Right incidence reports its amplitudes in the mirrored
    (incidence-side) frame, so R, T and the moduli are directly
    comparable between sides.  ``e`` is taken as a
    Python float, so a numpy scalar gives the same result.
    """
    require_finite("energy", e)
    e = float(e)
    walk = _Incidence(pot, side, cfg, params)
    if e < walk.u_in:
        raise EvanescentIncidenceError(f"energy {e} below incidence lead {walk.u_in}")
    r, tau, num, den, (z1, gamma1), (z2, gamma2) = walk(e, track=True)
    big_r = abs(r) ** 2
    try:
        psi_b = tau * cmath.exp(1j * gamma1.imag * walk.x_in)
        if e > walk.u_far:
            t = psi_b * cmath.exp(-1j * gamma2.imag * walk.x_far)
            big_t = (z2.real / z1.real) * abs(t) ** 2
            evan = False
        else:
            t = psi_b  # tail amplitude at b: psi(x >= b) = t exp(-kappa2 (x - b))
            big_t = 0.0
            evan = True
    except ValueError:  # cmath.exp of an infinite lead phase k x
        raise NonFiniteStateError(f"lead phase overflows at energy {e}") from None
    z_entry = num / den
    if not all(map(cmath.isfinite, (r, t, big_r, big_t, z_entry))):
        raise NonFiniteStateError(f"amplitudes are not finite at energy {e}")
    return ScatteringResult(
        e=e,
        side=side,
        r=r,
        t=t,
        big_r=big_r,
        big_t=big_t,
        z_entry=z_entry,
        evanescent_tail=evan,
    )


def _sweep_chain(
    pot: Potential, e: np.ndarray, side: Side, cfg: IntegrationConfig, params: ModelParams
) -> tuple[list[ScatteringResult], list[int]]:
    """``solve_scattering`` along the chain for a whole energy grid.

    One ``_chain_many`` pass and the lead formulas as array operations.
    Returns one record per energy and the indices of the flagged points,
    where the scalar solve raises or the array pass is not finite; their
    records mean nothing and the caller solves them one at a time.
    """
    import numpy as np

    walk = _Incidence(pot, side, cfg, params)
    r, tau, num, den, (z1, gamma1), (z2, gamma2), ok = walk.many(e)
    far_propagating = e > walk.u_far
    with np.errstate(all="ignore"):
        z_entry = num / den
        psi_b = tau * np.exp(1j * gamma1.imag * walk.x_in)
        big_r = np.abs(r) ** 2
        t = np.where(
            far_propagating, psi_b * np.exp(-1j * gamma2.imag * walk.x_far), psi_b
        )
        big_t = np.where(
            far_propagating, (z2.real / z1.real) * np.abs(t) ** 2, 0.0
        )
        ok &= (e >= walk.u_in) & np.isfinite(t) & np.isfinite(big_r)
        ok &= np.isfinite(big_t) & np.isfinite(z_entry)
    # positional fields, in ScatteringResult's order: keywords cost more
    # per record, and the records are most of a short sweep
    records = list(map(
        ScatteringResult, e.tolist(), repeat(side), r.tolist(), t.tolist(),
        big_r.tolist(), big_t.tolist(), z_entry.tolist(), (~far_propagating).tolist(),
    ))
    return records, np.flatnonzero(~ok).tolist()


def _energy_array(energies) -> np.ndarray:
    """The grid of ``energy_sweep`` as a float array, for the array pass."""
    import numpy as np

    grid = energies if isinstance(energies, np.ndarray) else list(energies)
    if np.iscomplexobj(grid):
        raise TypeError("energies must be real, got a complex grid")
    e = np.array(grid, dtype=float)
    if e.ndim != 1:
        raise TypeError(f"energies must be a one-dimensional grid, got shape {e.shape}")
    if not np.isfinite(e).all():
        # the message names the first value that is not finite, and an
        # entry numpy read as NaN (None) raises float()'s TypeError
        require_finite("energy", *map(float, grid))
    if not (e[1:] > e[:-1]).all():
        raise ValueError("energy grid must be strictly ascending")
    return e


def _energy_list(energies) -> list[float]:
    """The grid of ``energy_sweep`` as Python floats, with
    ``_energy_array``'s checks and error types, without numpy."""
    from numbers import Complex, Real

    grid = list(energies)  # a scalar raises TypeError here
    if any(isinstance(v, Complex) and not isinstance(v, Real) for v in grid):
        raise TypeError("energies must be real, got a complex grid")
    e = [float(v) for v in grid]  # so does a row of a nested grid
    require_finite("energy", *e)
    if not all(lo < hi for lo, hi in zip(e, e[1:])):
        raise ValueError("energy grid must be strictly ascending")
    return e


def energy_sweep(
    pot: Potential,
    energies,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> list[ScatteringResult | EnergyPointError]:
    """Solve scattering on an ascending energy grid.

    Points are independent; any point that fails with a solver error
    yields an ``EnergyPointError`` record in place so one bad energy
    cannot poison the sweep.  Order is preserved.  Where ``_array_pass``
    allows it, and without ``force_numeric``, the grid is chained in one
    array pass per slab (per sub-slab on a sampled potential); the points
    that pass flags are solved again one at a time, so they carry exactly
    the records ``solve_scattering`` gives.  Elsewhere every point is
    solved so, one at a time.  A complex grid raises TypeError, as a
    Python ``complex`` entry does: its imaginary parts would be dropped.
    """
    batched = _array_pass(pot)
    e = _energy_array(energies) if batched else _energy_list(energies)
    if batched and not cfg.force_numeric:
        out, redo = _sweep_chain(pot, e, side, cfg, params)
    else:
        out, redo = [None] * len(e), range(len(e))
    for i in redo:
        e_i = float(e[i])
        try:
            out[i] = solve_scattering(pot, e_i, side, cfg, params)
        except SolverError as exc:
            out[i] = EnergyPointError(e=e_i, code=exc.code, message=str(exc))
    return out
