"""Scattering observables r, t, R, T for stepped and smooth potentials.

Left incidence works from the transmitted side inward: the right lead
carries a pure outgoing wave, so Z(b) = z2 exactly, and the impedance is
propagated back to the entry interface a.  There

    r = (z1 - Z(a)) / (z1 + Z(a))

is the reflected/incident amplitude ratio at a, the same in
zeta = (m/hbar) Z, which the walks carry.  The transmitted amplitude is
t = psi(b) e^{-i k2 b}, with psi(a) = (1 + r) e^{i k1 a} for a unit
incident wave and psi(b) / psi(a) from the same walk.  Probability
coefficients are R = |r|^2 and T = (z2 / z1) |t|^2 (current ratio),
which sum to one whenever the far lead propagates.  On the Riccati
stepper T is the current at the entry edge,

    T = 4 Re z1 Re Z(a) / |z1 + Z(a)|^2,

which is 1 - R without its cancellation, and psi(b) / psi(a) is the
product of the trajectory's psi bridges (``analytic._bridge``).

One helper, ``_Incidence``, takes the units (``analytic._units``),
carries the far lead's wave to the entry edge and takes r there, for
one energy or a whole grid, for the solve, the energy sweep and the
resonance search (:mod:`qwim.spectral`).  It walks the potential's own
slab list from the far edge, on both engines: for right incidence from
a with zeta negated, which is bitwise the mirror's walk.  Both kinds of
potential use exact layer chaining (:mod:`qwim.analytic`); with
``cfg.force_numeric`` set, the adaptive Riccati integrator walks the
same slab list.  An energy grid takes one array pass per slab or
sub-slab (:mod:`qwim._arrays`) where ``analytic._array_pass`` allows
it, and the points that pass flags are solved again one at a time.
Along x the helper gives the field of its own walk: ``impedance`` is Z
at a grid's points, and ``wavefunction`` psi per unit incident wave.

Only the functions that take or make arrays import numpy, so work at
one energy loads none, and neither do a piecewise sweep or resonance
scan, nor one on a sampled potential whose walks cost less than
numpy's import.  The stepper is imported only by ``force_numeric``
walks.
"""

from __future__ import annotations

import cmath
import sys
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .analytic import (
    _array_pass, _bridge, _chain, _constants, _cut, _divide, _from_zeta, _linear_walks, _listed, _read,
    _steps, _units,
)
from .errors import (
    EvanescentIncidenceError,
    NonFiniteStateError,
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
    right, anchored at -k_far with the zeta it gives negated.  The walks
    carry zeta = (m/hbar) Z, the units taken here (``analytic._units``),
    and only ``impedance`` and the solves' ``z_entry`` give Z.  The step
    is odd under x -> -x, zeta -> -zeta, so that is the mirror's walk,
    and no mirror is built.  On the stepper the walk is one trajectory
    of zeta alone, bridged for psi only where t or psi (``psi``) is
    asked for.  Signed zeros follow the mirror's walk as well: a zero
    part of the chain's num comes from a cancellation, +0 on both walks,
    so each part of num is negated as 0.0 minus it, which keeps it +0
    where unary minus gives -0; the stepper's zeta takes unary minus.
    """

    def __init__(self, pot: Potential, side: Side, cfg: IntegrationConfig, params: ModelParams):
        self.pot, self.cfg = pot, cfg
        self.c, self.w = _units(params)
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

    def __call__(self, e: float, bridge: bool = False) -> tuple:
        """The walk at e: (r, tau, num, den, lead_in, lead_far), with
        ``lead_in`` and ``lead_far`` the characteristic impedances k of
        the two leads (``analytic._constants``, which raises where e is
        degenerate with either).  The far lead's k is carried to the
        entry edge along the chain (``analytic._chain``), or with
        ``force_numeric`` along one Riccati trajectory (den = 1):
        zeta(entry) = num / den in the frame of ``side``.  r and tau are
        ``_reflect``'s; tau is None on the stepper unless ``bridge`` asks
        for psi(far) / psi(entry), the far end of the trajectory's own
        field (``psi``), which r does not need."""
        lead_in = _constants(e, self.u_in, self.c)  # degenerate e == u_in raises here
        lead_far = _constants(e, self.u_far, self.c)
        if self.steps is None:
            xs, zs = self.trajectory(e)
            z = zs[-1] if self.right else zs[0]
            num, den = (-z if self.right else z), 1.0
            ratio = self.psi(e, xs, zs)[0 if self.right else -1] if bridge else None
        elif self.right:
            num, den, ratio = _chain(self.steps, e, -lead_far, self.c)
            num = complex(0.0 - num.real, 0.0 - num.imag)
        else:
            num, den, ratio = _chain(self.steps, e, lead_far, self.c)
        return (*_reflect(lead_in, num, den, ratio), num, den, lead_in, lead_far)

    def many(self, es: np.ndarray) -> tuple:
        """The scalar call over an energy array, from one
        ``_arrays._chain_many`` pass (the chain's engine only, so not
        under ``force_numeric``): (r, tau, num, den, lead_in, lead_far,
        ok), with ``ok`` False wherever the scalar call raises or r is not
        finite; those entries mean nothing."""
        import numpy as np

        from ._arrays import _chain_many, _region_constants_many

        k1, degenerate1 = _region_constants_many(es, self.u_in, self.c)
        k2, degenerate2 = _region_constants_many(es, self.u_far, self.c)
        if self.right:
            num, den, ratio, ok = _chain_many(self.steps, es, -k2, self.c)
            num = 0.0 - num  # numpy negates each part as 0.0 minus it
        else:
            num, den, ratio, ok = _chain_many(self.steps, es, k2, self.c)
        with np.errstate(all="ignore"):
            r, tau = _reflect(k1, num, den, ratio)
        ok &= ~degenerate1 & ~degenerate2 & np.isfinite(r)
        return r, tau, num, den, k1, k2, ok

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
        allows it for these energies, and without ``force_numeric``, the
        grid takes one array pass (``many``), and every energy it flags is
        walked again alone, so the energies dropped are exactly those a
        point-by-point scan drops."""
        rs: list = [None] * len(es)
        redo = range(len(es))
        if not self.cfg.force_numeric and _array_pass(self.pot, es, self.c):
            import numpy as np

            r, *_, ok = self.many(np.array(es, dtype=float))
            rs, redo = r.tolist(), np.flatnonzero(~ok).tolist()
        for i in redo:
            rs[i] = self.reflection(es[i])
        return rs

    def impedance(self, e: float, grid: list[float]) -> list[complex]:
        """Z at each point of ``grid``: ``zeta``'s values over w."""
        w = self.w
        return [_from_zeta(z, w) for z in self.zeta(e, grid)]

    def zeta(self, e: float, grid: list[float]) -> list[complex]:
        """zeta = w Z at each point of ``grid`` (ascending from a to b, both
        ends on it): the chain's (``profile``), or with ``force_numeric`` the
        trajectory read at the grid, whose end samples also stand for the
        grid's points on a or b."""
        if self.steps is not None:
            return self.profile(e, grid)[0]
        zs = self.trajectory(e, grid)[1]
        lo, hi = bisect_right(grid, self.pot.a), bisect_left(grid, self.pot.b)
        return [zs[0]] * lo + zs[1:-1] + [zs[-1]] * (len(grid) - hi)

    def wavefunction(self, e: float, grid: list[float]) -> list[complex]:
        """psi at each point of ``grid`` (as ``impedance`` takes it) per
        unit incident wave: psi(entry) = (1 + r) e^{i k1 x_in}, with r
        from the walk's own Z(entry), carried along the same walk's psi
        ratios (``profile``'s, or with ``force_numeric`` ``psi``'s).
        Raises EvanescentIncidenceError below the incidence lead."""
        if e < self.u_in:
            raise EvanescentIncidenceError(f"energy {e} below incidence lead {self.u_in}")
        zs, psi = (self.zeta(e, grid), None) if self.steps is None else self.profile(e, grid)
        z = -zs[-1] if self.right else zs[0]
        k1 = _constants(e, self.u_in, self.c)
        r = _reflect(k1, z, 1.0, None)[0]
        try:
            psi_in = (1.0 + r) * cmath.exp(1j * k1.real * self.x_in)
        except ValueError:  # cmath.exp of an infinite lead phase k x
            raise NonFiniteStateError(f"lead phase overflows at energy {e}") from None
        return self.psi(e, grid, zs, psi_in) if psi is None else [psi_in * p for p in psi]

    def psi(self, e: float, xs: list[float], zs: list[complex], psi_in=1.0) -> list[complex]:
        """psi at the samples (xs ascending, zs Z there) of a trajectory of
        this walk: the product of their psi bridges (``analytic._bridge``)
        from psi_in at the entry edge, bitwise the mirror's for right
        incidence.  A psi that is not finite raises NonFiniteStateError."""
        if self.right:
            xs, zs = xs[::-1], zs[::-1]
        psi = [psi_in]
        for q in _listed(_bridge(self.pot, e, xs, zs, self.c)):
            psi.append(psi[-1] * q)
        if not all(map(cmath.isfinite, psi)):
            raise NonFiniteStateError(f"psi along the trajectory is not finite at energy {e}")
        return psi[::-1] if self.right else psi

    def profile(self, e: float, grid: list[float]) -> tuple[list[complex], list[complex]]:
        """zeta and psi at each point of ``grid`` (ascending from a to b)
        on the chain, in the potential's own frame: the walk from the far
        edge, anchored at the far lead's k as ``trajectory`` is, cut at
        the grid points in one pass (``analytic._cut``), a sampled
        potential's sub-slab maps from one pass too.  Each piece's (num,
        den, r) gives zeta at its end, num / den, and psi at its start
        over psi at its end, r / den; psi is relative to psi at the entry
        edge.  A psi-node exactly at a grid point raises
        TransformPoleError, and a psi that is not finite
        NonFiniteStateError."""
        z = _constants(e, self.u_far, self.c)
        pieces = _cut(self.pot, grid if self.right else grid[::-1])
        if isinstance(self.pot, SampledPotential):
            pieces = _linear_walks(pieces, e, self.c)
        zs = [-z if self.right else z]
        ratios = []
        for piece in pieces:
            num, den, r = _chain(piece, e, zs[-1], self.c)
            zs.append(_divide(num, den))
            ratios.append(r / den)
        psi = [1.0 + 0j] * len(zs)
        for i in range(len(ratios) - 1, -1, -1):
            psi[i] = psi[i + 1] * ratios[i]
        if not all(map(cmath.isfinite, psi)):
            raise NonFiniteStateError(f"psi along the chain is not finite at energy {e}")
        if not self.right:
            zs.reverse()
            psi.reverse()
        return zs, psi

    def trajectory(self, e: float, grid=None) -> tuple:
        """The Riccati trajectory of the walk at e, anchored at the far
        lead's k, in the potential's own frame, as the lists (xs, zs) of
        ``riccati._trajectory`` (zeta), read at the points of ``grid``
        where one is given (``analytic._read``): the entry edge is its
        first sample for left incidence, and its last, zeta negated, for
        right."""
        from .riccati import _trajectory

        z_far = _constants(e, self.u_far, self.c)
        (start, end), anchor = self.ends, -z_far if self.right else z_far
        xs, zs = _trajectory(self.pot, e, start, anchor, end, self.cfg, self.c)
        if grid is None:
            return xs, zs
        return tuple(map(_listed, _read(self.pot, e, xs, zs, grid, self.c, self.right)))


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
    Python float, so a numpy scalar gives the same result.  Under
    ``force_numeric`` T is the current at the entry edge (0 where the
    far lead is evanescent), and t the product of the psi bridges.
    """
    require_finite("energy", e)
    return _solve(_Incidence(pot, side, cfg, params), float(e), side)


def _solve(walk: _Incidence, e: float, side: Side) -> ScatteringResult:
    """``solve_scattering`` at a finite float energy along a walk set up
    from ``side``: the body that a sweep's energies share one walk for."""
    if e < walk.u_in:
        raise EvanescentIncidenceError(f"energy {e} below incidence lead {walk.u_in}")
    r, tau, num, den, k1, k2 = walk(e, bridge=True)
    big_r = abs(r) ** 2
    try:
        psi_b = tau * cmath.exp(1j * k1.real * walk.x_in)
        if e > walk.u_far:
            t = psi_b * cmath.exp(-1j * k2.real * walk.x_far)
            if walk.steps is None:  # the stepper's: the current at zeta(entry) = num
                big_t = 4.0 * k1.real * num.real / abs(k1 + num) ** 2
            else:
                big_t = (k2.real / k1.real) * abs(t) ** 2
            evan = False
        else:
            t = psi_b  # tail amplitude at b: psi(x >= b) = t exp(-kappa2 (x - b))
            big_t = 0.0
            evan = True
    except ValueError:  # cmath.exp of an infinite lead phase k x
        raise NonFiniteStateError(f"lead phase overflows at energy {e}") from None
    z_entry = _from_zeta(num / den, walk.w)
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
    pot: Potential, e: list[float] | np.ndarray, side: Side, cfg: IntegrationConfig,
    params: ModelParams,
) -> tuple[list[ScatteringResult], list[int]]:
    """``solve_scattering`` along the chain for a whole energy grid (a
    float array, or a list of floats that becomes one).

    One ``_chain_many`` pass and the lead formulas as array operations.
    Returns one record per energy and the indices of the flagged points,
    where the scalar solve raises or the array pass is not finite; their
    records mean nothing and the caller solves them one at a time.
    """
    import numpy as np

    e = np.asarray(e, dtype=float)
    walk = _Incidence(pot, side, cfg, params)
    r, tau, num, den, k1, k2, ok = walk.many(e)
    far_propagating = e > walk.u_far
    with np.errstate(all="ignore"):
        # zeta(entry) over w, part by part
        z_entry = num / den
        z_entry.real /= walk.w
        z_entry.imag /= walk.w
        psi_b = tau * np.exp(1j * k1.real * walk.x_in)
        big_r = np.abs(r) ** 2
        t = np.where(
            far_propagating, psi_b * np.exp(-1j * k2.real * walk.x_far), psi_b
        )
        big_t = np.where(
            far_propagating, (k2.real / k1.real) * np.abs(t) ** 2, 0.0
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
    """The grid of ``energy_sweep`` as a float array: the read where numpy
    is loaded already."""
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
    ``_energy_array``'s checks and error types, without numpy: the read
    where numpy is not loaded."""
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
    cannot poison the sweep.  Order is preserved.  The grid is read
    once, as an array where numpy is loaded already and as Python floats
    elsewhere, with the same checks.  Without ``force_numeric``, and where
    ``_array_pass`` allows it for this grid, it is chained in one array
    pass per slab (per sub-slab on a sampled potential); the points that
    pass flags are solved again one at a time, so they carry exactly the
    records ``solve_scattering`` gives.  Elsewhere every point is solved
    so, one at a time: on a piecewise potential, or a sampled one below
    ``_array_pass``'s threshold, in a process without numpy, each record
    is then ``solve_scattering``'s at its energy.  The points solved one
    at a time share one walk (``_Incidence``), so the potential is cut
    into slabs once per sweep, not once per point.  A complex grid raises
    TypeError, as a Python ``complex`` entry does: its imaginary parts
    would be dropped.
    """
    e = _energy_array(energies) if "numpy" in sys.modules else _energy_list(energies)
    out, redo = [None] * len(e), range(len(e))
    if not cfg.force_numeric:
        # units no walk can carry (``analytic._units``) leave every point
        # to the solve, which records their error
        with suppress(NonFiniteStateError):
            if _array_pass(pot, e, _units(params)[0]):
                out, redo = _sweep_chain(pot, e, side, cfg, params)
    walk = None  # set up at the first point left, and again while it raises
    for i in redo:
        e_i = float(e[i])
        try:
            if walk is None:
                walk = _Incidence(pot, side, cfg, params)
            out[i] = _solve(walk, e_i, side)
        except SolverError as exc:
            out[i] = EnergyPointError(e=e_i, code=exc.code, message=str(exc))
    return out
