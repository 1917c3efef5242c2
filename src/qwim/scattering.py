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
sum to one whenever the far lead propagates.  Right incidence is solved
in the mirrored frame: the chain walks the potential's own slab list
from its left end with every step negated, and builds no mirror.

Both kinds of potential use exact layer chaining, sampled ones one
linear sub-slab map at a time (:mod:`qwim.analytic`); with
``cfg.force_numeric`` set, any potential uses the adaptive Riccati
integrator with the running integral tracked, on the mirrored potential
for right incidence.  An energy sweep chains the whole grid at once, one
array pass per slab or sub-slab (:mod:`qwim._arrays`); points that pass
flags (where a single solve raises, or its values are not finite) are
solved again one at a time.

Only the functions that take or make arrays import numpy, and the
stepper is imported only by a ``force_numeric`` solve, so one piecewise
solve loads neither.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .analytic import _chain, _mirrored_steps, _steps, region_constants
from .errors import (
    EvanescentIncidenceError,
    NonFiniteStateError,
    SolverError,
)
from .model import IntegrationConfig, ModelParams, Potential, Side, require_finite

if TYPE_CHECKING:
    import numpy as np

    from .riccati import ImpedanceTrajectory


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


def _frame(pot: Potential, side: Side) -> tuple[float, float, float, float]:
    """Incidence lead, far lead, entry edge and far edge for incidence
    from ``side``, in the frame of that side: right incidence sees the
    potential mirrored through x -> -x."""
    if side is Side.RIGHT:
        return pot.right_level, pot.left_level, -pot.b, -pot.a
    return pot.left_level, pot.right_level, pot.a, pot.b


def _walk(pot: Potential, side: Side) -> list[tuple[float, ...]]:
    """The chain's slab list from the far lead to the entry edge, in the
    frame of ``side``: for right incidence the potential's own list from
    a, every step negated, which is bitwise that of ``pot.mirrored()``."""
    return _mirrored_steps(pot) if side is Side.RIGHT else _steps(pot, pot.a, False)


def _trajectory(
    pot: Potential, e: float, side: Side, z_far: complex,
    cfg: IntegrationConfig, params: ModelParams, track_integral: bool = False,
) -> ImpedanceTrajectory:
    """The Riccati trajectory of the walk from the far edge, where
    Z = z_far, to the entry edge, in the frame of ``side``: stepped on
    ``pot.mirrored()`` for right incidence."""
    from .riccati import integrate_impedance

    _, _, a, b = _frame(pot, side)
    work = pot.mirrored() if side is Side.RIGHT else pot
    return integrate_impedance(work, e, b, z_far, a, cfg, params, track_integral=track_integral)


def _solve(
    pot: Potential,
    e: float,
    side: Side,
    cfg: IntegrationConfig,
    params: ModelParams,
) -> ScatteringResult:
    u1, u2, a, b = _frame(pot, side)
    if e < u1:
        raise EvanescentIncidenceError(f"energy {e} below incidence lead {u1}")
    rc1 = region_constants(e, u1, params)  # degenerate e == u1 raises here
    rc2 = region_constants(e, u2, params)
    z1, k1 = rc1.z, rc1.gamma.imag
    z_far = rc2.z  # +z2: transmitted wave above the lead, decaying tail below
    far_propagating = rc2.is_propagating

    if not cfg.force_numeric or a == b:
        num, den, ratio = _chain(_walk(pot, side), e, z_far, params)
    else:
        traj = _trajectory(pot, e, side, z_far, cfg, params, track_integral=True)
        num, den = complex(traj.zs[0]), 1.0
        # S measured from the anchor at b, so int_a^b Z dx = -S(a)
        s_a = complex(traj.z_integral[0])
        ratio = cmath.exp(-1j * (params.mass / params.hbar) * s_a)

    # Z(a) = num / den and psi(b) / psi(a) = ratio / den; r and psi(b)
    # share one division, so a psi-node at a leaves both finite
    inv = 1.0 / (z1 * den + num)
    r = (z1 * den - num) * inv
    big_r = abs(r) ** 2
    try:
        psi_b = 2.0 * z1 * ratio * inv * cmath.exp(1j * k1 * a)
        if far_propagating:
            k2 = rc2.gamma.imag
            t = psi_b * cmath.exp(-1j * k2 * b)
            big_t = (rc2.z.real / z1.real) * abs(t) ** 2
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


def solve_scattering(
    pot: Potential,
    e: float,
    side: Side = Side.LEFT,
    cfg: IntegrationConfig = IntegrationConfig(),
    params: ModelParams = ModelParams(),
) -> ScatteringResult:
    """Scattering amplitudes at energy ``e`` for the given incidence side.

    Right incidence is computed in the mirrored frame; reported
    amplitudes live in that (incidence-side) frame, so R, T and the
    moduli are directly comparable between sides.  ``e`` is taken as a
    Python float, so a numpy scalar gives the same result.
    """
    require_finite("energy", e)
    return _solve(pot, float(e), side, cfg, params)


def _sweep_chain(
    pot: Potential, e: np.ndarray, side: Side, params: ModelParams
) -> tuple[list[ScatteringResult], list[int]]:
    """``_solve`` along the chain for a whole energy grid.

    One ``_chain_many`` pass and the lead formulas as array operations.
    Returns one record per energy and the indices of the flagged points,
    where the scalar solve raises or the array pass is not finite; their
    records mean nothing and the caller solves them one at a time.
    """
    import numpy as np

    from ._arrays import _chain_many, _region_constants_many

    u_in, u_far, x_in, x_far = _frame(pot, side)
    z1, gamma1, degenerate1 = _region_constants_many(e, u_in, params)
    z2, gamma2, degenerate2 = _region_constants_many(e, u_far, params)
    num, den, ratio, ok = _chain_many(_walk(pot, side), e, z2, params)
    far_propagating = e > u_far
    with np.errstate(all="ignore"):
        z_entry = num / den
        inv = 1.0 / (z1 * den + num)
        r = (z1 * den - num) * inv
        psi_b = 2.0 * z1 * ratio * inv * np.exp(1j * gamma1.imag * x_in)
        big_r = np.abs(r) ** 2
        t = np.where(
            far_propagating, psi_b * np.exp(-1j * gamma2.imag * x_far), psi_b
        )
        big_t = np.where(
            far_propagating, (z2.real / z1.real) * np.abs(t) ** 2, 0.0
        )
        ok &= (e >= u_in) & ~degenerate1 & ~degenerate2
        ok &= np.isfinite(r) & np.isfinite(t) & np.isfinite(big_r) & np.isfinite(big_t)
        ok &= np.isfinite(z_entry)
    # positional fields, in ScatteringResult's order: keywords cost more
    # per record, and the records are most of a short sweep
    records = list(map(
        ScatteringResult, e.tolist(), repeat(side), r.tolist(), t.tolist(),
        big_r.tolist(), big_t.tolist(), z_entry.tolist(), (~far_propagating).tolist(),
    ))
    return records, np.flatnonzero(~ok).tolist()


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
    cannot poison the sweep.  Order is preserved.  Without
    ``force_numeric`` the grid is chained in one array pass per slab (per
    sub-slab on a sampled potential); the points that pass flags are
    solved again one at a time, so they carry exactly the records
    ``solve_scattering`` gives.  A complex grid raises TypeError, as a
    Python ``complex`` entry does: its imaginary parts would be dropped.
    """
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
    if not cfg.force_numeric:
        out, redo = _sweep_chain(pot, e, side, params)
    else:
        out, redo = [None] * len(e), range(len(e))
    for i in redo:
        e_i = float(e[i])
        try:
            out[i] = solve_scattering(pot, e_i, side, cfg, params)
        except SolverError as exc:
            out[i] = EnergyPointError(e=e_i, code=exc.code, message=str(exc))
    return out

