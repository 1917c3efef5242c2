"""Independent cross-checks for the impedance solvers.

Scattering is re-derived from 2x2 transfer matrices, which carry
(psi, psi') across each slab and read plane waves only in the leads,
and square-well spectra from the textbook transcendental equations,
neither sharing numeric kernels with the impedance path.  Wavefunctions are
rebuilt from sampled Z by one exact slab step per sample interval
(``analytic._bridge``), and verified against the Schrodinger equation
itself by finite differences.

The transfer-matrix and square-well oracles run in plain Python, so
``qwim validate`` loads no numpy; the two functions that take or make
arrays, ``reconstruct_wavefunction`` and ``schrodinger_residual``,
import it when they run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

from ._optimize import brentq
from .analytic import _bridge
from .errors import (
    DegenerateEnergyError,
    EvanescentIncidenceError,
    InsufficientSamplesError,
    NonFiniteStateError,
)
from .model import ModelParams, PiecewisePotential, Potential, Side, require_finite
from .riccati import ImpedanceTrajectory

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 matrix acting on column pairs.

    ``_slab`` maps (psi, psi') from one end of a slab to the other.
    ``transfer_matrix`` maps the lead amplitude pairs (A, B), each
    referenced to its lead's interface x_ref (psi = A e^{ik(x - x_ref)}
    + B e^{-ik(x - x_ref)}), so its entries are bounded by the net
    evanescent growth of the stack.
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class TransferResult:
    """Transfer-matrix scattering amplitudes, engine conventions."""

    e: float
    side: Side
    r: complex
    t: complex
    big_r: float
    big_t: float
    evanescent_tail: bool = False


def _wavevector(e: float, u: float, params: ModelParams) -> complex:
    de = e - u
    if abs(de) <= 1e-12 * max(abs(e), abs(u)):
        raise DegenerateEnergyError(f"energy {e} degenerate with level {u}")
    k = math.sqrt(2.0 * params.mass * abs(de)) / params.hbar
    if k == 0.0:  # 2m |e - u| / hbar^2 underflows: no flux in float arithmetic
        raise DegenerateEnergyError(f"lead wavevector at energy {e} underflows to 0")
    return complex(k, 0.0) if de > 0 else complex(0.0, k)


def _slab(e: float, u: float, length: float, params: ModelParams) -> TransferMatrix:
    """Real map of (psi, psi') across a slab of level u.

    [[cos kl, sin(kl)/k], [-k sin kl, cos kl]] with k = sqrt(2m (e - u))
    / hbar, the cosh / sinh form where e < u, and [[1, l], [0, 1]] where
    kl is 0.  sin(kl)/k is taken as l sin(kl)/(kl): no entry divides by
    k, so a level near e joins its neighbours as any other.  det = 1.
    """
    de = e - u
    k = math.sqrt(2.0 * params.mass * abs(de)) / params.hbar
    kl = k * length
    if kl == 0.0:
        return TransferMatrix(1.0, length, 0.0, 1.0)
    try:
        if de > 0:
            c, sn = math.cos(kl), math.sin(kl)
            d = -k * sn
        else:
            c, sn = math.cosh(kl), math.sinh(kl)
            d = k * sn
    except (OverflowError, ValueError):  # cosh past the float range, sin(inf)
        raise NonFiniteStateError(
            f"transfer matrix overflows across a slab of length {length}"
        ) from None
    return TransferMatrix(c, length * (sn / kl), d, c)


def transfer_matrix(
    pot: PiecewisePotential, e: float, params: ModelParams = ModelParams()
) -> TransferMatrix:
    """Full stack matrix mapping left-lead amplitudes (referenced at a)
    to right-lead amplitudes (referenced at b).

    M = P(k2)^-1 S_n ... S_1 P(k1): P(k) = [[1, 1], [ik, -ik]] reads a
    lead's (A, B) as (psi, psi') at its interface, and each ``_slab``
    carries (psi, psi') across one segment.  det M = k1/k2.  A lead at e
    raises DegenerateEnergyError.
    """
    require_finite("energy", e)
    if not isinstance(pot, PiecewisePotential):
        raise ValueError("the transfer matrix needs piecewise-constant segments")
    k1 = _wavevector(e, pot.left_level, params)
    k2 = _wavevector(e, pot.right_level, params)
    m = TransferMatrix(1.0, 1.0, 1j * k1, -1j * k1)
    for seg in pot.segments:
        m = _slab(e, seg.u, seg.length, params) @ m
    m = TransferMatrix(0.5, -0.5j / k2, 0.5, 0.5j / k2) @ m
    # each slab's entries can be finite while their product overflows;
    # inf and nan never turn finite again, so one check at the end covers
    # the running product
    if not all(map(cmath.isfinite, (m.m11, m.m12, m.m21, m.m22))):
        raise NonFiniteStateError(
            f"transfer matrix product overflows across the stack at energy {e}"
        )
    return m


def transfer_matrix_solve(
    pot: PiecewisePotential,
    e: float,
    side: Side = Side.LEFT,
    params: ModelParams = ModelParams(),
) -> TransferResult:
    """Scattering amplitudes from the transfer matrix.

    Uses the analytically telescoped determinant det M = k1/k2 for the
    transmitted amplitude, which stays cancellation-free through thick
    evanescent stacks.  Right incidence is solved on the mirror image.
    """
    require_finite("energy", e)
    if side is Side.RIGHT:
        res = transfer_matrix_solve(pot.mirrored(), e, Side.LEFT, params)
        return replace(res, side=Side.RIGHT)
    k1 = _wavevector(e, pot.left_level, params)
    if k1.imag != 0.0:
        raise EvanescentIncidenceError(f"energy {e} below incidence lead")
    k2 = _wavevector(e, pot.right_level, params)
    m = transfer_matrix(pot, e, params)

    try:
        a0 = cmath.exp(1j * k1 * pot.a)  # unit incident plane wave e^{i k1 x}
        b0 = -(m.m21 / m.m22) * a0
        a_end = (k1 / k2) / m.m22 * a0  # det(M)/M22, det telescoped exactly
        r_local = b0 / a0
        big_r = abs(r_local) ** 2
        if k2.imag == 0.0:
            t = a_end * cmath.exp(-1j * k2 * pot.b)
            big_t = (k2.real / k1.real) * abs(t) ** 2
            evan = False
        else:
            t = a_end  # psi(b): evanescent tail amplitude
            big_t = 0.0
            evan = True
    except ValueError:  # cmath.exp of an infinite lead phase k x
        raise NonFiniteStateError(f"lead phase overflows at energy {e}") from None
    return TransferResult(
        e=e, side=Side.LEFT, r=r_local, t=t,
        big_r=big_r, big_t=big_t, evanescent_tail=evan,
    )


def _square_well_theta0(depth: float, width: float, params: ModelParams) -> float:
    """theta0 = w sqrt(2 m V0) / (2 hbar); both oracles need it finite,
    from a finite, positive depth and width."""
    require_finite("depth and width", depth, width)
    if depth <= 0 or width <= 0:
        raise ValueError("depth and width must be positive")
    theta0 = 0.5 * width * math.sqrt(2.0 * params.mass * depth) / params.hbar
    require_finite("square-well theta0", theta0)
    return theta0


def square_well_eigenvalues(
    depth: float, width: float, params: ModelParams = ModelParams()
) -> list[float]:
    """Bound energies of a square well (depth > 0 below zero leads).

    Solves the even/odd transcendental conditions

        k tan(k w/2) = kappa,    -k cot(k w/2) = kappa,

    with k = sqrt(2m(E + depth))/hbar and kappa = sqrt(-2mE)/hbar, by
    bisection on the monotone branches of theta = k w/2.  Energies are
    measured from the lead level, so each lies in (-depth, 0).
    """
    theta0 = _square_well_theta0(depth, width, params)
    hbar, m = params.hbar, params.mass

    def radial(theta):
        return math.sqrt(max(theta0 * theta0 - theta * theta, 0.0))

    roots: list[float] = []
    eps = 1e-12 * max(1.0, theta0)

    def scan(branch_lo, f):
        n = 0
        while True:
            lo = branch_lo + n * math.pi
            if lo >= theta0 - eps:
                break
            hi = min(lo + 0.5 * math.pi, theta0)
            blo, bhi = lo + eps, hi - eps
            if blo < bhi and f(blo) * f(bhi) < 0:
                roots.append(brentq(f, blo, bhi, xtol=1e-15, rtol=8.9e-16))
            n += 1

    scan(0.0, lambda th: th * math.tan(th) - radial(th))
    scan(0.5 * math.pi, lambda th: -th / math.tan(th) - radial(th))

    roots.sort()
    return [
        (hbar * 2.0 * th / width) ** 2 / (2.0 * m) - depth for th in roots
    ]


def square_well_state_count(depth: float, width: float,
                            params: ModelParams = ModelParams()) -> int:
    """Number of bound states, counted from the transcendental branches."""
    theta0 = _square_well_theta0(depth, width, params)
    return int(math.floor(2.0 * theta0 / math.pi)) + 1


class Normalization(Enum):
    UNIT_INCIDENT = "unit-incident"


@dataclass(frozen=True)
class WavefunctionProfile:
    xs: np.ndarray
    psi: np.ndarray
    normalization: Normalization


def reconstruct_wavefunction(
    traj: ImpedanceTrajectory,
    psi_start: complex = 1.0 + 0j,
) -> WavefunctionProfile:
    """Rebuild psi on the trajectory grid from sampled Z.

    psi is the running product of the intervals' psi ratios, each the
    exact chain's walk across its interval, anchored at the trajectory's
    Z at one end (``analytic._bridge``), so it carries psi through nodes
    and joins.  numpy is loaded here, so on a piecewise potential the
    intervals that lie on one slab take their steps in one array pass,
    in the walk's arithmetic; the rest, and a sampled potential's, walk
    one at a time.  psi keeps the scale psi_start sets at the first sample:
    given psi there per unit incident wave, the profile is psi per unit
    incident wave (``Normalization.UNIT_INCIDENT``).  Any trajectory has
    an interval to bridge, so two samples are enough.
    """
    import numpy as np

    xs = traj.xs
    ratios = _bridge(traj.potential, traj.energy, xs.tolist(), traj.zs.tolist(), traj.params)
    with np.errstate(all="ignore"):
        psi = np.cumprod(np.array([psi_start, *ratios], dtype=complex))
    if not np.all(np.isfinite(psi.real) & np.isfinite(psi.imag)):
        raise NonFiniteStateError("reconstructed psi is not finite")
    return WavefunctionProfile(
        xs=xs.copy(), psi=psi, normalization=Normalization.UNIT_INCIDENT
    )


def schrodinger_residual(
    profile: WavefunctionProfile,
    pot: Potential,
    e: float,
    params: ModelParams = ModelParams(),
) -> float:
    """Max |H psi - E psi| / max |psi| over interior samples.

    On a uniform grid the second derivative uses the five-point stencil,
    whose h^4 truncation allows coarse grids well above the roundoff
    floor; otherwise the three-point stencil (exact for parabolas on
    nonuniform spacing).  Samples with a potential join inside the
    stencil footprint are excluded: the true psi'' jumps there and
    finite differences would report a spurious residual.  Raises
    NonFiniteStateError where hbar^2 / 2m overflows.
    """
    import numpy as np

    xs, psi = profile.xs, profile.psi
    n = len(xs)
    if n < 5:
        raise InsufficientSamplesError("need at least 5 samples for the stencil")
    dx = np.diff(xs)
    h_bar = float(np.mean(dx))
    uniform = n >= 7 and float(np.max(np.abs(dx - h_bar))) < 1e-9 * h_bar

    if uniform:
        inner = psi[2:-2]
        d2 = (
            -psi[:-4] + 16.0 * psi[1:-3] - 30.0 * inner
            + 16.0 * psi[3:-1] - psi[4:]
        ) / (12.0 * h_bar * h_bar)
        x_in = xs[2:-2]
        clearance = 3.0 * h_bar
    else:
        h1 = dx[:-1]
        h2 = dx[1:]
        inner = psi[1:-1]
        d2 = 2.0 * (
            psi[:-2] / (h1 * (h1 + h2))
            - inner / (h1 * h2)
            + psi[2:] / (h2 * (h1 + h2))
        )
        x_in = xs[1:-1]
        clearance = 2.0 * np.maximum(h1, h2)
    try:
        kinetic = -(params.hbar ** 2) / (2.0 * params.mass)
    except OverflowError:
        kinetic = -math.inf
    if not math.isfinite(kinetic):
        raise NonFiniteStateError(f"hbar^2 / 2m overflows at hbar {params.hbar}")
    u = pot.u_at(x_in)
    res = np.abs(kinetic * d2 + (u - e) * inner)

    keep = np.ones(len(x_in), dtype=bool)
    for join in pot.interfaces():
        keep &= np.abs(x_in - join) > clearance
    if not np.any(keep):
        raise InsufficientSamplesError("no interior samples away from joins")
    return float(np.max(res[keep]) / np.max(np.abs(psi)))
