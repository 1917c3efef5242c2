"""Independent oracles: transfer matrix, transcendental well, reconstruction."""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracles
from qwim import _arrays, analytic, scattering
from qwim.analytic import _BRIDGE_PHASE, _bridge, _chain, _listed, _phase, _steps, _units, barrier_closed_forms, region_constants
from qwim.errors import (
    DegenerateEnergyError,
    InsufficientSamplesError,
    NonFiniteInputError,
    NonFiniteStateError,
    QwimError,
    SolverError,
)
from qwim.model import (
    ModelParams,
    PiecewisePotential,
    PotentialSegment,
    SampledPotential,
    Side,
)
from qwim.riccati import (
    IntegrationConfig,
    integrate_impedance,
    right_anchor,
    z_minus,
    z_plus,
)
from qwim.scattering import solve_scattering
from qwim.spectral import find_bound_states
from qwim.xcheck import (
    Normalization,
    WavefunctionProfile,
    reconstruct_wavefunction,
    schrodinger_residual,
    square_well_eigenvalues,
    square_well_state_count,
    transfer_matrix,
    transfer_matrix_solve,
)

from oracles import square_well_eigenfunction, step_reflection, to_zeta

TIGHT = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13)
# c = 2m/hbar^2 of hbar = m = 1, where zeta = (m/hbar) Z is Z
C = _units(ModelParams())[0]

# Independent-bisection values for the square well depth 5, width 2.
WELL_5_2 = [-4.296392637614919, -2.3120970431648895, -0.002009631226663977]


def well(depth=5.0, width=2.0):
    return PiecewisePotential(0.0, (PotentialSegment(0.0, width, -depth),), 0.0)


def random_stack(rng, n_max=6):
    n = int(rng.integers(1, n_max))
    x, segs = 0.0, []
    for _ in range(n):
        dl = float(rng.uniform(0.1, 2.0))
        segs.append(PotentialSegment(x, x + dl, float(rng.uniform(-3, 3))))
        x += dl
    return PiecewisePotential(0.0, tuple(segs), 0.0)


def test_transfer_matrix_det_telescopes():
    rng = np.random.default_rng(61)
    p = ModelParams()
    for _ in range(30):
        pot = random_stack(rng)
        e = float(rng.uniform(0.05, 7.0))
        m = transfer_matrix(pot, e)
        k1 = math.sqrt(2.0 * e)
        k2 = math.sqrt(2.0 * e)
        assert abs(m.det * k2 / k1 - 1.0) < 1e-12


def test_transfer_matrix_composes_over_subdivision():
    # one constant slab split at an interior point gives the same matrix
    e = 1.7
    whole = transfer_matrix(
        PiecewisePotential(0.0, (PotentialSegment(0.0, 1.4, 0.9),), 0.0), e
    )
    split = transfer_matrix(
        PiecewisePotential(
            0.0,
            (PotentialSegment(0.0, 0.6, 0.9), PotentialSegment(0.6, 1.4, 0.9)),
            0.0,
        ),
        e,
    )
    for name in ("m11", "m12", "m21", "m22"):
        assert abs(getattr(whole, name) - getattr(split, name)) < 1e-12


def test_transfer_solve_step_matches_step_reflection():
    pot = PiecewisePotential(0.0, (), 1.0, step_x=0.0)
    for e in (1.5, 2.0, 3.7):
        res = transfer_matrix_solve(pot, e)
        want = step_reflection(e, 0.0, 1.0)
        assert abs(res.r - want) < 1e-12
        assert res.big_r == pytest.approx(abs(want) ** 2, abs=1e-12)


def test_transfer_solve_step_evanescent_tail():
    pot = PiecewisePotential(0.0, (), 1.0, step_x=0.0)
    res = transfer_matrix_solve(pot, 0.5)
    assert res.evanescent_tail and res.big_t == 0.0
    assert abs(abs(res.r) - 1.0) < 1e-12


def test_transfer_solve_barrier_matches_closed_forms():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    for e in (0.5, 1.31, 2.9):
        res = transfer_matrix_solve(pot, e)
        amp = barrier_closed_forms(e, 1.0, 2.0)
        assert abs(res.r - amp.r) < 1e-10
        assert abs(res.t - amp.t) < 1e-10
        assert res.big_t == pytest.approx(amp.big_t, abs=1e-10)


def test_transfer_solve_identity_structure():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 0.0),), 0.0)
    res = transfer_matrix_solve(pot, 1.3)
    assert abs(res.r) < 1e-12
    assert abs(res.t - 1.0) < 1e-12


def test_transfer_solve_thick_barrier_is_solver_error():
    # cosh(kappa l) overflows, so the slab matrix has no float form
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1e4, 1.0),), 0.0)
    with pytest.raises(SolverError):
        transfer_matrix_solve(pot, 0.5)


def test_transfer_solve_infinite_phase_is_solver_error():
    # k l of a slab, and k x of the lead phase at a step, have no float
    # value: cmath.exp raised a bare ValueError
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1e10, -5.0),), 0.0)
    with pytest.raises(NonFiniteStateError):
        transfer_matrix_solve(pot, 1.0, params=ModelParams(hbar=1e-300))
    step = PiecewisePotential(0.0, (), 1.0, step_x=1e308)
    with pytest.raises(NonFiniteStateError):
        transfer_matrix_solve(step, 100.0)


def test_transfer_solve_product_overflow_is_solver_error():
    # each slab's entries (e^500) are finite, their product is not
    pot = PiecewisePotential(
        0.0,
        (PotentialSegment(0.0, 500.0, 1.0), PotentialSegment(500.0, 1000.0, 1.0)),
        0.0,
    )
    with pytest.raises(SolverError):
        transfer_matrix_solve(pot, 0.5)


def test_transfer_matrix_takes_linear_slabs():
    # at E = 1 psi is linear across every slab at level 1: the lone
    # barrier, a run of two such slabs, and one next to the left lead
    barrier = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    run = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 0.7, -1.0),
            PotentialSegment(0.7, 1.5, 1.0),
            PotentialSegment(1.5, 2.0, 1.0),
            PotentialSegment(2.0, 2.3, 0.3),
        ),
        0.5,
    )
    edge = PiecewisePotential(
        0.0, (PotentialSegment(0.0, 1.2, 1.0), PotentialSegment(1.2, 2.0, -0.4)), 0.0
    )
    for pot in (barrier, run, edge):
        k_ratio = math.sqrt(1.0 - pot.left_level) / math.sqrt(1.0 - pot.right_level)
        assert abs(transfer_matrix(pot, 1.0).det - k_ratio) < 1e-12
        for side in Side:
            at = transfer_matrix_solve(pot, 1.0, side)
            want = solve_scattering(pot, 1.0, side)
            assert abs(at.r - want.r) < 1e-12 and abs(at.t - want.t) < 1e-12
            assert abs(at.big_r + at.big_t - 1.0) < 1e-12
            # continuous with the oscillating and evanescent slabs on either side
            for e in (1.0 - 1e-9, 1.0 + 1e-9):
                near = transfer_matrix_solve(pot, e, side)
                assert abs(near.r - at.r) < 1e-8 and abs(near.t - at.t) < 1e-8
    # a lead at E carries no flux: no plane wave to read
    lead = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.5),), 1.0)
    with pytest.raises(DegenerateEnergyError):
        transfer_matrix(lead, 1.0)
    for side in Side:
        with pytest.raises(DegenerateEnergyError):
            transfer_matrix_solve(lead, 1.0, side)


def near_level_stack(level, between):
    """Leads at -5 and a slab at ``level``: alone on (0, 2), or on (1, 2)
    between two slabs at -5."""
    if not between:
        return PiecewisePotential(-5.0, (PotentialSegment(0.0, 2.0, level),), -5.0)
    segs = (
        PotentialSegment(0.0, 1.0, -5.0),
        PotentialSegment(1.0, 2.0, level),
        PotentialSegment(2.0, 3.0, -5.0),
    )
    return PiecewisePotential(-5.0, segs, -5.0)


@pytest.mark.parametrize("between", [False, True], ids=["alone", "between"])
@pytest.mark.parametrize("level", [1e-300, -1e-300, 1e-100, 1e-30])
def test_transfer_matrix_at_slab_levels_near_e(level, between):
    # at E = 0 the slab's level is within 1e-30 of E: joining plane-wave
    # amplitudes through k_from / k gave R = 0 at 1e-100 where the chain
    # gives 0.909, and divided by zero between the deep slabs
    pot = near_level_stack(level, between)
    for side in Side:
        got, want = transfer_matrix_solve(pot, 0.0, side), solve_scattering(pot, 0.0, side)
        assert abs(got.big_r - want.big_r) <= 1e-12 and abs(got.big_t - want.big_t) <= 1e-12
        assert abs(got.big_r + got.big_t - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "pot, e, params",
    [
        (PiecewisePotential(0.0, (), -1.0, step_x=0.0), 1e-300, ModelParams(hbar=1e-3, mass=1e-150)),
        (PiecewisePotential(0.0, (), 1e-300, step_x=0.0), -1e-300, ModelParams(1e150, 1e-150)),
        (PiecewisePotential(-1.0, (), 1e-300, step_x=0.0), 0.0, ModelParams(1e-150, 1e-150)),
    ],
    ids=["left-lead", "left-lead-evanescent", "right-lead"],
)
def test_transfer_solve_underflowing_lead_wavevector_is_qwim_error(pot, e, params):
    # 2m |e - u| / hbar^2 underflows to 0 although e and u are far apart
    # relative to their size: the lead's k is 0, and dividing by it raised
    # a bare ZeroDivisionError
    for side in Side:
        with pytest.raises(QwimError):
            transfer_matrix_solve(pot, e, side, params)


def test_transfer_matrix_needs_piecewise():
    pot = SampledPotential((0.0, 1.0), (0.5, 0.5), 0.0, 0.0)
    with pytest.raises(ValueError):
        transfer_matrix(pot, 2.0)
    with pytest.raises(ValueError):
        transfer_matrix_solve(pot, 2.0)


def test_well_eigenvalues_against_independent_bisection():
    got = square_well_eigenvalues(5.0, 2.0)
    assert len(got) == 3
    np.testing.assert_allclose(got, WELL_5_2, rtol=0, atol=1e-10)
    assert square_well_state_count(5.0, 2.0) == 3


def test_well_eigenvalues_infinite_depth_limit():
    depth = 1e6
    got = square_well_eigenvalues(depth, 1.0)
    assert len(got) == square_well_state_count(depth, 1.0)
    for n in (1, 2, 3):
        want = -depth + n * n * math.pi ** 2 / 2.0
        # the finite-well correction is O(1/sqrt(depth)) of the offset, so
        # the comparison is relative to the full eigenvalue
        assert abs(got[n - 1] - want) / abs(want) < 1e-3


def test_well_always_binds_once():
    got = square_well_eigenvalues(0.01, 1.0)
    assert len(got) == 1
    assert -0.01 < got[0] < 0.0


def test_well_eigenvalues_ordered_inside_window():
    got = square_well_eigenvalues(12.0, 3.0)
    assert np.all(np.diff(got) > 0)
    assert all(-12.0 < e < 0.0 for e in got)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["depth", "width"])
@pytest.mark.parametrize("oracle", [square_well_eigenvalues, square_well_state_count])
def test_well_oracles_reject_non_finite(oracle, which, bad):
    # unchecked, a NaN or infinite depth spins the branch scan forever,
    # and a NaN reaches int() as a raw ValueError in the state count
    args = {"depth": 5.0, "width": 2.0}
    args[which] = bad
    with pytest.raises(NonFiniteInputError):
        oracle(**args)


@pytest.mark.parametrize("oracle", [square_well_eigenvalues, square_well_state_count])
def test_well_oracles_reject_overflowing_theta0(oracle):
    # finite depth and width whose theta0 = w sqrt(2 m V0) / (2 hbar)
    # overflows: unchecked, the count's int() overflows and the branch
    # scan never ends
    with pytest.raises(NonFiniteInputError):
        oracle(1e308, 1e308)


@pytest.mark.parametrize("depth, width", [(0.0, 2.0), (-5.0, 2.0), (5.0, 0.0), (5.0, -2.0)])
def test_well_state_count_needs_positive_well(depth, width):
    with pytest.raises(ValueError, match="positive"):
        square_well_state_count(depth, width)
    with pytest.raises(ValueError, match="positive"):
        square_well_eigenvalues(depth, width)


def test_reconstruct_free_line_plane_wave():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    e = 2.0
    k = math.sqrt(2.0 * e)
    traj = z_minus(pot, e, cfg=TIGHT, grid=np.linspace(0.0, 3.0, 301))
    prof = reconstruct_wavefunction(traj, psi_start=1.0 + 0j)
    want = np.exp(1j * k * (prof.xs - prof.xs[0]))
    np.testing.assert_allclose(prof.psi, want, rtol=0, atol=1e-8)


def test_reconstruct_evanescent_tail_decay():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 2.0),), 2.0)
    e = 1.0
    kappa = math.sqrt(2.0 * (2.0 - e))
    traj = z_minus(pot, e, cfg=TIGHT)
    prof = reconstruct_wavefunction(traj, psi_start=1.0 + 0j)
    want = np.exp(-kappa * (prof.xs - prof.xs[0]))
    np.testing.assert_allclose(np.abs(prof.psi), want, rtol=1e-8, atol=0)


def test_reconstruct_at_a_slab_level_is_linear():
    # E = 1 is the barrier's level: psi is linear across it, and each
    # bridge takes that limit of the slab step
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    traj = z_minus(pot, 1.0, cfg=TIGHT)
    prof = reconstruct_wavefunction(traj)
    # psi = t (1 + i k (x - 2)) inside, scaled to psi(0) = 1
    k = math.sqrt(2.0)
    want = (1.0 + 1j * k * (prof.xs - 2.0)) / (1.0 - 2j * k)
    np.testing.assert_allclose(prof.psi, want, rtol=0, atol=1e-11)


def _bound_profile(pot, e, n_points):
    # excited states have nodes, which psi's slab-by-slab bridges cross
    grid = np.linspace(pot.a, pot.b, n_points)
    traj = z_minus(pot, e, cfg=TIGHT, grid=grid)
    prof = reconstruct_wavefunction(traj)
    idx = np.searchsorted(prof.xs, grid)
    return WavefunctionProfile(
        xs=prof.xs[idx], psi=prof.psi[idx], normalization=prof.normalization
    )


def test_reconstruct_bound_states_match_transcendental_eigenfunctions():
    pot = well()
    for e in WELL_5_2:
        prof = _bound_profile(pot, e, 1001)
        imax = int(np.argmax(np.abs(prof.psi)))
        phase = prof.psi[imax] / abs(prof.psi[imax])
        psi = (prof.psi / phase).real
        psi = psi / np.max(np.abs(psi))
        oracle = square_well_eigenfunction(e, 5.0, 2.0, prof.xs)
        if np.dot(psi, oracle) < 0:
            oracle = -oracle
        np.testing.assert_allclose(psi, oracle, rtol=0, atol=1e-6)


def test_reconstruct_impedance_consistency():
    # finite differences of the rebuilt psi must reproduce the sampled Z
    pot = PiecewisePotential(
        0.0,
        (PotentialSegment(0.0, 1.0, 1.6), PotentialSegment(1.0, 2.0, -0.8)),
        0.0,
    )
    e = 2.3
    grid = np.linspace(0.0, 2.0, 2001)
    traj = z_minus(pot, e, cfg=TIGHT, grid=grid)
    prof = reconstruct_wavefunction(traj)
    xs, psi, zs = prof.xs, prof.psi, traj.zs
    h = np.diff(xs)
    dpsi = (psi[2:] - psi[:-2]) / (h[1:] + h[:-1])
    z_fd = dpsi / (1j * psi[1:-1])
    inner = slice(1, -1)
    mask = np.abs(zs[inner]) < 3.0
    # keep clear of the joins where psi' is discontinuous
    for j in pot.interfaces():
        mask &= np.abs(xs[inner] - j) > 5e-3
    err = np.abs(z_fd - zs[inner])[mask]
    assert np.max(err) < 1e-5


def _chain_error(traj, prof):
    """Largest |psi - exact psi| / max |exact psi| at the trajectory
    points, the exact psi(x) / psi(b) being den / r of the chain's walk
    from b (past a, on through the left lead's slab), scaled to prof's
    psi(b)."""
    pot, e = traj.potential, traj.energy
    c, w = _units(traj.params)
    exact = []
    for x in traj.xs.tolist():
        _, den, r = _chain(_steps(pot, pot.b, x), e, to_zeta(complex(traj.zs[-1]), w), c)
        exact.append(den / r)
    exact = np.array(exact) * prof.psi[-1]
    return float(np.max(np.abs(prof.psi - exact)) / np.max(np.abs(exact)))


def _gaussian(amplitude, n):
    xs = np.linspace(-3.0, 3.0, n)
    return SampledPotential(tuple(xs), tuple(amplitude * np.exp(-xs * xs / 2.0)), 0.0, 0.0)


@pytest.mark.parametrize(
    "amplitude, n, state, energy, points, cfg",
    [(3.0, 41, None, 2.9, 401, IntegrationConfig()),
     (-12.0, 61, 2, None, 1001, IntegrationConfig(rel_tol=1e-12))],
    ids=["barrier", "well-state"],
)
def test_untracked_sampled_reconstruction_is_the_chain_psi(amplitude, n, state, energy, points, cfg):
    # each interval is one exact step along its sampled line, so psi is
    # the chain's to far below the stepper's own error (quadrature of Z
    # gave 1e-6 and 2e-7 here)
    pot = _gaussian(amplitude, n)
    e = energy if state is None else find_bound_states(pot).energies[state]
    traj = z_minus(pot, e, cfg=cfg, grid=np.linspace(pot.a, pot.b, points))
    assert _chain_error(traj, reconstruct_wavefunction(traj)) < 1e-9


def test_untracked_reconstruction_steps_through_several_sub_slabs(monkeypatch):
    # Z is the transmitted wave's z on the sampled line at level 0 between
    # the barrier and b, so the stepper takes steps of max_step = 1 there,
    # and k = 10 splits each of those intervals into ten sub-slabs; all
    # intervals take their maps from one pass
    pot = SampledPotential((0.0, 2.0, 2.001, 12.0), (30.0, 30.0, 0.0, 0.0), 0.0, 0.0)
    traj = z_minus(pot, 50.0, cfg=IntegrationConfig(max_step=1.0))
    counts = []
    linear_maps = _arrays._linear_maps

    def recorded(*args):
        count, maps = linear_maps(*args)
        counts.append(count)
        return count, maps

    monkeypatch.setattr(_arrays, "_linear_maps", recorded)
    prof = reconstruct_wavefunction(traj)
    assert len(counts) == 1 and max(counts[0]) == 10
    assert _chain_error(traj, prof) < 1e-9


@pytest.mark.parametrize(
    "pot",
    [PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0), _gaussian(3.0, 41)],
    ids=["piecewise", "sampled"],
)
def test_untracked_reconstruction_past_a_steps_on_the_lead(pot):
    # the trajectory runs on past a, where the intervals lie on the left
    # lead's level
    traj = integrate_impedance(pot, 0.7, pot.b, right_anchor(pot, 0.7, ModelParams()),
                               pot.a - 2.0, TIGHT)
    assert traj.xs[0] == pot.a - 2.0
    assert _chain_error(traj, reconstruct_wavefunction(traj)) < 1e-9


def _bridge_gap(traj):
    """The scalar psi bridge against the array oracle it replaced: the
    largest gap of an interval's psi ratio, in ulps of that ratio, and
    the number of intervals across which psi changes sign."""
    want = oracles._bridge(traj)
    c, w = _units(traj.params)
    got = np.array(_bridge(traj.potential, traj.energy, traj.xs.tolist(),
                           [to_zeta(z, w) for z in traj.zs.tolist()], c))
    gap = float(np.max(np.abs(got - want) / np.abs(want))) / np.finfo(float).eps
    return gap, int(np.sum(got.real < 0.0))


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
def test_scalar_bridge_matches_the_array_oracle(random_stack_instances, threshold):
    # one _chain step an interval against the Taylor sub-slab maps of the
    # array bridge, on every conftest stack from both sides at its lowest
    # and highest energy, and below the leads, where the real solution
    # crosses psi-nodes (in W mode with threshold 2)
    cfg = IntegrationConfig(pole_threshold=threshold)
    nodes = 0
    for pot, energies in random_stack_instances:
        trajs = [z(pot, float(e), cfg) for e in (energies[0], energies[-1]) for z in (z_minus, z_plus)]
        floor = min(s.u for s in pot.segments)
        if floor < 0.0:
            trajs.append(z_minus(pot, 0.5 * floor, cfg))
        for traj in trajs:
            gap, crossed = _bridge_gap(traj)
            assert gap <= 8.0, (pot, traj.energy, traj.direction)
            nodes += crossed
    assert nodes > 20


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
@pytest.mark.parametrize(
    "pot, e",
    [
        # E at the first slab's level, below the far lead: a linear step
        (PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 1.0), PotentialSegment(1.0, 2.0, -1.0)),
                            2.0), 1.0),
        (_gaussian(3.0, 41), 2.9),
        (_gaussian(-12.0, 61), -5.0),
    ],
    ids=["slab-at-level", "sampled-barrier", "sampled-well"],
)
def test_scalar_bridge_matches_the_array_oracle_on_lines_and_levels(pot, e, threshold):
    cfg = IntegrationConfig(pole_threshold=threshold)
    for traj in (z_minus(pot, e, cfg), z_plus(pot, e, cfg)):
        assert _bridge_gap(traj)[0] <= 8.0, traj.direction


@pytest.mark.parametrize(
    "pot",
    [PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 3.0), PotentialSegment(1.0, 2.0, -1.0)), 0.0),
     SampledPotential((0.0, 1.0, 2.0), (3.0, 3.0, -1.0), 0.0, 0.0)],
    ids=["piecewise", "sampled"],
)
def test_bridge_walks_an_interval_across_a_join(pot):
    # the interval (0.5, 1.5) crosses the join at 1: its psi ratio is the
    # chain's, with Z at its ends from the chain's walk from b; on the
    # mirror the ends swap, and so does the end the walk starts from.  A
    # repeated sample bridges to ratio 1
    e = 0.7
    ends = []
    for x in (0.5, 1.5):
        num, den, r = _chain(_steps(pot, pot.b, x), e, complex(math.sqrt(2.0 * e)), C)
        ends.append((num / den, den / r))  # Z(x) and psi(x) / psi(b)
    (z0, psi0), (z1, psi1) = ends
    want = psi1 / psi0
    got = _bridge(pot, e, [0.5, 1.5], [z0, z1], C)[0]
    assert abs(got - want) <= 1e-14 * abs(want)
    mirrored = _bridge(pot.mirrored(), e, [-1.5, -0.5], [-z1, -z0], C)[0]
    assert abs(mirrored - 1.0 / want) <= 1e-14 * abs(1.0 / want)
    again = _bridge(pot, e, [0.5, 0.5, 1.5], [z0, z0, z1], C)
    assert again[0] == 1.0 and again[1] == got


def _walk_only(pot, e, starts, *_):
    """``_arrays._anchored_many`` that leaves every walk to the scalar tail."""
    return (*np.empty((3, len(starts)), dtype=complex), np.arange(len(starts)), np.full(len(starts), np.nan))


def _left(monkeypatch, pot, e, xs, zs, c=C):
    """``_bridge`` on the samples by its array pass, and the intervals it
    left to the scalar tail (the bridge walks interval i as the pass's
    entry i): those the pass left, and those it took whose evanescent
    phase passes _BRIDGE_PHASE (walked from both ends in the tail)."""
    many, left = _arrays._anchored_many, []

    def recorded(pot, e, starts, zetas, ends, c):
        out = many(pot, e, starts, zetas, ends, c)
        redo, level = set(out[3].tolist()), out[4].tolist()
        left.extend(i for i in range(len(starts)) if i in redo
                    or _phase([(level[i], float(ends[i] - starts[i]))], e, c) > _BRIDGE_PHASE)
        return out

    with monkeypatch.context() as m:
        m.setattr(_arrays, "_anchored_many", recorded)
        return _bridge(pot, e, xs, zs, c), left


def _routes(monkeypatch, pot, e, xs, zs, c=C):
    """``_bridge`` on the same samples by its array pass and by its
    scalar walk of every interval, as lists, and the intervals the array
    pass left to the walk."""
    got, left = _left(monkeypatch, pot, e, xs, zs, c)
    with monkeypatch.context() as m:
        m.setattr(_arrays, "_anchored_many", _walk_only)
        want = _bridge(pot, e, xs, zs, c)
    return _listed(got), _listed(want), left


def _ulps(got, want):
    """The largest gap of a ratio from the walk's, in ulps of the walk's."""
    eps = np.finfo(float).eps
    return max((0.0 if g == w else abs(g - w) / abs(w) / eps for g, w in zip(got, want)), default=0.0)


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
def test_bridge_array_pass_matches_the_walk(random_stack_instances, threshold, monkeypatch):
    # the array pass against the scalar walk of every interval, on every
    # conftest stack from both sides at its lowest and highest energy and
    # below the leads, where psi crosses nodes: every interval of a
    # stepper trajectory lies on one slab, and takes the array pass.
    # Each ratio is within 8 ulps, and psi, their running product over up
    # to 4000 intervals, within 1e-13 (numpy's complex division in place
    # of the walk's drifted 1.4e-13 at 1 ulp a ratio)
    cfg = IntegrationConfig(pole_threshold=threshold)
    nodes = 0
    for pot, energies in random_stack_instances:
        es = [float(energies[0]), float(energies[-1])]
        floor = min(s.u for s in pot.segments)
        if floor < 0.0:
            es.append(0.5 * floor)
        for traj in (z(pot, e, cfg) for e in es for z in (z_minus, z_plus)):
            got, want, left = _routes(monkeypatch, pot, traj.energy, traj.xs.tolist(), traj.zs.tolist())
            psi, ref = np.cumprod(got), np.cumprod(want)
            drift = np.max(np.abs(psi - ref)) / np.max(np.abs(ref))
            assert _ulps(got, want) <= 8.0 and drift <= 1e-13 and left == [], (pot, traj.energy)
            nodes += sum(q.real < 0.0 for q in got)
    assert nodes > 20


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
@pytest.mark.parametrize(
    "pot, e",
    [
        # E at the first slab's level, below the far lead: a linear step
        (PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 1.0), PotentialSegment(1.0, 2.0, -1.0)),
                            2.0), 1.0),
        # a barrier 400 long, where the stepper's steps grow long
        (PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, -1.0), PotentialSegment(1.0, 401.0, 2.0),
                                  PotentialSegment(401.0, 402.0, 0.5)), 0.3), 0.7),
    ],
    ids=["slab-at-level", "thick-barrier"],
)
def test_bridge_array_pass_matches_the_walk_on_levels_and_barriers(pot, e, threshold, monkeypatch):
    cfg = IntegrationConfig(pole_threshold=threshold)
    for traj in (z_minus(pot, e, cfg), z_plus(pot, e, cfg)):
        got, want, left = _routes(monkeypatch, pot, e, traj.xs.tolist(), traj.zs.tolist())
        assert _ulps(got, want) <= 8.0 and left == [], traj.direction


def test_bridge_array_pass_leaves_what_is_not_one_slab(monkeypatch):
    # hand-picked samples on the thick barrier: (401, 401.5) has |Z| tied
    # at its ends, and the array pass takes it both ways; a repeated
    # sample (no slab), intervals across a join (two slabs) and the
    # interval (1, 401), one saturated step whose evanescent phase (645)
    # passes _BRIDGE_PHASE, are left to the walk
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, -1.0), PotentialSegment(1.0, 401.0, 2.0),
                                   PotentialSegment(401.0, 402.0, 0.5)), 0.3)
    e = 0.7
    xs = [-0.5, 0.5, 0.5, 1.0, 401.0, 401.5, 402.5]
    zs = [1.0 + 0.5j, 0.5 - 0.2j, 0.5 - 0.2j, 0.8 + 1.0j, 0.6 + 0.2j, 0.2 + 0.6j, 0.9 + 0j]
    got, want, left = _routes(monkeypatch, pot, e, xs, zs)
    assert _ulps(got, want) <= 8.0 and left == [0, 1, 3, 5]
    back, back_zs = [-x for x in reversed(xs)], [-z for z in reversed(zs)]
    got, want, left = _routes(monkeypatch, pot.mirrored(), e, back, back_zs)
    assert _ulps(got, want) <= 8.0 and left == [0, 2, 4, 5]


_STACK = PiecewisePotential(0.2, (PotentialSegment(0.0, 1.0, 1.5), PotentialSegment(1.0, 2.5, -1.0),
                                   PotentialSegment(2.5, 3.0, 0.7)), -0.3)
# segments that overlap by 9e-13 meet at the midpoint of their ends
_NEAR = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0 + 9e-13, 1.5), PotentialSegment(1.0, 2.0, -1.0)), 0.4)
_MID = 0.5 * (1.0 + 9e-13) + 0.5 * 1.0


@pytest.mark.parametrize(
    "pot, runs",
    [
        # samples on a, b and both joins, in both leads, repeated on a
        # join and on b; a repeated sample inside a cell, and intervals
        # across a, a join, a join and b, and the whole stack
        (_STACK, [[-2.0, -1.0, 0.0, 0.5, 1.0, 1.0, 1.7, 2.5, 3.0, 3.0, 4.0, 5.0],
                  [-0.5, 0.5, 0.5, 2.0, 2.7, 3.5], [-1.0, 4.0]]),
        # a step with no segments: samples on the step, and across it
        (PiecewisePotential(0.3, (), -0.4, step_x=0.5), [[-1.0, 0.0, 0.5, 0.5, 1.0, 2.0], [0.0, 1.0]]),
        # a join within JOIN_TOL: on its midpoint and on either segment's
        # end, and from one end to the other, across the midpoint
        (_NEAR, [[0.5, 1.0, _MID, 1.0 + 9e-13, 1.5, 2.0, 2.5], [1.0, 1.0 + 9e-13]]),
    ],
    ids=["stack", "step", "near-join"],
)
def test_bridge_array_pass_finds_each_interval_cell(pot, runs, monkeypatch):
    # the array pass takes each interval's slab off the cell that holds
    # it: bitwise the walk's ratio on every interval, ascending and
    # descending, and it leaves to the walk exactly the intervals that
    # are not one slab of the samples' cut (a repeated sample, an
    # interval across a join)
    e = 0.9
    for xs in runs:
        zs = [complex(0.6 + 0.1 * k, 0.3 - 0.07 * k) for k in range(len(xs))]
        for x, z in ((xs, zs), (xs[::-1], zs[::-1])):
            slow = [i for i, walk in enumerate(analytic._cut(pot, x)) if len(walk) != 1]
            got, want, left = _routes(monkeypatch, pot, e, x, z)
            assert repr(got) == repr(want) and left == slow, x


@pytest.mark.parametrize(
    "xs, zs, message",
    [
        # num = z (Z cos + z sin) overflows at Z = 1e308
        ([0.0, 0.01], [1e308 + 0j, 1.0 + 0j], "layer chain overflows at energy 2.0"),
        # k dx = 2e10 * 1e300 is infinite: cosh / sinh have no value
        ([2.0, 2e300], [1.0 + 0j, 0.5 + 0j], "slab phase overflows at energy 2e+20"),
    ],
    ids=["state", "phase"],
)
def test_bridge_array_pass_leaves_overflows_to_the_walk(xs, zs, message, monkeypatch):
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.0), PotentialSegment(1.0, 2.0, 1.0)), 0.0)
    e = float(message.rsplit(" ", 1)[1])
    # after an interval on the left lead, which the array pass takes
    xs, zs = [-1.0, -0.9, *xs], [1.0 + 0j, 1.0 + 0j, *zs]
    for many in (_arrays._anchored_many, _walk_only):
        with monkeypatch.context() as m:
            m.setattr(_arrays, "_anchored_many", many)
            with pytest.raises(NonFiniteStateError) as err:
                _bridge(pot, e, xs, zs, C)
        assert str(err.value) == message


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
def test_warm_bridge_is_bitwise_the_cold_walk(random_stack_instances, threshold, no_numpy, monkeypatch):
    # the warm bridge (numpy loaded) against the numpy-free walk of every
    # interval, bitwise, on every fifth conftest stack from both ends, at
    # its lowest and highest energy and below the leads, where psi
    # crosses nodes (in W mode with threshold 2), and on a sampled bump
    # and well: the stepper's samples ascending and descending, as lists
    # and as arrays, with a sample repeated, and thinned so that
    # intervals cross joins and pass _BRIDGE_PHASE (walked from both
    # ends).  On a stack the warm bridge takes the array pass and gives a
    # complex array, the walk a list (whose ratio 1 at a repeated sample
    # is the float 1.0); on a sampled potential both walk, the warm one
    # with numpy's sub-slab series
    cfg = IntegrationConfig(pole_threshold=threshold)
    cases = [(pot, [float(es[0]), float(es[-1])], min(s.u for s in pot.segments))
             for pot, es in random_stack_instances[::5]]
    cases += [(_gaussian(3.0, 41), [0.7, 2.9], 0.0), (_gaussian(-12.0, 61), [0.7], -12.0)]
    taken = left = 0
    for pot, es, floor in cases:
        sampled = isinstance(pot, SampledPotential)
        if floor < 0.0:
            es.append(0.5 * floor)
        for e, z in itertools.product(es, (z_minus, z_plus)):
            traj = z(pot, e, cfg)
            xs, zs = traj.xs.tolist(), traj.zs.tolist()
            k = len(xs) // 2
            samples = [(xs, zs), (xs[::-1], zs[::-1]), (xs[::5], zs[::5]),
                       ([*xs[:k], xs[k], *xs[k:]], [*zs[:k], zs[k], *zs[k:]])]
            for x, z_ in itertools.chain(samples, (tuple(map(np.array, p)) for p in samples)):
                warm, redo = _left(monkeypatch, pot, e, x, z_)
                with no_numpy():
                    cold = _bridge(pot, e, x, z_, C)
                assert type(cold) is list and isinstance(warm, list if sampled else np.ndarray)
                assert np.array(warm, dtype=complex).tobytes() == np.array(cold, dtype=complex).tobytes(), (pot, e)
                if not sampled:
                    taken += len(warm) - len(redo)
                    left += len(redo)
    assert taken > 5 * left > 0


def test_bridge_past_the_bridge_phase_is_bitwise_the_cold_walk(no_numpy, monkeypatch):
    # intervals on one cell whose evanescent phase passes _BRIDGE_PHASE
    # are left by the array pass and walked from both ends, the walk
    # along which |psi| grows kept: bitwise the numpy-free walk, from
    # either end and in either direction
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 5.0), PotentialSegment(3.0, 4.0, -1.0)), 0.0)
    e, xs = 0.5, [0.0, 1.0, 2.0, 3.0, 3.25, 3.5, 4.0]
    traj = z_minus(pot, e, grid=np.array(xs))
    assert traj.xs.tolist() == xs
    # kappa |dx| = 3 on each interval across the barrier
    assert math.sqrt(C * (5.0 - e)) > _BRIDGE_PHASE
    for x, z_ in ((xs, traj.zs.tolist()), (xs[::-1], traj.zs[::-1].tolist())):
        warm, redo = _left(monkeypatch, pot, e, x, z_)
        with no_numpy():
            cold = _bridge(pot, e, x, z_, C)
        assert warm.tobytes() == np.array(cold, dtype=complex).tobytes()
        assert redo == ([0, 1, 2] if x is xs else [3, 4, 5])


def test_bridge_ratio_over_a_zero_bottom_is_infinite_on_both_routes(monkeypatch):
    # psi(anchor) / psi(other end) = r / den: r underflows to 0 across
    # 1000 of lead at kappa = 1 (walked forward), and den is exactly 0
    # where the anchor is -z past the saturation cut (walked back); both
    # steps are finite, and both ratios infinite.  The interval's
    # evanescent phase, 1000, passes _BRIDGE_PHASE, so the array pass
    # leaves it to the walk, which takes it from both ends
    pot = PiecewisePotential(0.5, (PotentialSegment(0.0, 1.0, -1.0),), 0.5)
    e, z = 0.0, 1j
    for xs, zs in (([1.0, 1001.0], [2j, 1j]), ([1.0, 1001.0], [0j, -z])):
        got, want, left = _routes(monkeypatch, pot, e, xs, zs)
        assert got == want == [complex(math.inf)] and left == [0]


def test_quotient_is_pythons_complex_division():
    # the array passes divide by _arrays._quotient: bitwise Python's
    # complex division on 20000 seeded pairs, parts from 1e-130 to 1e130
    # in size, and divisors purely real or imaginary, and on every pair of
    # parts from 0, -0, 1, -2.5, 1e-300, inf, -inf and NaN (NaN for NaN:
    # NaN's sign and payload are not compared).  numpy's own division
    # differs on 42 % of the seeded pairs
    rng = np.random.default_rng(11)

    def parts(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-130.0, 130.0, size)

    n = 20000
    a = parts(n) + 1j * parts(n)
    b = parts(n) + 1j * parts(n)
    b[: n // 4] = b[: n // 4].real
    b[n // 4: n // 2] = 1j * b[n // 4: n // 2].imag
    special = [0.0, -0.0, 1.0, -2.5, 1e-300, math.inf, -math.inf, math.nan]
    edge = [complex(x, y) for x in special for y in special]
    pairs = [(p, q) for p, q in zip(a.tolist(), b.tolist())]
    pairs += [(p, q) for p in edge for q in edge if q != 0]
    top, bottom = (np.array(side, dtype=complex) for side in zip(*pairs))
    got = _arrays._quotient(top, bottom).view(float)
    want = np.array([p / q for p, q in pairs], dtype=complex).view(float)
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), [pairs[i // 2] for i in np.flatnonzero(~same)[:5]]
    assert np.mean(top[:n] / bottom[:n] != want.view(complex)[:n]) > 0.3


@pytest.mark.parametrize("length, n", [(60, 7), (60, 13), (200, 21), (400, 9)])
def test_bridge_across_long_evanescent_intervals(length, n, monkeypatch):
    # the barrier (0, L) at height 2, E = 0.7, read at n points: psi decays
    # by exp(-1.61 dx) across each interval.  Walked only from the end with
    # the larger |Z|, an interval walked the way psi decays multiplied its
    # anchor's error by about exp(3.2 dx), for relative errors of 2.6e6,
    # 1.9e-4, 9.2e20 and 7.8e234.  Each interval's evanescent phase passes
    # _BRIDGE_PHASE, so both routes walk it from both ends and keep the
    # walk along which |psi| grows
    from qwim.scattering import _Incidence

    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, float(length), 2.0),), 0.0)
    grid = np.linspace(0.0, length, n)
    traj = z_minus(pot, 0.7, grid=grid)
    walk = _Incidence(pot, Side.LEFT, IntegrationConfig(), ModelParams())
    want = np.array(walk.profile(0.7, grid.tolist())[1])
    psi = reconstruct_wavefunction(traj).psi
    assert np.max(np.abs(psi - want) / np.abs(want)) <= 1e-8
    got, walked, left = _routes(monkeypatch, pot, 0.7, traj.xs.tolist(), traj.zs.tolist())
    assert got == walked and left == list(range(n - 1))


def test_sampled_bridge_across_long_evanescent_intervals():
    # a sampled trapezoid at height 2 on (0, 60) read at 7 points: its
    # linear sub-slab walks take the phase at each step's higher end, and
    # are walked from both ends too (1.9e3 relative from one end)
    from qwim.scattering import _Incidence

    pot = SampledPotential((0.0, 1.0, 59.0, 60.0), (0.0, 2.0, 2.0, 0.0), 0.0, 0.0)
    grid = np.linspace(0.0, 60.0, 7)
    psi = reconstruct_wavefunction(z_minus(pot, 0.7, grid=grid)).psi
    walk = _Incidence(pot, Side.LEFT, IntegrationConfig(), ModelParams())
    want = np.array(walk.profile(0.7, grid.tolist())[1])
    assert np.max(np.abs(psi - want) / np.abs(want)) <= 1e-8


@pytest.mark.parametrize("length, want_size", [(200.0, 7.1e-140), (400.0, 6.3e-280)])
def test_bridge_off_a_saturated_fixed_point(length, want_size, monkeypatch):
    # samples [1.0, L + 0.5] on the barrier (0, L) at height 2, E = 0.7,
    # with the chain's Z from the right lead: at 1.0 Z sits on the
    # saturated step's fixed point, and the walk from there, the way psi
    # decays, loses psi to the dropped exp(-2 |g|) (2.5e123 or 0 in place
    # of 2.4e-140).  The walk back from the lead, along which psi grows,
    # gives the chain's own ratio
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, length, 2.0),), 0.0)
    e = 0.7
    xs, zs, psi = [1.0, length + 0.5], [], []
    for x in xs:
        num, den, r = _chain(_steps(pot, pot.b, x), e, complex(math.sqrt(2.0 * e)), C)
        zs.append(num / den)
        psi.append(den / r)  # psi(x) / psi(b)
    want = psi[1] / psi[0]
    assert abs(abs(want) / want_size - 1.0) < 0.01
    got, walked, left = _routes(monkeypatch, pot, e, xs, zs)
    assert got == walked and left == [0]
    assert abs(got[0] - want) <= 1e-12 * abs(want)


def test_thinned_reconstruction_matches_the_full_one():
    # every 3rd sample of a trajectory: intervals now cross the joins at 1
    # and 2, and each walks across its join
    stack = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 3.0), PotentialSegment(1.0, 2.0, -1.0),
                                     PotentialSegment(2.0, 3.3, 0.5)), 0.0)
    traj = z_minus(stack, 0.7)
    thin = dataclasses.replace(traj, xs=traj.xs[::3], zs=traj.zs[::3])
    crossed = {j for j in (1.0, 2.0) for x0, x1 in zip(thin.xs, thin.xs[1:]) if x0 < j < x1}
    assert crossed == {1.0, 2.0}
    full, part = reconstruct_wavefunction(traj).psi, reconstruct_wavefunction(thin).psi
    assert np.max(np.abs(part - full[::3])) <= 1e-10 * np.max(np.abs(full))


def test_profile_and_bridge_cut_their_points_in_one_pass(monkeypatch):
    # the chain's profile cuts its grid once, however many points there
    # are.  The psi bridge cuts a sampled potential's trajectory once; on
    # a piecewise stack it takes each interval's slab off its cell
    # (_arrays._anchored_many) and cuts only the intervals it leaves to
    # the walk, in one pass over their ends (analytic._walks): none of a
    # stepper trajectory, and those of a grid read that cross a join
    from qwim.model import _linspace
    from qwim.scattering import _Incidence

    cuts = []

    def counting(real):
        def cut(pot, points):
            cuts.append(len(points))
            return real(pot, points)

        return cut

    monkeypatch.setattr(analytic, "_cut", counting(analytic._cut))
    monkeypatch.setattr(scattering, "_cut", counting(scattering._cut))
    params = ModelParams()
    stack = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 3.0), PotentialSegment(1.0, 2.0, -1.0),
                                     PotentialSegment(2.0, 3.3, 0.5)), 0.0)
    for pot in (stack, _gaussian(3.0, 41)):
        for side in Side:
            walk = _Incidence(pot, side, IntegrationConfig(), params)
            for n in (5, 41, 401):
                grid = _linspace(pot.a, pot.b, n)
                cuts.clear()
                walk.profile(0.7, grid)
                assert cuts == [n]
                xs, zs = walk.trajectory(0.7, grid=grid)
                cuts.clear()
                _bridge(pot, 0.7, xs, zs, C)
                if pot is stack:
                    crossing = [(x0, x1) for x0, x1 in zip(xs, xs[1:]) if x0 < 1.0 < x1 or x0 < 2.0 < x1]
                    # an end that two of them share is cut once
                    assert cuts == [len({*itertools.chain(*crossing)})] and len(crossing) == 2 and len(xs) == n
                else:
                    assert cuts == [len(xs)] and len(xs) >= n
            xs, zs = walk.trajectory(0.7)
            cuts.clear()
            _bridge(pot, 0.7, xs, zs, C)
            assert cuts == ([] if pot is stack else [len(xs)])


def test_reconstruct_defaults_to_unit_incident():
    prof = _bound_profile(well(), WELL_5_2[0], 801)
    assert prof.normalization is Normalization.UNIT_INCIDENT


def test_reconstruct_needs_samples():
    # a bridge needs two samples: z_minus on the barrier (0, 1e-15) gives
    # two, or three on a grid, and both reconstruct to the chain's psi;
    # the stencil of schrodinger_residual still needs five
    from qwim.scattering import _Incidence

    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1e-15, 1.0),), 0.0)
    walk = _Incidence(pot, Side.LEFT, IntegrationConfig(), ModelParams())
    for grid, n in ((None, 2), ([0.0, 5e-16, 1e-15], 3)):
        traj = z_minus(pot, 0.5, grid=grid)
        assert len(traj.xs) == n
        prof = reconstruct_wavefunction(traj)
        want = np.array(walk.profile(0.5, traj.xs.tolist())[1])
        assert np.max(np.abs(prof.psi - want)) <= 1e-15
        with pytest.raises(InsufficientSamplesError):
            schrodinger_residual(prof, pot, 0.5)


def test_residual_plane_wave_truncation_only():
    e = 2.0
    k = math.sqrt(2.0 * e)
    xs = np.arange(0.0, 3.0 + 1e-12, 1e-3)
    psi = np.exp(1j * k * xs)
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    prof = WavefunctionProfile(xs=xs, psi=psi, normalization=Normalization.UNIT_INCIDENT)
    assert schrodinger_residual(prof, pot, e) < 1e-6


def test_residual_nonuniform_grid_branch():
    rng = np.random.default_rng(71)
    e = 2.0
    k = math.sqrt(2.0 * e)
    base = np.linspace(0.0, 3.0, 3001)
    xs = base + np.concatenate(([0.0], rng.uniform(-2e-4, 2e-4, 2999), [0.0]))
    psi = np.exp(1j * k * xs)
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    prof = WavefunctionProfile(xs=xs, psi=psi, normalization=Normalization.UNIT_INCIDENT)
    assert schrodinger_residual(prof, pot, e) < 1e-2


def test_residual_rejects_noise():
    rng = np.random.default_rng(73)
    xs = np.linspace(0.0, 3.0, 501)
    psi = rng.normal(size=501) + 1j * rng.normal(size=501)
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    prof = WavefunctionProfile(xs=xs, psi=psi, normalization=Normalization.UNIT_INCIDENT)
    assert schrodinger_residual(prof, pot, 2.0) > 10.0


def test_residual_overflowing_kinetic_scale_raises_typed():
    # hbar^2 / 2m has no float value at hbar 1e200 (hbar ** 2 raised a raw
    # OverflowError), nor at hbar 1e150 with mass 1e-100 (the quotient is
    # infinite).  2m / hbar^2 underflows at both, so the trajectory's edge
    # raises; the residual, checked on a finite profile of unit units,
    # raises its own typed error
    pot = well(depth=1.0)
    grid = np.linspace(0.0, 2.0, 41)
    prof = reconstruct_wavefunction(z_minus(pot, 0.5, grid=grid))
    assert np.all(np.isfinite(prof.psi))
    for params in (ModelParams(hbar=1e200), ModelParams(hbar=1e150, mass=1e-100)):
        with pytest.raises(NonFiniteStateError, match="units"):
            z_minus(pot, 0.5, params=params, grid=grid)
        with pytest.raises(NonFiniteStateError, match="hbar\\^2 / 2m overflows"):
            schrodinger_residual(prof, pot, 0.5, params)


def test_residual_reconstructed_scattering_state():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    e = 2.0
    grid = np.linspace(0.0, 2.0, 401)
    traj = z_minus(pot, e, cfg=TIGHT, grid=grid)
    prof = reconstruct_wavefunction(traj)
    idx = np.searchsorted(prof.xs, grid)
    sub = WavefunctionProfile(
        xs=prof.xs[idx], psi=prof.psi[idx], normalization=prof.normalization
    )
    assert schrodinger_residual(sub, pot, e) < 1e-5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transfer_matrix_rejects_non_finite_energy(bad):
    # an input error, not EvanescentIncidence "energy nan below incidence lead"
    with pytest.raises(NonFiniteInputError):
        transfer_matrix(well(), bad)
    for side in Side:
        with pytest.raises(NonFiniteInputError):
            transfer_matrix_solve(well(), bad, side)
