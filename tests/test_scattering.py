"""Scattering amplitudes, sweeps, and current bookkeeping."""

import cmath
import math

import numpy as np
import pytest

from qwim.analytic import barrier_closed_forms, region_constants
from qwim.errors import (
    EvanescentIncidenceError,
    NonPositiveRealPartError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, Side
from qwim.riccati import IntegrationConfig, z_minus
from qwim.scattering import (
    EnergyPointError,
    constant_current_diagnostic,
    current_profile,
    energy_sweep,
    solve_scattering,
)
from qwim.xcheck import transfer_matrix_solve


def barrier(u=1.0, length=2.0):
    return PiecewisePotential(0.0, (PotentialSegment(0.0, length, u),), 0.0)


def step(u2=1.0):
    return PiecewisePotential(0.0, (), u2, step_x=0.0)


def test_free_line_is_transparent():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    for e in (0.3, 1.0, 4.7):
        res = solve_scattering(pot, e)
        assert abs(res.r) < 1e-12
        assert abs(abs(res.t) - 1.0) < 1e-12
        assert res.big_r == pytest.approx(0.0, abs=1e-12)
        assert res.big_t == pytest.approx(1.0, abs=1e-12)


def test_step_total_reflection():
    res = solve_scattering(step(1.0), 0.5)
    assert abs(abs(res.r) - 1.0) < 1e-12
    assert res.big_r == pytest.approx(1.0, abs=1e-12)
    assert res.big_t == 0.0
    assert res.evanescent_tail


def test_step_transmission_amplitude():
    # E=2 over a unit step at the origin: t = 2 k1 / (k1 + k2)
    res = solve_scattering(step(1.0), 2.0)
    k1, k2 = 2.0, math.sqrt(2.0)
    assert abs(res.t - 2.0 * k1 / (k1 + k2)) < 1e-12
    assert abs(res.t - (1.0 + res.r)) < 1e-12


def test_barrier_matches_closed_forms():
    pot = barrier()
    for e in (0.5, 0.85, 1.7, 3.944):
        res = solve_scattering(pot, e)
        amp = barrier_closed_forms(e, 1.0, 2.0)
        assert abs(res.r - amp.r) < 1e-10
        assert abs(res.t - amp.t) < 1e-10
        assert res.big_r == pytest.approx(amp.big_r, abs=1e-10)
        assert res.big_t == pytest.approx(amp.big_t, abs=1e-10)


def test_barrier_resonant_transmission():
    e = 1.0 + math.pi ** 2 / 8.0  # k_b l = pi
    res = solve_scattering(barrier(), e)
    assert abs(abs(res.t) - 1.0) < 1e-12
    assert res.big_r == pytest.approx(0.0, abs=1e-12)


def test_vanishing_barrier_is_transparent():
    res = solve_scattering(barrier(1.0, 1e-8), 0.7)
    assert abs(res.t - 1.0) < 1e-6
    assert res.big_t == pytest.approx(1.0, abs=1e-6)


def test_three_segment_stack_against_transfer_matrix():
    pot = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 0.8, 2.1),
            PotentialSegment(0.8, 1.7, -1.0),
            PotentialSegment(1.7, 2.3, 1.4),
        ),
        0.0,
    )
    res = solve_scattering(pot, 1.7)
    ref = transfer_matrix_solve(pot, 1.7)
    assert abs(res.r - ref.r) < 1e-8
    assert abs(res.t - ref.t) < 1e-8
    assert res.big_r == pytest.approx(ref.big_r, abs=1e-8)
    assert res.big_t == pytest.approx(ref.big_t, abs=1e-8)


@pytest.mark.parametrize("length", [50.0, 250.0, 400.0])
def test_thick_barrier_t_matches_transfer_matrix(length):
    # kappa l > 300 (E = 0.9 from 250 on, E = 1.7 at 400) takes the
    # saturated branch of the slab kernel, |t| down to 1e-258
    pot = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 1.0, -1.0),
            PotentialSegment(1.0, 1.0 + length, 2.0),
            PotentialSegment(1.0 + length, 2.0 + length, 0.5),
        ),
        0.3,
    )
    for e in (0.9, 1.7):
        for side in (Side.LEFT, Side.RIGHT):
            t = solve_scattering(pot, e, side).t
            ref = transfer_matrix_solve(pot, e, side).t
            assert ref != 0.0
            assert abs(t - ref) <= 1e-12 * abs(ref)


def test_unitarity_random_stacks():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        x, segs = 0.0, []
        for _ in range(n):
            dl = float(rng.uniform(0.1, 2.0))
            segs.append(PotentialSegment(x, x + dl, float(rng.uniform(-3, 3))))
            x += dl
        pot = PiecewisePotential(0.0, tuple(segs), 0.0)
        e = float(rng.uniform(0.05, 7.0))
        res = solve_scattering(pot, e)
        assert abs(res.big_r + res.big_t - 1.0) < 1e-10


def test_transmission_reciprocity():
    # T is side independent for a real potential, even an asymmetric one
    pot = PiecewisePotential(
        0.0,
        (PotentialSegment(0.0, 0.6, 2.5), PotentialSegment(0.6, 2.0, -0.7)),
        0.0,
    )
    for e in (0.4, 1.1, 3.3):
        left = solve_scattering(pot, e, Side.LEFT)
        right = solve_scattering(pot, e, Side.RIGHT)
        assert left.big_t == pytest.approx(right.big_t, abs=1e-10)
        assert left.big_r == pytest.approx(right.big_r, abs=1e-10)


def test_right_incidence_on_asymmetric_leads():
    # incidence must run against its own lead: E between the two lead
    # levels scatters from the lower side only
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.5),), 2.0)
    res = solve_scattering(pot, 1.2, Side.LEFT)
    assert res.evanescent_tail and res.big_t == 0.0
    with pytest.raises(EvanescentIncidenceError):
        solve_scattering(pot, 1.2, Side.RIGHT)


def test_forced_numeric_matches_analytic():
    pot = PiecewisePotential(
        0.0,
        (PotentialSegment(0.0, 1.0, 1.8), PotentialSegment(1.0, 2.5, -0.9)),
        0.0,
    )
    cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, force_numeric=True)
    for e in (0.6, 2.4):
        num = solve_scattering(pot, e, cfg=cfg)
        ana = solve_scattering(pot, e)
        assert abs(num.r - ana.r) < 1e-8
        assert abs(num.t - ana.t) < 1e-8


def test_energy_sweep_grid_contracts():
    pot = barrier()
    assert energy_sweep(pot, []) == []
    with pytest.raises(ValueError):
        energy_sweep(pot, [1.0, 1.0])
    with pytest.raises(ValueError):
        energy_sweep(pot, [2.0, 1.5])


def test_energy_sweep_isolates_bad_points():
    pot = PiecewisePotential(0.5, (PotentialSegment(0.0, 1.0, 2.0),), 0.0)
    out = energy_sweep(pot, [0.2, 0.9, 1.4])
    assert isinstance(out[0], EnergyPointError)  # below the left lead
    assert out[0].e == 0.2 and out[0].code
    assert not isinstance(out[1], EnergyPointError)
    assert not isinstance(out[2], EnergyPointError)


def test_sweep_touches_resonances():
    # include the exact comb energies in the grid: T = 1 there
    res_energies = [1.0 + n * n * math.pi ** 2 / 8.0 for n in (1, 2)]
    grid = sorted(np.linspace(1.01, 7.0, 100).tolist() + res_energies)
    out = energy_sweep(barrier(), grid)
    by_e = {r.e: r for r in out if not isinstance(r, EnergyPointError)}
    for e in res_energies:
        assert by_e[e].big_t == pytest.approx(1.0, abs=1e-10)


def test_current_diagnostic_free_line():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    e = 2.0
    traj = z_minus(pot, e, cfg=IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13),
                   track_integral=True)
    dev = constant_current_diagnostic(traj, region_constants(e, 0.0).z.real)
    assert dev < 1e-10


def test_current_diagnostic_at_resonance():
    e = 1.0 + math.pi ** 2 / 8.0
    traj = z_minus(barrier(), e, cfg=IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13),
                   track_integral=True)
    dev = constant_current_diagnostic(traj, region_constants(e, 0.0).z.real)
    assert dev < 1e-6


def test_current_diagnostic_deep_tunneling_still_conserves():
    # strong reflection is not zero current: the transmitted trickle keeps
    # Re Z > 0 along the whole trajectory and the identity still holds
    traj = z_minus(barrier(), 0.5, cfg=IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13),
                   track_integral=True)
    dev = constant_current_diagnostic(traj, region_constants(0.5, 0.0).z.real)
    assert dev < 1e-8


def test_current_diagnostic_rejects_currentless_run():
    # evanescent far lead: T = 0 exactly, Re Z vanishes at the anchor
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.3),), 2.0)
    traj = z_minus(pot, 1.1, cfg=IntegrationConfig(), track_integral=True)
    with pytest.raises(NonPositiveRealPartError):
        constant_current_diagnostic(traj, region_constants(1.1, 0.0).z.real)


def test_current_profile_is_flat():
    pot = PiecewisePotential(
        0.0,
        (PotentialSegment(0.0, 1.0, 0.8), PotentialSegment(1.0, 2.0, -0.4)),
        0.0,
    )
    e = 2.6
    traj = z_minus(pot, e, cfg=IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13),
                   track_integral=True)
    j = current_profile(traj, 1.0 + 0j)
    assert np.max(np.abs(j - np.mean(j))) < 1e-8 * np.mean(j)


def test_untracked_trajectory_rejected_by_diagnostics():
    traj = z_minus(barrier(), 2.0, cfg=IntegrationConfig())
    with pytest.raises(ValueError):
        constant_current_diagnostic(traj, 2.0)
    with pytest.raises(ValueError):
        current_profile(traj, 1.0)
