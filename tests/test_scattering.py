"""Scattering amplitudes, sweeps, and current bookkeeping."""

import cmath
import math

import numpy as np
import pytest

from qwim import analytic, scattering
from qwim.analytic import barrier_closed_forms, region_constants
from qwim.errors import (
    EvanescentIncidenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    NonPositiveRealPartError,
    SolverError,
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_energy_rejected(bad):
    pot = barrier()
    with pytest.raises(NonFiniteInputError):
        solve_scattering(pot, bad)
    with pytest.raises(NonFiniteInputError):
        solve_scattering(pot, bad, Side.RIGHT)
    with pytest.raises(NonFiniteInputError):
        energy_sweep(pot, [bad])
    with pytest.raises(NonFiniteInputError):
        energy_sweep(pot, [0.5, 1.5, bad])


def _deep_stack():
    rng = np.random.default_rng(61)
    x, segs = 0.0, []
    for _ in range(100):
        dl = float(rng.uniform(0.02, 0.08))
        segs.append(PotentialSegment(x, x + dl, float(rng.uniform(-3.0, 3.0))))
        x += dl
    return PiecewisePotential(0.0, tuple(segs), 1.5)


def _node_stack():
    # at E = 1 the psi-node of the evanescent-tail solution sits exactly
    # on the left edge: 2 cos(k l) + sqrt(2) sin(k l) = 0 with k = 2
    length = 0.5 * (math.pi - math.atan(math.sqrt(2.0)))
    return PiecewisePotential(0.0, (PotentialSegment(0.0, length, -1.0),), 2.0)


def test_node_at_entry_interface_is_no_pole():
    # Z(a) is infinite there; r and t divide once and stay finite
    res = solve_scattering(_node_stack(), 1.0)
    tm = transfer_matrix_solve(_node_stack(), 1.0)
    assert abs(res.r + 1.0) < 1e-12
    assert abs(res.t - tm.t) < 1e-12 * abs(tm.t)
    assert res.evanescent_tail and res.big_t == 0.0


def test_overflowing_level_raises_typed():
    # a finite level whose z = sqrt(2 (E - U) / m) overflows: the single
    # solve raises, and the sweep records that same error
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, -1e308),), 0.0)
    with pytest.raises(NonFiniteStateError):
        solve_scattering(pot, 1.0)
    out = energy_sweep(pot, [0.5, 1.0])
    assert [r.code for r in out] == ["NonFiniteState", "NonFiniteState"]


def _sweep_cases(case, random_stack_instances):
    unit = ModelParams()
    if case == "conftest":
        return [(pot, unit) for pot, _ in random_stack_instances]
    if case == "deep":
        return [(_deep_stack(), unit)]
    if case == "thick":
        return [(
            PiecewisePotential(
                0.0,
                (
                    PotentialSegment(0.0, 1.0, -1.0),
                    PotentialSegment(1.0, 401.0, 2.0),
                    PotentialSegment(401.0, 402.0, 0.5),
                ),
                0.3,
            ),
            unit,
        )]
    if case == "step":
        return [(step(1.0), unit)]
    if case == "units":
        other = ModelParams(hbar=0.5, mass=2.0)
        return [(barrier(), other)] + [
            (pot, other) for pot, _ in random_stack_instances[:5]
        ]
    return [(_node_stack(), unit)]


@pytest.mark.parametrize(
    "case", ["conftest", "deep", "thick", "step", "units", "node"]
)
def test_energy_sweep_matches_pointwise(case, random_stack_instances, monkeypatch):
    calls = []
    pointwise = scattering.solve_scattering

    def counted(pot, e, *args):
        calls.append(e)
        return pointwise(pot, e, *args)

    monkeypatch.setattr(scattering, "solve_scattering", counted)
    for pot, params in _sweep_cases(case, random_stack_instances):
        levels = [pot.left_level, pot.right_level] + [s.u for s in pot.segments]
        # every level, just above every level, and the node stack's pole
        grid = np.unique(np.concatenate(
            [np.linspace(-3.5, 8.0, 97), levels, np.add(levels, 1e-13), [1.0]]
        ))
        for side in (Side.LEFT, Side.RIGHT):
            lead = pot.left_level if side is Side.LEFT else pot.right_level
            want = []
            for e in grid:
                try:
                    want.append(pointwise(pot, float(e), side, params=params))
                except SolverError as exc:
                    want.append(EnergyPointError(float(e), exc.code, str(exc)))
            calls.clear()
            got = energy_sweep(pot, grid, side, params=params)
            # only the points the scalar solve rejects are solved again
            assert calls == [w.e for w in want if isinstance(w, EnergyPointError)]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert type(g) is type(w)
                if isinstance(w, EnergyPointError):
                    assert g == w
                    continue
                assert (g.e, g.side, g.evanescent_tail) == (w.e, w.side, w.evanescent_tail)
                assert abs(g.r - w.r) <= 1e-12 * abs(w.r)
                assert abs(g.big_r - w.big_r) <= 1e-12 * w.big_r
                assert abs(g.big_t - w.big_t) <= 1e-12 * w.big_t
                # Z(a) passes through zero where psi' vanishes there; its
                # rounding is relative to the lead impedance, r's scale
                z1 = math.sqrt(2.0 * (w.e - lead) / params.mass)
                assert abs(g.z_entry - w.z_entry) <= 1e-12 * max(abs(w.z_entry), z1)
                # within 1e-9 of a level z = sqrt(2|E - U|/m) is below 1e-4
                # and t loses digits
                if min(abs(w.e - u) for u in levels) > 1e-9:
                    assert abs(g.t - w.t) <= 1e-12 * abs(w.t)


def test_energy_sweep_blocks_agree(monkeypatch):
    # 100 slabs x 300 energies is one array pass; 1000 cells a pass
    # makes 30 blocks of 10 energies
    pot, grid = _deep_stack(), np.linspace(1.6, 6.0, 300)
    whole = energy_sweep(pot, grid, Side.RIGHT)
    monkeypatch.setattr(analytic, "_BATCH_CELLS", 1000)
    split = energy_sweep(pot, grid, Side.RIGHT)
    assert len(split) == len(whole)
    for a, b in zip(split, whole):
        assert a.e == b.e
        assert abs(a.r - b.r) <= 1e-12 * abs(b.r)
        assert abs(a.t - b.t) <= 1e-12 * abs(b.t)


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
