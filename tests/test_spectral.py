"""Bound-state and resonance search through the impedance matching condition."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qwim import spectral
from qwim.errors import (
    BracketingExhaustedError,
    EmptyWindowError,
    EvanescentIncidenceError,
    NonFiniteInputError,
    SolverError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, SampledPotential
from qwim.riccati import IntegrationConfig
from qwim.specfile import load_spec
from qwim.spectral import (
    ROOT_TOL,
    SpectrumKind,
    _mismatch_many,
    _probe_candidates,
    find_bound_states,
    find_resonances,
    impedance_mismatch,
)
from qwim.xcheck import (
    square_well_eigenvalues,
    square_well_state_count,
    transfer_matrix_solve,
)

# Transcendental-equation values for the square well depth 5, width 2,
# frozen from an independent bisection on the even/odd branch equations.
WELL_5_2 = [-4.296392637614919, -2.3120970431648895, -0.002009631226663977]


def well(depth=5.0, width=2.0):
    return PiecewisePotential(0.0, (PotentialSegment(0.0, width, -depth),), 0.0)


def barrier(u=1.0, length=2.0):
    return PiecewisePotential(0.0, (PotentialSegment(0.0, length, u),), 0.0)


def test_mismatch_vanishes_at_even_eigenvalue_center():
    # even state: psi' = 0 at the symmetry point, both sides give Z = 0
    d = impedance_mismatch(well(), WELL_5_2[0], 1.0)
    assert abs(d) < 1e-8


def test_mismatch_large_off_spectrum():
    assert abs(impedance_mismatch(well(), -3.7, 1.0)) > 1e-2


def test_mismatch_small_at_lowest_oracle_energy():
    assert abs(impedance_mismatch(well(), WELL_5_2[0], 0.63)) < 1e-8


def test_mismatch_purely_imaginary_in_bound_window():
    for e in (-4.5, -2.0, -0.7):
        d = impedance_mismatch(well(), e, 0.77)
        assert abs(d.real) < 1e-12 * max(1.0, abs(d))


def test_mismatch_probe_must_be_interior():
    with pytest.raises(ValueError):
        impedance_mismatch(well(), -1.0, 2.5)


def test_numeric_mismatch_agrees_with_chain():
    cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, force_numeric=True)
    for e in (-4.0, -1.3):
        ana = impedance_mismatch(well(), e, 0.77)
        num = impedance_mismatch(well(), e, 0.77, cfg=cfg)
        assert abs(ana - num) < 1e-8 * (1.0 + abs(ana))


def test_square_well_three_states():
    res = find_bound_states(well())
    assert res.kind is SpectrumKind.BOUND
    assert len(res.energies) == 3
    np.testing.assert_allclose(res.energies, WELL_5_2, rtol=0, atol=1e-8)
    assert all(r <= 10 * ROOT_TOL for r in res.residuals)


def test_shallow_well_still_binds():
    res = find_bound_states(well(1e-6, 2.0))
    assert len(res.energies) == 1
    # shallow-well asymptote E = -m (V0 l)^2 / (2 hbar^2)
    assert res.energies[0] == pytest.approx(-2e-12, rel=1e-2)


def test_step_has_empty_bound_window():
    pot = PiecewisePotential(0.0, (), 1.0, step_x=0.0)
    with pytest.raises(EmptyWindowError):
        find_bound_states(pot)
    raised = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 2.0),), 0.0)
    with pytest.raises(EmptyWindowError):
        find_bound_states(raised)


def test_energies_strictly_increasing_many_states():
    res = find_bound_states(well(30.0, 4.0))
    oracle = square_well_eigenvalues(30.0, 4.0)
    assert len(res.energies) == len(oracle) == square_well_state_count(30.0, 4.0)
    assert np.all(np.diff(res.energies) > 0)
    np.testing.assert_allclose(res.energies, oracle, rtol=0, atol=1e-8)


def test_probe_point_invariance():
    base = find_bound_states(well())
    span = 2.0
    for frac in (0.11, 0.33, 0.58, 0.69, 0.91):
        res = find_bound_states(well(), probe_x=frac * span)
        assert len(res.energies) == len(base.energies)
        np.testing.assert_allclose(res.energies, base.energies, rtol=0, atol=1e-9)


def test_mismatch_small_at_roots_across_probes():
    # the matching point is arbitrary: |D| stays small at any probe that
    # does not sit on a node of the eigenfunction
    res = find_bound_states(well())
    for e in res.energies:
        for frac in (0.11, 0.33, 0.58, 0.69, 0.91):
            assert abs(impedance_mismatch(well(), e, frac * 2.0)) <= 10 * ROOT_TOL


def test_deeper_well_lowers_each_level():
    shallow = find_bound_states(well(5.0, 2.0))
    deep = find_bound_states(well(7.0, 2.0))
    for es, ed in zip(shallow.energies, deep.energies):
        assert ed <= es


def test_numeric_path_finds_all_states():
    cfg = IntegrationConfig(force_numeric=True)
    res = find_bound_states(well(), cfg=cfg)
    assert len(res.energies) == 3
    np.testing.assert_allclose(res.energies, WELL_5_2, rtol=0, atol=1e-6)


def test_sampled_well_close_to_sharp_well():
    # near-vertical linear walls approximate the square well
    eps = 1e-6
    pot = SampledPotential(
        (0.0, eps, 2.0 - eps, 2.0), (0.0, -5.0, -5.0, 0.0), 0.0, 0.0
    )
    res = find_bound_states(pot)
    assert len(res.energies) == 3
    np.testing.assert_allclose(res.energies, WELL_5_2, rtol=0, atol=1e-4)


def test_undersampled_scan_reports_miss():
    pot = well(30.0, 4.0)
    with pytest.raises(BracketingExhaustedError) as exc:
        find_bound_states(pot, scan_points=3)
    assert len(exc.value.energies) > 0
    assert len(exc.value.mismatches) == len(exc.value.energies)
    # the profile is the batched scan; it reads as the scalar Im D would
    probe = _probe_candidates(pot, None)[0]
    for e, d in zip(exc.value.energies, exc.value.mismatches):
        want = impedance_mismatch(pot, e, probe).imag
        assert abs(d - want) <= 1e-11 * max(abs(want), 1.0)


def _scalar_mismatch_many(pot, es, probe_x, cfg, params):
    """The point-by-point scan that _mismatch_many replaces."""
    out = []
    for e in es:
        try:
            out.append(impedance_mismatch(pot, e, probe_x, cfg, params))
        except SolverError:
            out.append(None)
    return out


def test_mismatch_many_matches_scalar(random_stack_instances):
    # bound (E < 0) and scattering energies, every level (degenerate
    # slabs and leads) and level + 1e-13 (nearly so), at each probe
    cfg, params = IntegrationConfig(), ModelParams()
    grid = np.linspace(-3.5, 8.0, 401).tolist()
    for pot, _ in random_stack_instances:
        levels = {pot.left_level, pot.right_level, *(s.u for s in pot.segments)}
        es = sorted({*grid, *levels, *(u + 1e-13 for u in levels)})
        for probe in _probe_candidates(pot, None):
            got = _mismatch_many(pot, es, probe, cfg, params)
            want = _scalar_mismatch_many(pot, es, probe, cfg, params)
            for e, d, w in zip(es, got, want):
                # None exactly where the scalar mismatch raises
                assert (d is None) == (w is None), (pot, probe, e, d, w)
                if w is not None:
                    assert abs(d - w) <= 1e-11 * max(abs(w), 1.0), (pot, probe, e, d, w)


def _outcome(call):
    try:
        res = call()
    except SolverError as exc:
        return type(exc), str(exc)
    return res.energies, res.residuals


_DOCS = Path(__file__).resolve().parents[1] / "docs"


def test_spectra_match_scalar_scan(random_wells, monkeypatch):
    # the scan only brackets; the scalar refinement picks the digits, so
    # the batched scan must give the very energies and residuals
    docs_barrier = load_spec(str(_DOCS / "barrier.json")).potential
    double_barrier = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 1.0, 10.0),
            PotentialSegment(1.0, 3.0, 0.0),
            PotentialSegment(3.0, 4.0, 10.0),
        ),
        0.0,
    )
    wells = [well(depth, width) for depth, width in random_wells]
    wells.append(load_spec(str(_DOCS / "well.json")).potential)
    calls = [lambda pot=pot: find_bound_states(pot) for pot in wells]
    calls += [
        lambda: find_resonances(docs_barrier, 1.0, 13.0),
        lambda: find_resonances(double_barrier, 1.0, 13.0),
    ]
    batched = [_outcome(call) for call in calls]
    monkeypatch.setattr(spectral, "_mismatch_many", _scalar_mismatch_many)
    scalar = [_outcome(call) for call in calls]
    assert batched == scalar
    assert all(len(energies) > 0 for energies, _ in batched)


def test_resonance_comb_single_barrier():
    res = find_resonances(barrier(), 1.0, 13.0)
    want = [1.0 + n * n * math.pi ** 2 / 8.0 for n in (1, 2, 3)]
    assert res.kind is SpectrumKind.RESONANCE
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=1e-8)
    assert all(r < 1e-6 for r in res.residuals)


def test_free_line_flagged_transparent():
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 3.0, 0.0),), 0.0)
    res = find_resonances(pot, 0.5, 5.0)
    assert res.energies == []
    assert res.transparent


def test_resonances_need_propagating_window():
    with pytest.raises(EvanescentIncidenceError):
        find_resonances(barrier(), -1.0, 3.0)


def test_double_barrier_against_transfer_matrix_peaks():
    pot = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 0.5, 2.0),
            PotentialSegment(0.5, 1.5, 0.0),
            PotentialSegment(1.5, 2.0, 2.0),
        ),
        0.0,
    )
    res = find_resonances(pot, 0.1, 8.0)

    # independent locator: unit-transmission peaks of the transfer matrix
    def big_t(e):
        return transfer_matrix_solve(pot, float(e)).big_t

    es = np.linspace(0.1, 8.0, 4001)
    ts = np.array([big_t(e) for e in es])
    peaks = []
    for i in range(1, len(es) - 1):
        if ts[i] > ts[i - 1] and ts[i] > ts[i + 1] and ts[i] > 1 - 1e-6:
            r = minimize_scalar(
                lambda e: -big_t(e),
                bounds=(es[i - 1], es[i + 1]),
                method="bounded",
                options={"xatol": 1e-12},
            )
            peaks.append(float(r.x))
    assert len(res.energies) == len(peaks) > 0
    np.testing.assert_allclose(res.energies, peaks, rtol=0, atol=1e-6)


def test_asymmetric_double_barrier_has_no_exact_resonance():
    # unequal barriers never reach T = 1; the matching search must not
    # invent roots where only finite peaks exist
    pot = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 0.5, 2.0),
            PotentialSegment(0.5, 1.5, 0.0),
            PotentialSegment(1.5, 2.2, 3.0),
        ),
        0.0,
    )
    res = find_resonances(pot, 0.1, 5.0)
    assert res.energies == []
    assert not res.transparent


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: impedance_mismatch(well(), bad, 1.0),
        lambda bad: impedance_mismatch(well(), -2.0, bad),
        lambda bad: impedance_mismatch(
            well(), bad, 1.0, IntegrationConfig(force_numeric=True)
        ),
        lambda bad: find_bound_states(well(), probe_x=bad),
        lambda bad: find_resonances(barrier(), bad, 5.0),
        lambda bad: find_resonances(barrier(), 0.5, bad),
        lambda bad: find_resonances(barrier(), 0.5, 5.0, probe_x=bad),
    ],
    ids=[
        "mismatch-energy",
        "mismatch-probe",
        "mismatch-numeric",
        "bound-probe",
        "resonance-low",
        "resonance-high",
        "resonance-probe",
    ],
)
def test_non_finite_inputs_rejected(call, bad):
    # a NaN or infinity is an input error, never a NaN mismatch or a raw
    # ValueError from the window and probe comparisons
    with pytest.raises(NonFiniteInputError):
        call(bad)
