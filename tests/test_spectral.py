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
    NonFiniteStateError,
    SolverError,
    TransformPoleError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, SampledPotential, Side
from qwim.riccati import IntegrationConfig
from qwim.specfile import load_spec
from qwim.spectral import (
    ROOT_TOL,
    SpectrumKind,
    _default_probe,
    _Ends,
    _Entry,
    _mismatch,
    _scan,
    _wronskian,
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
    # the profile is the batched scan; it reads as the scalar W would at
    # the one probe, with the window's velocity scale
    probe, s = _default_probe(pot), math.sqrt(2.0 * 30.0)
    for e, w in zip(exc.value.energies, exc.value.mismatches):
        want = _wronskian(*_Ends(pot, probe, IntegrationConfig(), ModelParams())(e), s)
        assert abs(w - want) <= 1e-11 * max(abs(want), 1.0)


def _scalar_scan(ends, es, match):
    """The point-by-point scan that _scan replaces."""
    out = []
    for e in es:
        try:
            v = match(*ends(e))
        except SolverError:
            v = None
        out.append(v if v is not None and np.isfinite(v) else None)
    return out


def test_mismatch_many_matches_scalar(random_stack_instances):
    # bound (E < 0) and scattering energies, every level (degenerate
    # slabs and leads) and level + 1e-13 (nearly so), at several probes,
    # for both matching functions: W and D
    cfg, params = IntegrationConfig(), ModelParams()
    grid = np.linspace(-3.5, 8.0, 401).tolist()
    matches = [lambda plus, minus: _wronskian(plus, minus, 2.5), _mismatch]
    for pot, _ in random_stack_instances:
        levels = {pot.left_level, pot.right_level, *(s.u for s in pot.segments)}
        es = sorted({*grid, *levels, *(u + 1e-13 for u in levels)})
        span = pot.b - pot.a
        for probe in (_default_probe(pot), pot.a + 0.382 * span, pot.a + 0.703 * span):
            ends = _Ends(pot, probe, cfg, params)
            for match in matches:
                got = _scan(ends, es, match)
                want = _scalar_scan(ends, es, match)
                for e, d, w in zip(es, got, want):
                    # None exactly where the scalar ends raise or the
                    # value is not finite
                    assert (d is None) == (w is None), (pot, probe, e, d, w)
                    if w is not None:
                        assert abs(d - w) <= 1e-11 * max(abs(w), 1.0), (pot, probe, e, d, w)


def _sampled_well(depth=4.0, n=17, left=0.0, right=0.0):
    xs = np.linspace(-2.0, 2.0, n)
    return SampledPotential(tuple(xs), tuple(-depth * np.exp(-xs * xs)), left, right)


def test_sampled_mismatch_many_matches_scalar():
    # the array pass along linear slabs against the scalar walk, W and D,
    # bound and scattering energies, sample levels included
    cfg, params = IntegrationConfig(), ModelParams()
    matches = [lambda plus, minus: _wronskian(plus, minus, 2.5), _mismatch]
    for pot in (_sampled_well(), _sampled_well(9.0, 81, 0.5, -0.3)):
        es = sorted({*np.linspace(-8.9, 6.0, 151).tolist(), *pot.us})
        for probe in (0.0, -0.61, 1.37):
            ends = _Ends(pot, probe, cfg, params)
            for match in matches:
                got = _scan(ends, es, match)
                want = _scalar_scan(ends, es, match)
                for e, d, w in zip(es, got, want):
                    assert (d is None) == (w is None), (probe, e, d, w)
                    if w is not None:
                        assert abs(d - w) <= 1e-12 * max(abs(w), 1.0), (probe, e, d, w)


def test_sampled_bound_mismatch_is_purely_imaginary():
    # real sub-slab maps carry the imaginary tail anchors: Re D is 0 exactly
    for pot in (_sampled_well(), _sampled_well(9.0, 81, 0.5, -0.3)):
        for e in np.linspace(-3.9, -0.35, 8).tolist():
            for probe in (0.0, -0.61, 1.37):
                d = impedance_mismatch(pot, e, probe)
                assert d.real == 0.0 and d.imag != 0.0, (e, probe, d)


def test_sampled_bound_states_match_stepper():
    # the chain's W is signed on sampled potentials too: every sign change
    # is a state, found to float resolution
    pot = _sampled_well()
    chain = find_bound_states(pot)
    rk = find_bound_states(pot, cfg=IntegrationConfig(force_numeric=True))
    assert len(chain.energies) == len(rk.energies) == 2
    np.testing.assert_allclose(chain.energies, rk.energies, rtol=0, atol=1e-9)
    assert max(chain.residuals) <= 1e-12


# Random wells 3, 6, 10 and 11 of the benchmark's spectra pool (segments,
# then bound energies frozen from an independent Sturm node-count
# bisection to float resolution).  D has a pole wherever a solution has
# a node at the probe; matched on D, these came back with 4 / 3 / 2 / 4
# states.
RANDOM_WELLS = [
    (
        [
            (0.0, 1.43969351709924, -6.870702848869632),
            (1.43969351709924, 1.988863656269036, -8.210308947966043),
            (1.988863656269036, 2.694346450135174, -5.565698105439402),
            (2.694346450135174, 3.7509170150967703, -8.617902379773897),
            (3.7509170150967703, 4.470116017115595, -19.075108645204846),
        ],
        [-15.15873907996447, -7.399290022305529, -6.644540210631011,
         -5.131662337655089, -4.184759612673922, -1.856250375693771],
    ),
    (
        [
            (0.0, 1.303611321773421, -13.978717748578408),
            (1.303611321773421, 1.86993620508074, -9.77001435865842),
            (1.86993620508074, 2.9110603993489708, -0.466793089358184),
            (2.9110603993489708, 4.0777362311299115, 0.7928748011836255),
        ],
        [-12.537974109841672, -8.698370270857449, -4.202218703495687,
         -0.036622450339497396],
    ),
    (
        [
            (0.0, 0.662584781306984, -15.793278320440908),
            (0.662584781306984, 1.2721014549172964, -5.841798690324813),
            (1.2721014549172964, 2.742751090152246, -0.5779693550282374),
            (2.742751090152246, 3.129147850427191, -1.5641250074098387),
        ],
        [-11.655874943403186, -3.2586009574602843, -0.3529487368792504],
    ),
    (
        [
            (0.0, 0.7589616794741767, -13.595239226198636),
            (0.7589616794741767, 2.12853011302867, -7.39636311390548),
            (2.12853011302867, 2.4570081739559715, -9.805858938987468),
            (2.4570081739559715, 3.026766153923787, -5.086129305295332),
            (3.026766153923787, 3.5366150180327782, -14.331598127657799),
        ],
        [-10.552289393027138, -9.18136925866072, -6.814756535580483,
         -4.639734634297381, -1.8303851700278553],
    ),
]


@pytest.mark.parametrize(
    "segments, want", RANDOM_WELLS, ids=["well3", "well6", "well10", "well11"]
)
def test_random_wells_complete_at_any_probe(segments, want):
    pot = PiecewisePotential(0.0, tuple(PotentialSegment(*s) for s in segments), 0.0)
    res = find_bound_states(pot)
    assert res.probe_x == _default_probe(pot)
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=1e-9)
    # the Wronskian does not depend on the matching point: a probe near
    # one end sees the same states
    near_end = find_bound_states(pot, probe_x=pot.a + 0.1 * (pot.b - pot.a))
    np.testing.assert_allclose(near_end.energies, res.energies, rtol=0, atol=1e-9)


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
    monkeypatch.setattr(spectral, "_scan", _scalar_scan)
    scalar = [_outcome(call) for call in calls]
    assert batched == scalar
    assert all(len(energies) > 0 for energies, _ in batched)


def test_resonance_comb_single_barrier():
    res = find_resonances(barrier(), 1.0, 13.0)
    want = [1.0 + n * n * math.pi ** 2 / 8.0 for n in (1, 2, 3)]
    assert res.kind is SpectrumKind.RESONANCE
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=1e-8)
    assert all(r < 1e-6 for r in res.residuals)


def test_failed_evaluation_in_resonance_refinement_is_skipped(monkeypatch):
    # r cannot be evaluated right around the first resonance: the
    # component root finders drop that bracket instead of raising
    pot = load_spec(str(_DOCS / "barrier.json")).potential
    clean = find_resonances(pot, 1.0, 13.0)
    real = _Entry.__call__

    def failing(ends, e):
        if 2.2337 < e < 2.2338:
            raise TransformPoleError("no r here")
        return real(ends, e)

    # the refinement's scalar ends; the scan grid takes the array pass
    monkeypatch.setattr(_Entry, "__call__", failing)
    res = find_resonances(pot, 1.0, 13.0)
    assert clean.energies[0] == pytest.approx(2.2337005501361697, abs=1e-12)
    assert res.energies == clean.energies[1:]


def test_resonance_objective_keeps_an_exact_zero(monkeypatch):
    # |r| = 0 exactly is the best value the minimiser can see, not a
    # failed evaluation
    pot = load_spec(str(_DOCS / "barrier.json")).potential
    objectives = []

    def recording(f, lo, hi, xatol):
        objectives.append(f)
        return 0.5 * (lo + hi)

    monkeypatch.setattr(spectral, "minimize_scalar", recording)
    # scalar ends with Z(a) = z1, so r = 0 exactly
    matched = (1 + 0j, 1.0, 1.0)
    monkeypatch.setattr(_Entry, "__call__", lambda ends, e: (matched, matched))
    find_resonances(pot, 1.0, 13.0, scan_points=20)
    assert objectives and objectives[0](2.0) == 0.0


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
    ],
    ids=[
        "mismatch-energy",
        "mismatch-probe",
        "mismatch-numeric",
        "bound-probe",
        "resonance-low",
        "resonance-high",
    ],
)
def test_non_finite_inputs_rejected(call, bad):
    # a NaN or infinity is an input error, never a NaN mismatch or a raw
    # ValueError from the window and probe comparisons
    with pytest.raises(NonFiniteInputError):
        call(bad)


def test_overflowing_level_raises_typed():
    # a finite level whose z = sqrt(2 (E - U) / m) overflows
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, -1e308),), 0.0)
    with pytest.raises(NonFiniteStateError):
        impedance_mismatch(pot, -1.0, 0.5)
    with pytest.raises(NonFiniteStateError):
        find_bound_states(pot)


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_bound_states(well(), scan_points=-3),
        lambda: find_bound_states(well(), scan_points=2),
        lambda: find_resonances(barrier(), 1.0, 13.0, scan_points=0),
        lambda: find_resonances(barrier(), 1.0, 13.0, scan_points=1),
    ],
    ids=["bound-negative", "bound-two", "resonance-zero", "resonance-one"],
)
def test_scan_points_below_three_rejected(call):
    # one or two grid points cannot bracket anything: an empty spectrum
    # from them would look complete
    with pytest.raises(ValueError, match="scan_points"):
        call()


def test_search_builds_its_slab_lists_once(monkeypatch):
    # the refinement chains every energy along the slab lists the search
    # built (two for bound states, the scattering walk for resonances),
    # evaluates each energy once, and makes no dataclass
    from qwim import analytic, scattering

    counts = {"lists": 0, "scattering lists": 0, "RegionConstants": 0, "solves": 0}
    chained = []

    def counting(key, f):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return wrapped

    def recording(slabs, e, z_anchor, params):
        chained.append((id(slabs), e))
        return real_chain(slabs, e, z_anchor, params)

    real_chain = spectral._chain
    monkeypatch.setattr(spectral, "_steps", counting("lists", spectral._steps))
    monkeypatch.setattr(spectral, "_chain", recording)
    monkeypatch.setattr(scattering, "_steps", counting("scattering lists", scattering._steps))
    monkeypatch.setattr(scattering, "_solve", counting("solves", scattering._solve))
    monkeypatch.setattr(
        analytic, "RegionConstants", counting("RegionConstants", analytic.RegionConstants)
    )

    res = find_bound_states(well())
    assert len(res.energies) == 3
    assert counts == {"lists": 2, "scattering lists": 0, "RegionConstants": 0, "solves": 0}
    assert len(chained) > 30
    # each energy once per side, along one list per side
    assert len(set(chained)) == len(chained)
    assert len({slabs for slabs, _ in chained}) == 2

    counts.update(dict.fromkeys(counts, 0))
    chained.clear()
    docs_barrier = load_spec(str(_DOCS / "barrier.json")).potential
    res = find_resonances(docs_barrier, 1.0, 13.0)
    assert len(res.energies) == 3
    # one walk, the scattering solve's, and no scattering solve
    assert counts == {"lists": 0, "scattering lists": 1, "RegionConstants": 0, "solves": 0}
    assert len(chained) > 30
    assert len(set(chained)) == len(chained)
    assert len({slabs for slabs, _ in chained}) == 1


# The symmetric stack of the benchmark's cli_cold workload, and its
# full-transmission energies in 0.5..12 from the benchmark's even/odd
# channel reference, which shares no code with qwim.
CLI_SYMMETRIC = [
    (0.0, 0.9238233787429333, 5.633439702153984),
    (0.9238233787429333, 1.9962929287822062, -1.5989744312943825),
    (1.9962929287822062, 3.068762478821479, -1.5989744312943825),
    (3.068762478821479, 3.9925858575644124, 5.633439702153984),
]
CLI_SYMMETRIC_RESONANCES = [1.0842076670347653, 4.129274113236176, 7.638663431005715]


def _stack(segments, left=0.0, right=0.0):
    return PiecewisePotential(left, tuple(PotentialSegment(*s) for s in segments), right)


def test_resonances_are_the_zeros_of_r_on_a_symmetric_stack():
    # matched at a midpoint probe on D, the first of the three was lost
    pot = _stack(CLI_SYMMETRIC)
    res = find_resonances(pot, 0.5, 12.0)
    np.testing.assert_allclose(res.energies, CLI_SYMMETRIC_RESONANCES, rtol=0, atol=1e-8)
    for e in res.energies:
        assert transfer_matrix_solve(pot, e).big_r < 1e-8


@pytest.mark.parametrize(
    "pot, window",
    [
        (_stack(CLI_SYMMETRIC), (0.5, 12.0)),
        (load_spec(str(_DOCS / "barrier.json")).potential, (1.0, 13.0)),
    ],
    ids=["cli-symmetric", "docs-barrier"],
)
def test_right_incidence_walks_without_a_mirror(pot, window, monkeypatch):
    left = find_resonances(pot, *window)
    calls = []
    real = PiecewisePotential.mirrored

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PiecewisePotential, "mirrored", counted)
    right = find_resonances(pot, *window, side=Side.RIGHT)
    assert calls == []
    assert left.probe_x == pot.a and right.probe_x == pot.b
    assert len(right.energies) == len(left.energies) > 0
    np.testing.assert_allclose(right.energies, left.energies, rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_numeric_resonances_agree_with_chain(side):
    pot = load_spec(str(_DOCS / "barrier.json")).potential
    chain = find_resonances(pot, 1.0, 13.0, side)
    rk = find_resonances(pot, 1.0, 13.0, side, IntegrationConfig(force_numeric=True))
    assert len(rk.energies) == len(chain.energies) == 3
    np.testing.assert_allclose(rk.energies, chain.energies, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "segments, found, count",
    [
        ([(0.0, 2.0, -500.0), (2.0, 3.0, 0.0), (3.0, 5.0, -500.0)], 2, 42),
        ([(0.0, 2.0, -5.0), (2.0, 102.0, 2.0)], 1, 2),
    ],
    ids=["double-well", "well-beside-thick-barrier"],
)
def test_short_spectrum_raises(segments, found, count):
    # the scan misses states here; the node count sees that it did
    with pytest.raises(BracketingExhaustedError) as exc:
        find_bound_states(_stack(segments))
    assert str(exc.value) == f"found {found} states, the node count gives {count}"
    assert len(exc.value.mismatches) == len(exc.value.energies) > 0


@pytest.mark.parametrize("numeric", [False, True], ids=["chain", "numeric"])
def test_state_count_matches_square_well_oracle(random_wells, numeric):
    cfg, params = IntegrationConfig(force_numeric=numeric), ModelParams()
    for depth, width in random_wells:
        want = square_well_state_count(depth, width)
        for frac in (0.07, 0.5, 0.81):
            ends = _Ends(well(depth, width), frac * width, cfg, params)
            assert ends.state_count() == want, (depth, width, frac)
