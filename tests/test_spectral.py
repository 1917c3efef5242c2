"""Bound-state and resonance search through the impedance matching condition."""

import functools
import itertools
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from qwim import scattering, spectral
from qwim.errors import (
    BracketingExhaustedError,
    EmptyWindowError,
    EvanescentIncidenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    QwimError,
    SolverError,
    TransformPoleError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, SampledPotential, Side
from qwim.riccati import IntegrationConfig
from qwim.scattering import _Incidence, solve_scattering
from qwim.specfile import load_spec
from qwim.spectral import (
    RESONANCE_TOL,
    SpectrumKind,
    _default_probe,
    _Ends,
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


def test_mismatch_at_a_lead_level_takes_the_threshold_anchor():
    # a lead at level e anchors at Z = 0, the limit of its decaying tail,
    # on both engines: the bound search's W at the window ceiling
    d0 = impedance_mismatch(well(), 0.0, 0.77)
    assert abs(d0 - impedance_mismatch(well(), -1e-12, 0.77)) < 1e-5
    numeric = impedance_mismatch(well(), 0.0, 0.77, cfg=IntegrationConfig(force_numeric=True))
    assert abs(numeric - d0) < 1e-8


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
    assert all(r <= 1e-9 for r in res.residuals)


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
            assert abs(impedance_mismatch(well(), e, frac * 2.0)) <= 1e-9


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


def test_count_mismatch_raises(monkeypatch):
    # a node count that is not monotone (here N jumps by 3 on a window
    # about the first bisection point, -2.5) hands the bisection brackets
    # that hold more states than N(ceiling): the search raises, with every
    # energy it evaluated and W there
    pot = well()
    real = _Ends.count

    def bumped(ends, e):
        return real(ends, e) + 3 * (-2.6 < e < -2.4)

    monkeypatch.setattr(_Ends, "count", bumped)
    with pytest.raises(BracketingExhaustedError) as exc:
        find_bound_states(pot)
    assert str(exc.value) == "found 4 states, the node count gives 3"
    assert len(exc.value.energies) > 0
    assert len(exc.value.mismatches) == len(exc.value.energies)
    assert exc.value.energies == sorted(exc.value.energies)
    # the profile reads as the scalar W at the one probe, with the
    # window's wavenumber scale
    probe, sigma = _default_probe(pot), math.sqrt(2.0 * 5.0)
    ends = _Ends(pot, probe, IntegrationConfig(), ModelParams())
    for e, w in zip(exc.value.energies, exc.value.mismatches):
        assert w == _wronskian(*ends(e), sigma)


def test_one_state_bracket_is_located_to_an_ulp(monkeypatch):
    # where Brent's method finds no root in a bracket that holds one
    # state, halving by N narrows it to one ulp, and the search reports
    # its upper end: here within 4.4e-16 of the unbroken search's root
    pot = well()
    want = find_bound_states(pot).energies
    real = spectral.brentq

    def failing(f, lo, hi, **kwargs):
        if lo < WELL_5_2[1] + 1e-3 and hi > WELL_5_2[1] - 1e-3:
            raise ValueError("no root here")
        return real(f, lo, hi, **kwargs)

    monkeypatch.setattr(spectral, "brentq", failing)
    res = find_bound_states(pot)
    assert res.energies[0] == want[0] and res.energies[2] == want[2]
    assert abs(res.energies[1] - want[1]) <= 2e-15


def _scalar_r(walk, e):
    """r at e from the walk's scalar call, the point-by-point scan: None
    where it raises or r is not finite."""
    try:
        r = walk(e)[0]
    except (SolverError, ZeroDivisionError):
        return None
    return r if np.isfinite(r) else None


def test_mismatch_many_matches_scalar(random_stack_instances):
    # scattering and evanescent energies, every level (degenerate slabs
    # and leads) and level + 1e-13 (nearly so), for incidence from both
    # sides: the array pass of the resonance scan gives the scalar r.
    # Unequal leads are degenerate one at a time; with 2m/hbar^2 = 1e308
    # a bare step's k overflows in one lead and not the other between
    # -1.8 and -0.8 and between 1.8 and 2.8, where the array r is NaN and
    # no chain flags
    cfg, default = IntegrationConfig(), ModelParams()
    grid = np.linspace(-3.5, 8.0, 401).tolist()
    cases = [(pot, default) for pot, _ in random_stack_instances] + [
        (PiecewisePotential(0.4, (PotentialSegment(0.0, 1.0, 2.0),), -0.3), default),
        (PiecewisePotential(0.0, (), 1.0, step_x=0.5), ModelParams(mass=5e307)),
    ]
    for pot, params in cases:
        levels = {pot.left_level, pot.right_level, *(s.u for s in pot.segments)}
        es = sorted({*grid, *levels, *(u + 1e-13 for u in levels)})
        for side in (Side.LEFT, Side.RIGHT):
            walk = _Incidence(pot, side, cfg, params)
            got = walk.reflections(es)
            want = [_scalar_r(walk, e) for e in es]
            for e, d, w in zip(es, got, want):
                # None exactly where the scalar ends raise or the value
                # is not finite
                assert (d is None) == (w is None), (pot, side, e, d, w)
                if w is not None:
                    assert abs(d - w) <= 1e-11 * max(abs(w), 1.0), (pot, side, e, d, w)


def _sampled_well(depth=4.0, n=17, left=0.0, right=0.0):
    xs = np.linspace(-2.0, 2.0, n)
    return SampledPotential(tuple(xs), tuple(-depth * np.exp(-xs * xs)), left, right)


def test_sampled_mismatch_many_matches_scalar():
    # the array pass along linear slabs against the scalar walk, r for
    # both sides, evanescent and scattering energies, sample levels
    # included
    cfg, params = IntegrationConfig(), ModelParams()
    for pot in (_sampled_well(), _sampled_well(9.0, 81, 0.5, -0.3)):
        es = sorted({*np.linspace(-8.9, 6.0, 151).tolist(), *pot.us})
        for side in (Side.LEFT, Side.RIGHT):
            walk = _Incidence(pot, side, cfg, params)
            got = walk.reflections(es)
            want = [_scalar_r(walk, e) for e in es]
            for e, d, w in zip(es, got, want):
                assert (d is None) == (w is None), (side, e, d, w)
                if w is not None:
                    assert abs(d - w) <= 1e-12 * max(abs(w), 1.0), (side, e, d, w)


def test_reflection_drops_an_r_that_is_not_finite(monkeypatch):
    # a scalar walk that raises nothing but gives Z(a) = NaN
    nan = complex("nan")
    monkeypatch.setattr(scattering, "_chain", lambda steps, e, z, c: (nan, 1.0, 1.0))
    walk = _Incidence(barrier(), Side.LEFT, IntegrationConfig(), ModelParams())
    assert walk.reflection(2.0) is None


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


def test_sampled_search_counts_a_node_on_a_sample():
    # -12 exp(-x^2 / 2) on 41 samples: the odd state's node sits on the
    # sample at x = 0, so within about 3e-17 of that state a sub-slab
    # step of the walk from the left to the probe 0.7 ends exactly on a
    # psi-node; the real walk counts it where the complex walk raised
    # TransformPoleError.  The probes agree to 8.9e-16
    xs = np.linspace(-3.0, 3.0, 41)
    us = -12.0 * np.exp(-xs * xs / 2.0)
    pot = SampledPotential(tuple(xs.tolist()), tuple(us.tolist()), 0.0, 0.0)
    default = find_bound_states(pot)
    assert len(default.energies) == 6
    res = find_bound_states(pot, probe_x=0.7)
    np.testing.assert_allclose(res.energies, default.energies, rtol=0, atol=1e-14)


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


@pytest.mark.parametrize(
    "segments, want", [RANDOM_WELLS[1], RANDOM_WELLS[2]], ids=["well6", "well10"]
)
def test_numeric_search_completes_random_wells(segments, want):
    # the stepper's W is signed by the slab bridges across its own
    # intervals; in brackets from the node count these states, which a
    # scan grid missed, are each one root
    pot = PiecewisePotential(0.0, tuple(PotentialSegment(*s) for s in segments), 0.0)
    res = find_bound_states(pot, cfg=IntegrationConfig(force_numeric=True))
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=1e-9)
    assert max(res.residuals) <= 1e-10


def test_numeric_search_keeps_every_root_of_the_signed_w():
    # random well 3: every Brent root of the signed W is a state, with no
    # filter on |W| at the root, which dropped one of these 6.  Its ground
    # state's |W| of 6.9e-10 is the stepper's noise, so the energies are
    # checked here and the residuals are not
    segments, want = RANDOM_WELLS[0]
    pot = PiecewisePotential(0.0, tuple(PotentialSegment(*s) for s in segments), 0.0)
    res = find_bound_states(pot, cfg=IntegrationConfig(force_numeric=True))
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=1e-9)


def _beside_thick_barrier(length):
    """A well (0, 2) at -5 beside a barrier (2, 2 + length) at 2, zero leads."""
    return _stack([(0.0, 2.0, -5.0), (2.0, 2.0 + length, 2.0)])


@functools.cache
def _thick_barrier_numeric():
    cfg = IntegrationConfig(force_numeric=True)
    return find_bound_states(_beside_thick_barrier(100.0), cfg=cfg)


def test_numeric_search_signs_w_across_a_thick_barrier():
    # a well beside a barrier of length 100: psi falls by more than
    # e^-280 across it, but W reads only the signs of the bridged psi
    # ratios, which cannot underflow.  W changes sign within far less
    # than an ulp of each state, so |W| is of order one at the roots
    # and only the energies are checked
    res = _thick_barrier_numeric()
    np.testing.assert_allclose(
        res.energies, [-4.268116109084615, -2.1831599366644756], rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("length", [100.0, 700.0], ids=["L100", "L700"])
def test_well_beside_thick_barrier_completes_on_the_chain(length):
    # the real walk carries psi's sign, not its size, so nothing
    # underflows across the barrier, and W changes sign across one ulp
    # at each state, where Brent's method finds it.  Past x = 102 the
    # barrier moves the energies by far less than e^-700, so both
    # lengths have the stepper's L = 100 states
    res = find_bound_states(_beside_thick_barrier(length))
    assert len(res.energies) == 2
    np.testing.assert_allclose(res.energies, _thick_barrier_numeric().energies, rtol=0, atol=1e-9)


_DOCS = Path(__file__).resolve().parents[1] / "docs"


def _spectra_symmetric_stacks():
    """The 8 seeded symmetric stacks of the benchmark's spectra pool,
    drawn as it draws them: after its 16 random wells, from one stream."""
    rng = np.random.default_rng([20260823, 4])
    for i in range(16):
        rng.uniform(size=2 * (2 + i % 4))  # a length and a level a well segment
    stacks = []
    for i in range(8):
        half = [(float(rng.uniform(0.3, 1.2)), float(rng.uniform(-2.0, 6.0)))
                for _ in range(1 + i % 3)]
        x, segments = 0.0, []
        for length, u in half + half[::-1]:
            segments.append((x, x + length, u))
            x += length
        stacks.append(_stack(segments))
    return stacks


def test_spectra_match_scalar_scan(monkeypatch):
    # the scan only brackets; the scalar refinement picks the digits, so
    # the array pass and a scan that walks each energy alone (as where
    # numpy is not loaded) give the very same spectra
    docs_barrier = load_spec(str(_DOCS / "barrier.json")).potential
    double_barrier = _stack([(0.0, 1.0, 10.0), (1.0, 3.0, 0.0), (3.0, 4.0, 10.0)])
    searches = [(docs_barrier, 1.0, 13.0), (double_barrier, 1.0, 13.0)] + [
        (pot, 0.5, 12.0) for pot in _spectra_symmetric_stacks()
    ]
    calls = [
        partial(find_resonances, pot, lo, hi, side)
        for (pot, lo, hi), side in itertools.product(searches, (Side.LEFT, Side.RIGHT))
    ]
    batched = [repr(call()) for call in calls]
    monkeypatch.setattr(scattering, "_array_pass", lambda pot, energies=None, c=None: False)
    monkeypatch.setattr(_Incidence, "many", None)  # the scan takes no array pass
    scalar = [repr(call()) for call in calls]
    assert batched == scalar
    assert all("energies=[]" not in out for out in batched)


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
    real = _Incidence.__call__

    def failing(walk, e, bridge=False):
        if 2.2337 < e < 2.2338:
            raise TransformPoleError("no r here")
        return real(walk, e, bridge)

    # the refinement's scalar walks; the scan grid takes the array pass
    monkeypatch.setattr(_Incidence, "__call__", failing)
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
    # scalar chains that leave their anchor as it is: Z(a) = z2, the far
    # lead's impedance, which is z1 (both leads are at 0), so r = 0 exactly
    monkeypatch.setattr(scattering, "_chain", lambda steps, e, z, c: (z, 1.0, 1.0))
    monkeypatch.setattr(spectral, "SCAN_POINTS", 20)
    find_resonances(pot, 1.0, 13.0)
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


def test_asymmetric_double_barrier_has_no_resonance_far_above_it():
    # far above the barriers r ~ dU / E stays below RESONANCE_TOL at every
    # scan energy, and its minima are near misses: none is a zero of r
    pot = PiecewisePotential(
        0.0,
        (
            PotentialSegment(0.0, 0.5, 2.0),
            PotentialSegment(0.5, 1.5, 0.0),
            PotentialSegment(1.5, 2.2, 3.0),
        ),
        0.0,
    )
    res = find_resonances(pot, 1e7, 1e8)
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
    # a finite level whose z = sqrt(2 (E - U) / m) overflows, and a slab
    # whose k dx has no float value (cmath.cosh raised ValueError)
    for pot, params in [
        (PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, -1e308),), 0.0), ModelParams()),
        (PiecewisePotential(0.0, (PotentialSegment(0.0, 1e10, -5.0),), 0.0),
         ModelParams(hbar=1e-300)),
    ]:
        with pytest.raises(NonFiniteStateError):
            impedance_mismatch(pot, -1.0, 0.5, params=params)
        with pytest.raises(NonFiniteStateError):
            find_bound_states(pot, params=params)
        # r has a value at no scan energy: the search returned an empty
        # spectrum in place of the error
        with pytest.raises(NonFiniteStateError):
            find_resonances(pot, 1.0, 2.0, params=params)
    # 2 m / hbar^2 overflows at hbar = 1e-200 and underflows to 0 at
    # 1e200, on a sampled potential and the stepper's bridge: every search
    # raises typed at both.  Past 1e200 the searches returned D = -2j and
    # an empty resonance list, or raised, by the kind of potential (the
    # well's one state lies some 1e-400 below the ceiling); the units'
    # edge now raises one error for every search and kind
    sampled = SampledPotential((-3.0, 0.0, 3.0), (0.0, -2.0, 0.0), 0.0, 0.0)
    numeric = IntegrationConfig(force_numeric=True)
    for pot, cfg in ((sampled, IntegrationConfig()), (sampled, numeric), (well(1.0), numeric),
                     (well(1.0), IntegrationConfig())):
        for params in (ModelParams(hbar=1e-200), ModelParams(hbar=1e200)):
            with pytest.raises(NonFiniteStateError):
                impedance_mismatch(pot, -0.5, 0.5, cfg, params)
            with pytest.raises(NonFiniteStateError):
                find_bound_states(pot, cfg, params)
            with pytest.raises(NonFiniteStateError):
                find_resonances(pot, 0.1, 2.0, cfg=cfg, params=params)


def test_node_count_past_the_state_bound_raises(monkeypatch):
    # N(ceiling) = 2.0e150 here: the bisection ran with no bound on its
    # time or its list of brackets
    with pytest.raises(NonFiniteStateError, match="2.01e"):
        find_bound_states(well(), params=ModelParams(mass=1e300))
    # the bound is inclusive: the three states of the well pass at 3
    monkeypatch.setattr(spectral, "MAX_STATES", 3)
    assert len(find_bound_states(well()).energies) == 3
    monkeypatch.setattr(spectral, "MAX_STATES", 2)
    with pytest.raises(NonFiniteStateError, match="node count"):
        find_bound_states(well())


def test_search_builds_its_slab_lists_once(monkeypatch):
    # the search walks every energy along the slab lists it built (two
    # for bound states, the scattering walk for resonances), walks each
    # energy once, and makes no dataclass; a bound search takes one real
    # walk per energy and side, which serves both the node count and W
    from qwim import analytic, scattering

    counts = {"lists": 0, "scattering lists": 0, "RegionConstants": 0, "solves": 0}
    walked, chained, counted, matched = [], [], [], []

    def counting(key, f):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return wrapped

    def recording(log, f):
        def wrapped(slabs, e, anchor, c):
            log.append((id(slabs), e))
            return f(slabs, e, anchor, c)

        return wrapped

    def logging(log, f):
        def wrapped(ends, e):
            log.append(e)
            return f(ends, e)

        return wrapped

    monkeypatch.setattr(spectral, "_steps", counting("lists", spectral._steps))
    monkeypatch.setattr(spectral, "_real_walk", recording(walked, spectral._real_walk))
    monkeypatch.setattr(spectral, "_chain", recording(chained, spectral._chain))
    monkeypatch.setattr(scattering, "_chain", recording(chained, scattering._chain))
    monkeypatch.setattr(_Ends, "count", logging(counted, _Ends.count))
    monkeypatch.setattr(_Ends, "__call__", logging(matched, _Ends.__call__))
    monkeypatch.setattr(scattering, "_steps", counting("scattering lists", scattering._steps))
    monkeypatch.setattr(
        scattering, "solve_scattering", counting("solves", scattering.solve_scattering)
    )
    monkeypatch.setattr(
        analytic, "RegionConstants", counting("RegionConstants", analytic.RegionConstants)
    )

    res = find_bound_states(well())
    assert len(res.energies) == 3
    assert counts == {"lists": 2, "scattering lists": 0, "RegionConstants": 0, "solves": 0}
    assert not chained and len(walked) > 30
    # each energy once per side, along one list per side, both sides at
    # every energy: the energies counted and those W was taken at
    assert len(set(walked)) == len(walked)
    (left, right) = {slabs for slabs, _ in walked}
    sides = [{e for slabs, e in walked if slabs == side} for side in (left, right)]
    assert sides[0] == sides[1] == set(counted) | set(matched)
    assert set(res.energies) <= sides[0]
    # W at an energy the count walked took the count's walk
    assert set(counted) & set(matched)

    counts.update(dict.fromkeys(counts, 0))
    walked.clear()
    docs_barrier = load_spec(str(_DOCS / "barrier.json")).potential
    res = find_resonances(docs_barrier, 1.0, 13.0)
    assert len(res.energies) == 3
    # one walk, the scattering solve's, and no scattering solve
    assert counts == {"lists": 0, "scattering lists": 1, "RegionConstants": 0, "solves": 0}
    assert not walked and len(chained) > 30
    # each energy once, along the one walk, each resonance among them
    assert len(set(chained)) == len(chained)
    assert len({slabs for slabs, _ in chained}) == 1
    assert set(res.energies) <= {e for _, e in chained}


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


# An asymmetric double barrier: its transmission peak near 2.7012483 is
# not full (min |r| is about 7.9e-7), and the root of Re r beside it
# also has |r| below RESONANCE_TOL.
NEAR_MISS = [(0.0, 0.5, 5.0), (0.5, 2.5, 0.0), (2.5, 3.0, 5.0 + 3.6e-6)]


def test_resonance_without_a_zero_of_r_is_the_least_r():
    # r has no zero there, so the bounded minimiser runs, and its answer,
    # nearer the minimum of |r| than the component root, is reported
    pot = _stack(NEAR_MISS)
    res = find_resonances(pot, 0.2, 4.0)
    e, r = res.energies[-1], res.residuals[-1]

    def refl(x):
        return solve_scattering(pot, x).r

    root = brentq(lambda x: refl(x).real, e - 1e-4, e + 1e-4, xtol=1e-14, rtol=8.9e-16)
    assert abs(refl(root)) < RESONANCE_TOL
    assert abs(root - e) > 1e-9
    assert r == abs(refl(e)) < abs(refl(root))
    assert abs(e - 2.701248285765464) < 1e-12


def test_resonances_are_the_zeros_of_r_on_a_symmetric_stack():
    # matched at a midpoint probe on D, the first of the three was lost
    pot = _stack(CLI_SYMMETRIC)
    res = find_resonances(pot, 0.5, 12.0)
    np.testing.assert_allclose(res.energies, CLI_SYMMETRIC_RESONANCES, rtol=0, atol=1e-8)
    for e in res.energies:
        assert transfer_matrix_solve(pot, e).big_r < 1e-8


@pytest.mark.parametrize(
    "segments, window, want",
    [
        (CLI_SYMMETRIC, (0.5, 12.0), CLI_SYMMETRIC_RESONANCES[0]),
        (
            [(0.0, 1.0, 10.0), (1.0, 3.0, 0.0), (3.0, 4.0, 10.0)],
            (1.0, 13.0),
            3.2205197387868525,
        ),
    ],
    ids=["cli-symmetric", "double-barrier"],
)
def test_resonance_refined_where_r_circles_the_origin(segments, window, want):
    # across the scan bracket r circles the origin, so neither component
    # changes sign there and the bounded minimiser stops short (|r| 1.7e-7
    # and 2e-5); a window about its answer finds the sign change.  The
    # reference is the even/odd channel overlap of the symmetric stack.
    pot = _stack(segments)
    res = find_resonances(pot, *window)
    (e, r), = [(e, r) for e, r in zip(res.energies, res.residuals) if abs(e - want) < 1e-6]
    assert abs(e - want) <= 1e-12
    assert r < 1e-12
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


def _sturm_count(pot, e):
    """Bound states of a piecewise ``pot`` below e (at most both leads;
    hbar = m = 1), counted without qwim's impedance path: the zeros on
    the whole line of the real solution that decays into the left lead.

    (psi, psi') is carried in closed form across pieces of each slab
    short enough (k h <= 3 < pi) to hold one zero at most, so a sign test
    counts them, each on its half-open piece (start, end].  An evanescent
    slab with k h > 1 is carried as its growing and decaying parts, so a
    psi that decays across a barrier is kept."""
    psi, dpsi = 1.0, math.sqrt(2.0 * (pot.left_level - e))
    zeros = 0
    for seg in pot.segments:
        q, length = 2.0 * (e - seg.u), seg.x_end - seg.x_start
        k = math.sqrt(abs(q))
        pieces = math.ceil(k * length / 3.0) if q > 0.0 else 1
        h = length / pieces
        for _ in range(pieces):
            if q > 0.0:
                c, s = math.cos(k * h), math.sin(k * h)
                p1, d1 = psi * c + dpsi * (s / k), dpsi * c - psi * k * s
            elif k * h > 1.0:
                # the parts that grow and decay along the piece, over
                # exp(k h), or over exp(-k h) where psi only decays: each
                # keeps its relative accuracy, where cosh and sinh would
                # lose a psi that decays across a barrier to cancellation
                grow, decay = psi + dpsi / k, psi - dpsi / k
                if grow:
                    decay *= math.exp(-2.0 * k * h)
                p1, d1 = grow + decay, k * (grow - decay)
            elif q < 0.0:
                # cosh and sinh over cosh(k h), which keeps every sign
                th = math.tanh(k * h)
                p1, d1 = psi + dpsi * (th / k), dpsi + psi * k * th
            else:
                p1, d1 = psi + dpsi * h, dpsi
            zeros += psi != 0.0 and (p1 == 0.0 or (p1 > 0.0) != (psi > 0.0))
            scale = max(abs(p1), abs(d1))
            psi, dpsi = p1 / scale, d1 / scale
    # the same solution in the right lead, psi cosh(kap s) + dpsi / kap
    # sinh(kap s), crosses zero on s > 0 iff it heads down faster than kap
    kap = math.sqrt(2.0 * (pot.right_level - e))
    zeros += psi != 0.0 and (dpsi > 0.0) != (psi > 0.0) and abs(psi) * kap < abs(dpsi)
    return zeros


def _sturm_levels(pot):
    """Every bound energy of ``pot``, by bisection on ``_sturm_count`` to
    float resolution: a doublet closer than the float spacing comes out
    as two equal energies."""
    ceil = min(pot.left_level, pot.right_level)
    lo_known, out = min(seg.u for seg in pot.segments), []
    for i in range(1, _sturm_count(pot, ceil) + 1):
        lo, hi = lo_known, ceil
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if _sturm_count(pot, mid) >= i:
                hi = mid
            else:
                lo = mid
        out.append(hi)
        lo_known = lo
    return out


def test_double_well_spectrum_is_complete():
    # two depth-500 wells 1 apart: tunnel doublets from 1e-10 apart down
    # to far below the float spacing, where N jumps by 2 in a bracket
    # float arithmetic cannot halve
    pot = _stack([(0.0, 2.0, -500.0), (2.0, 3.0, 0.0), (3.0, 5.0, -500.0)])
    res = find_bound_states(pot)
    want = _sturm_levels(pot)
    assert len(res.energies) == len(want) == 42
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=5e-7)
    assert res.energies == sorted(res.energies)
    # the deepest doublet tunnels through exp(-2 sqrt(1000)) of barrier,
    # far below the float spacing: one energy, reported twice
    assert res.energies[0] == res.energies[1]


# Three depth-300 wells 0.8 apart: the states come in triplets within
# 1e-9 of each other.
TRIPLE_WELL = [(0.0, 2.0, -300.0), (2.0, 2.8, 0.0), (2.8, 4.8, -300.0), (4.8, 5.6, 0.0), (5.6, 7.6, -300.0)]
# Its 48 bound energies, frozen from a bisection to 80 halvings on a node
# count carried in 80-digit arithmetic (mpmath), 64 closed-form pieces a
# segment, outside qwim: the triplet splittings go down to 4e-10.
TRIPLE_WELL_LEVELS = [
    -298.86123822615724, -298.8612382257532, -298.8612382253491,
    -295.4456367107158, -295.4456367089189, -295.44563670712205,
    -289.75528088312234, -289.75528087829264, -289.7552808734629,
    -281.793764114627, -281.7937641035848, -281.79376409254263,
    -271.56638022311637, -271.5663801991626, -271.56638017520885,
    -259.0804291160915, -259.08042906419263, -259.0804290122937,
    -244.34568298798473, -244.34568287219827, -244.3456827564118,
    -227.37509572141315, -227.3750954494916, -227.37509517757005,
    -208.18590355955317, -208.18590287441847, -208.18590218928378,
    -186.80139582989878, -186.8013939418311, -186.80139205376318,
    -163.25391828032951, -163.25391246110215, -163.2539066418718,
    -137.590354317944, -137.5903336673347, -137.59031301668145,
    -109.88321131417003, -109.88312331499462, -109.88303531487735,
    -80.2567424741027, -80.25626022493118, -80.25577794151725,
    -48.96650977340211, -48.96263286953475, -48.95875309149529,
    -16.828742821944434, -16.76521120185844, -16.700390993249158,
]


def test_triple_well_spectrum_is_complete_or_raises():
    # a probe in a barrier gives every state, and so does the default
    # probe in the middle well.  There N(E) was not monotone within 1e-9
    # of a triplet, and the search found 54 roots of 48 and raised, while
    # the cosh / sinh step lost the psi that decays across a barrier to
    # cancellation; the real walk keeps it
    pot = _stack(TRIPLE_WELL)
    res = find_bound_states(pot, probe_x=2.4)
    want = _sturm_levels(pot)
    assert len(res.energies) == len(want) == _sturm_count(pot, 0.0) == 48
    np.testing.assert_allclose(res.energies, want, rtol=0, atol=5e-7)
    assert res.energies == sorted(res.energies)
    default = find_bound_states(pot)
    assert len(default.energies) == 48
    np.testing.assert_allclose(default.energies, res.energies, rtol=0, atol=1e-12 * 300.0)
    # every member of every triplet, at each probe: within 1.7e-13 of the
    # high-precision levels at the default probe, 5.1e-14 at 2.4 and 5.2
    # (a walk that loses the decaying psi is off by up to 7e-9 at 2.4)
    for probe, energies in ((None, default.energies), (2.4, res.energies),
                            (5.2, find_bound_states(pot, probe_x=5.2).energies)):
        np.testing.assert_allclose(energies, TRIPLE_WELL_LEVELS, rtol=0, atol=1e-12, err_msg=str(probe))


def test_sturm_count_keeps_a_psi_that_decays_across_a_barrier():
    # inside the triple well's first, second, third and fifth triplets the
    # 80-digit count (mpmath) and the node count of the search give
    # 1 / 5 / 7 / 14; a cosh / sinh step across each barrier lost the
    # decaying psi and gave 0 / 6 / 6 / 15.  The levels bisected on the
    # test-local count then match the 80-digit ones
    pot = _stack(TRIPLE_WELL)
    ends = _Ends(pot, 2.4, IntegrationConfig(), ModelParams())
    for e, want in ((-298.86123822579975, 1), (-295.44563670715434, 5),
                    (-289.7552808790351, 7), (-271.56638017622754, 14)):
        assert _sturm_count(pot, e) == ends.count(e) == want, e
    np.testing.assert_allclose(_sturm_levels(pot), TRIPLE_WELL_LEVELS, rtol=0, atol=1e-12)


def _unequal_leads(random_stack_instances):
    rng = np.random.default_rng(20261018)
    for pot, _ in random_stack_instances:
        left, right = rng.uniform(0.0, 3.0, 2).tolist()
        floor = min(s.u for s in pot.segments)
        if floor < min(left, right):
            yield PiecewisePotential(left, pot.segments, right)


def test_count_matches_sturm_count_off_the_ceiling(random_stack_instances):
    # N(E) at interior energies, at the ceiling, and at every slab level
    # and one ulp to either side of it, where the slab maps degenerate
    cfg, params = IntegrationConfig(), ModelParams()
    checked = 0
    for pot in _unequal_leads(random_stack_instances):
        floor, ceil = min(s.u for s in pot.segments), min(pot.left_level, pot.right_level)
        es = np.linspace(floor, ceil, 13)[1:].tolist()
        for u in {pot.left_level, pot.right_level, *(s.u for s in pot.segments)}:
            es += [math.nextafter(u, -math.inf), u, math.nextafter(u, math.inf)]
        es = [e for e in es if floor < e <= ceil]
        span = pot.b - pot.a
        for frac in (0.5, 0.382, 0.703):
            ends = _Ends(pot, pot.a + frac * span, cfg, params)
            for e in es:
                assert ends.count(e) == _sturm_count(pot, e), (pot, frac, e)
                checked += 1
    assert checked > 1000


def test_count_adds_nothing_for_a_node_at_the_probe(monkeypatch):
    # a walk that ends on a psi-node has counted it on its last step: its
    # Pruefer angle is 0 from the left and pi from the right, so the
    # bracket adds nothing, whatever the other end; off the node it is
    # [y+ + y- < 0]
    ends = _Ends(well(), 1.0, IntegrationConfig(), ModelParams())
    for plus, minus, bracket in (
        ((0.0, 1.0), (1.0, -3.0), 0), ((0.0, -1.0), (1.0, 3.0), 0),
        ((1.0, -3.0), (0.0, 1.0), 0), ((0.0, 1.0), (0.0, -1.0), 0),
        ((1.0, -3.0), (1.0, 2.0), 1), ((-1.0, 3.0), (1.0, 2.0), 1), ((1.0, 3.0), (1.0, -2.0), 0),
    ):
        monkeypatch.setattr(ends, "walk", lambda e: ((*plus, 2), (*minus, 5)))
        assert ends.count(-1.0) == 7 + bracket, (plus, minus)


def test_count_keeps_the_ends_a_call_walks(random_stack_instances):
    # W at an energy the node count walked takes the count's ends: they
    # are bitwise a fresh walk's, with one anchor rule for both, at the
    # ceiling (threshold anchor) and below it
    cfg, params = IntegrationConfig(), ModelParams()
    for pot in _unequal_leads(random_stack_instances):
        floor, ceil = min(s.u for s in pot.segments), min(pot.left_level, pot.right_level)
        probe = pot.a + 0.382 * (pot.b - pot.a)
        for e in (ceil, math.nextafter(ceil, -math.inf), 0.5 * (floor + ceil)):
            counted, fresh = _Ends(pot, probe, cfg, params), _Ends(pot, probe, cfg, params)
            counted.count(e)
            assert e in counted.walked and not fresh.walked
            assert repr(counted(e)) == repr(fresh(e))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    slabs=st.lists(
        st.tuples(st.floats(0.1, 3.0), st.floats(-30.0, 3.0)), min_size=1, max_size=6
    ),
    leads=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    where=st.one_of(
        st.floats(0.0, 1.0),
        st.tuples(st.integers(0, 5), st.sampled_from([-1, 0, 1])),
    ),
    probe=st.floats(0.02, 0.98),
)
# one ulp below a level at 0: the leads anchor at z ~ 1e-162, and the
# Wronskian sign of the count underflowed to 0
@example(slabs=[(1.0, 0.0), (0.5, -1.0)], leads=(0.0, 0.0), where=(1, -1), probe=0.5)
# k ~ 1e-70 in the slab at 0: a Pruefer angle just below pi rounded to
# pi, and the count took a node psi never reaches
@example(
    slabs=[(1.0, 5.138828399912613e-140), (1.0, 0.0), (1.0, -1.0)],
    leads=(1.0, 1.0), where=(2, -1), probe=0.5,
)
# the same slab second: a node psi does reach there, which an angle
# count like the old one's would miss on the reference side
@example(
    slabs=[(1.0, 5.138828399912613e-140), (1.0, -1.0), (1.0, 0.0)],
    leads=(1.0, 1.0), where=(2, -1), probe=0.5,
)
def test_count_matches_sturm_count_fuzz(slabs, leads, where, probe):
    x, segs = 0.0, []
    for length, u in slabs:
        segs.append(PotentialSegment(x, x + length, u))
        x += length
    pot = PiecewisePotential(leads[0], tuple(segs), leads[1])
    floor, ceil = min(u for _, u in slabs), min(leads)
    assume(floor < ceil)
    if isinstance(where, float):
        e = floor + where * (ceil - floor)
    else:
        # a level, or one ulp beside it
        levels = sorted({*leads, *(u for _, u in slabs)})
        u = levels[where[0] % len(levels)]
        e = u if where[1] == 0 else math.nextafter(u, where[1] * math.inf)
    assume(floor < e <= ceil)
    ends = _Ends(pot, pot.a + probe * (pot.b - pot.a), IntegrationConfig(), ModelParams())
    assert ends.count(e) == _sturm_count(pot, e)


@pytest.mark.parametrize("numeric", [False, True], ids=["chain", "numeric"])
def test_state_count_matches_square_well_oracle(random_wells, numeric):
    cfg, params = IntegrationConfig(force_numeric=numeric), ModelParams()
    for depth, width in random_wells:
        want = square_well_state_count(depth, width)
        for frac in (0.07, 0.5, 0.81):
            ends = _Ends(well(depth, width), frac * width, cfg, params)
            assert ends.count(min(ends.levels)) == want, (depth, width, frac)


# a slab of the bound-search fuzz: ordinary, deep and short, or a thick
# one no lower than -1 (a thick deep well would hold thousands of states)
_FUZZ_SLAB = st.one_of(
    st.tuples(st.floats(0.1, 3.0), st.floats(-30.0, 3.0)),
    st.tuples(st.floats(0.05, 1.0), st.floats(-400.0, -30.0)),
    st.tuples(st.floats(30.0, 700.0), st.floats(-1.0, 5.0)),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    slabs=st.lists(_FUZZ_SLAB, min_size=1, max_size=5),
    leads=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    probe=st.floats(0.02, 0.98),
    numeric=st.just(False),
)
# the engines agree on a deep well beside a shallow one, and on two
# wells across a thick barrier
@example(slabs=[(0.5, -200.0), (1.0, 1.0), (0.8, -50.0)], leads=(0.5, 1.0), probe=0.4, numeric=True)
@example(slabs=[(1.5, -8.0), (40.0, 2.0), (1.0, -3.0)], leads=(1.0, 0.5), probe=0.3, numeric=True)
# a psi that only decays across the barrier lost its growing part to
# rounding while exp(-2 kappa h) underflowed: the count met psi = psi' = 0
# and divided by zero
@example(slabs=[(0.5, -28.980631787944564), (255.0, 3.0895602444674655)], leads=(0.0, 0.0),
         probe=0.5, numeric=False)
# a window 3.7e-141 wide, its state at -6.8e-282: brentq ran out of
# iterations and raised RuntimeError through the search
@example(slabs=[(1.0, -3.680333597510656e-141)], leads=(0.0, 0.0), probe=0.5, numeric=False)
def test_bound_search_gives_the_sturm_count_fuzz(slabs, leads, probe, numeric):
    # on deep and thick stacks the search returns N(ceiling) states by
    # the test-local count, sorted inside the window, or raises a typed
    # error; on the examples marked numeric, force_numeric gives the same
    # energies
    x, segs = 0.0, []
    for length, u in slabs:
        segs.append((x, x + length, u))
        x += length
    pot = _stack(segs, *leads)
    floor, ceil = min(u for _, u in slabs), min(leads)
    assume(floor < ceil)
    probe_x = probe * x
    try:
        res = find_bound_states(pot, probe_x=probe_x)
    except QwimError:
        return
    assert len(res.energies) == _sturm_count(pot, ceil)
    assert res.energies == sorted(res.energies)
    assert all(floor < e <= ceil for e in res.energies)
    if numeric:
        rk = find_bound_states(pot, cfg=IntegrationConfig(force_numeric=True), probe_x=probe_x)
        np.testing.assert_allclose(rk.energies, res.energies, rtol=0, atol=1e-8)


def test_bound_search_refines_a_state_far_inside_a_wide_window(monkeypatch):
    # the well (0, 1) at depth 3.68e-141 holds one state at -6.8e-282, in
    # a window some 2^520 of its tolerances wide: brentq refines it in
    # one call, where an iteration limit of 100 ran out 483 times and the
    # search halved the window by the node count after each
    calls, walks = [], []
    search_brentq, wronskian = spectral.brentq, spectral._wronskian
    monkeypatch.setattr(spectral, "brentq", lambda *a, **k: calls.append(a) or search_brentq(*a, **k))
    monkeypatch.setattr(spectral, "_wronskian", lambda *a: walks.append(a) or wronskian(*a))
    res = find_bound_states(well(3.68e-141, 1.0))
    # one call that converges: a RuntimeError would halve the window and call again
    assert len(calls) == 1
    # Brent's iterates, about one per halving down to the state's tolerance
    assert len(walks) < 600
    (e,) = res.energies
    assert abs(e + 3.68e-141 ** 2 / 2) <= 1e-15 * 3.68e-141 ** 2 / 2


@pytest.mark.parametrize("depth", [1e-160, 1e-200, 1e-250])
def test_bound_state_within_tolerance_of_a_zero_ceiling_is_reported_there(depth):
    # the well (0, 1) below zero leads holds one state at about
    # -depth^2 / 2 (-5e-321, a subnormal, at 1e-160; below the float
    # range deeper), within _XTOL = 1e-300 of the ceiling: the search
    # reports it at the ceiling, as its docstring says
    res = find_bound_states(well(depth, 1.0))
    assert res.energies == [0.0]
    assert spectral._XTOL >= depth ** 2
