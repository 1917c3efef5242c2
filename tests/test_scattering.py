"""Scattering amplitudes, sweeps, and current bookkeeping."""

import cmath
import dataclasses
import inspect
import math
import pickle
import warnings

import numpy as np
import pytest

from qwim import analytic, scattering
from qwim.analytic import barrier_closed_forms, region_constants
from qwim.errors import (
    DegenerateEnergyError,
    EvanescentIncidenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    NonPositiveRealPartError,
    SolverError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, SampledPotential, Side
from qwim.riccati import IntegrationConfig, z_minus
from qwim.scattering import (
    EnergyPointError,
    ScatteringResult,
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
    assert energy_sweep(pot, np.array([])) == []
    with pytest.raises(ValueError):
        energy_sweep(pot, [1.0, 1.0])
    with pytest.raises(ValueError):
        energy_sweep(pot, [2.0, 1.5])
    with pytest.raises(ValueError, match="strictly ascending"):
        energy_sweep(pot, np.array([0.5, 1.5, 1.0]))
    # finiteness is checked before ascent, and names the bad value
    with pytest.raises(NonFiniteInputError, match="energy must be finite, got nan"):
        energy_sweep(pot, [2.0, float("nan"), 1.0])
    with pytest.raises(NonFiniteInputError, match="got inf"):
        energy_sweep(pot, np.array([0.5, np.inf]))


def test_scattering_result_is_a_frozen_dataclass():
    # the hand-written __init__ takes the dataclass's fields, in order,
    # with their defaults, and the generated methods see the same record
    params = list(inspect.signature(ScatteringResult.__init__).parameters.values())[1:]
    fields = dataclasses.fields(ScatteringResult)
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields
    ]
    values = (1.5, Side.RIGHT, 0.3 - 0.1j, 0.8 + 0.2j, 0.1, 0.9, 1.2 + 0.4j)
    rec = ScatteringResult(*values)
    assert rec == ScatteringResult(*values, False)
    assert rec == ScatteringResult(**dict(zip([f.name for f in fields], values)))
    assert rec.evanescent_tail is False
    assert hash(rec) == hash(ScatteringResult(*values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.big_r = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.r
    moved = dataclasses.replace(rec, big_r=0.2, evanescent_tail=True)
    assert (moved.big_r, moved.evanescent_tail, moved.r) == (0.2, True, rec.r)
    assert moved != rec
    assert dataclasses.asdict(rec) == dict(zip([f.name for f in fields], values + (False,)))
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is ScatteringResult
    assert repr(back) == repr(rec)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (x for x in (0.5, 1.1, 1.5)),
        lambda: (0.5, 1.1, 1.5),
        lambda: np.array([0.5, 1.1, 1.5], dtype=np.float32),
        lambda: [1, 2, 3],
        lambda: ["0.5", "1.1", "1.5"],
    ],
    ids=["generator", "tuple", "float32", "ints", "strings"],
)
def test_energy_sweep_accepts_real_grids(make):
    out = energy_sweep(barrier(), make())
    # each energy as float() reads it, a Python float
    assert [rec.e for rec in out] == [float(v) for v in make()]
    assert all(type(rec.e) is float for rec in out)
    assert all(type(rec) is ScatteringResult for rec in out)


@pytest.mark.parametrize(
    "grid",
    [
        [0.5, 1.0 + 0.5j],
        np.array([1.0 + 1.0j, 2.0 + 0.0j]),
        [np.complex128(0.5), np.complex128(1.0)],
        np.array([[0.5, 1.0], [1.5, 2.0]]),
        1.5,
        np.array(1.5),
    ],
    ids=["complex", "complex-array", "complex128-entries", "2-D", "scalar", "0-D"],
)
def test_energy_sweep_rejects_non_grids(grid):
    # a complex grid raises before numpy can drop its imaginary parts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError):
            energy_sweep(barrier(), grid)


def test_sweep_builds_no_mirror_and_one_record_a_point(monkeypatch):
    # right incidence walks the stack's own slab list: no mirrored stack,
    # no pointwise solve where no point is flagged, one record a point
    counts = {"mirrored": 0, "solve_scattering": 0, "records": 0}

    def counting(key, f):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        PiecewisePotential, "mirrored", counting("mirrored", PiecewisePotential.mirrored)
    )
    monkeypatch.setattr(
        scattering, "solve_scattering", counting("solve_scattering", scattering.solve_scattering)
    )
    monkeypatch.setattr(
        ScatteringResult, "__init__", counting("records", ScatteringResult.__init__)
    )
    stack, grid = _deep_stack(), np.linspace(1.6, 6.0, 137)
    out = energy_sweep(stack, grid, Side.RIGHT)
    assert counts == {"mirrored": 0, "solve_scattering": 0, "records": len(grid)}
    assert all(type(rec) is ScatteringResult and rec.side is Side.RIGHT for rec in out)


def _sampled_bump(amplitude=2.0, n=41, left=0.0, right=0.0):
    xs = np.linspace(-3.0, 3.0, n)
    return SampledPotential(tuple(xs), tuple(amplitude * np.exp(-xs * xs / 2.0)), left, right)


def test_right_solves_build_no_mirror(monkeypatch):
    # the chain walks each potential's own slab list for right incidence;
    # only the stepper (force_numeric) still solves on the mirror
    counts = {PiecewisePotential: 0, SampledPotential: 0}
    for kind in counts:
        def counted(self, mirrored=kind.mirrored, kind=kind):
            counts[kind] += 1
            return mirrored(self)

        monkeypatch.setattr(kind, "mirrored", counted)
    stack, sampled = _deep_stack(), _sampled_bump(right=0.4)
    for pot in (stack, sampled):
        assert solve_scattering(pot, 2.1, Side.RIGHT).side is Side.RIGHT
        energy_sweep(pot, [0.2, 2.1, 3.0], Side.RIGHT)
    assert counts == {PiecewisePotential: 0, SampledPotential: 0}
    solve_scattering(sampled, 2.1, Side.RIGHT, IntegrationConfig(force_numeric=True))
    assert counts == {PiecewisePotential: 0, SampledPotential: 1}


def test_right_incidence_is_the_mirrors_left_incidence():
    # bitwise: x -> -x negates every step and slope exactly
    for pot in (_deep_stack(), _sampled_bump(right=0.4), _sampled_bump(-3.0, 17, 0.2, -0.1)):
        mirror = pot.mirrored()
        for e in (1.55, 2.1, 3.7):
            right = solve_scattering(pot, e, Side.RIGHT)
            left = solve_scattering(mirror, e)
            assert repr(right) == repr(dataclasses.replace(left, side=Side.RIGHT))


def test_flat_sampled_barrier_matches_stack():
    # slope 0: the sampled chain against the constant-slab chain, at the
    # level itself too, and tilted by slopes down to 1e-12 against the
    # tight stepper
    tight = IntegrationConfig(rel_tol=1e-13, force_numeric=True)
    xs = np.linspace(0.0, 3.0, 13)
    flat = SampledPotential(tuple(xs), (1.0,) * 13, 0.0, 0.0)
    for e in (0.3, 1.0, 1.6, 4.2):
        for side in Side:
            got, want = solve_scattering(flat, e, side), solve_scattering(barrier(1.0, 3.0), e, side)
            for field in ("r", "t", "z_entry"):
                g, w = getattr(got, field), getattr(want, field)
                assert abs(g - w) <= 1e-13 * abs(w), (e, side, field)
    for slope in (1e-3, 1e-6, 1e-9, 1e-12):
        tilted = SampledPotential(tuple(xs), tuple(1.0 + slope * xs), 0.0, 0.0)
        for e in (0.6, 2.3):
            got, rk = solve_scattering(tilted, e), solve_scattering(tilted, e, Side.LEFT, tight)
            assert abs(got.big_r - rk.big_r) <= 1e-12 and abs(got.big_t - rk.big_t) <= 1e-12


def test_thick_evanescent_sampled_barrier_stays_finite():
    # psi falls by e^-3000 across: T underflows to 0 with no warning
    xs = np.linspace(0.0, 600.0, 61)
    pot = SampledPotential(tuple(xs), tuple(5.0 + 0.5 * np.sin(xs)), 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in Side:
            results = [solve_scattering(pot, 1.0, side)]
            results += energy_sweep(pot, np.linspace(0.5, 4.0, 9), side)
            for res in results:
                assert type(res) is ScatteringResult
                values = (res.r, res.t, res.z_entry, res.big_r, res.big_t)
                assert all(cmath.isfinite(v) for v in values)
                assert abs(res.big_r - 1.0) <= 1e-12 and res.big_t <= 1e-300


def test_sampled_split_count_overflow_is_a_point_error():
    pot = SampledPotential((0.0, 1.0, 2.0), (1.0, 1e300, 1.0), 0.0, 0.0)
    with pytest.raises(NonFiniteStateError):
        solve_scattering(pot, 0.5)
    out = energy_sweep(pot, [0.5, 1.5])
    assert [rec.code for rec in out] == [NonFiniteStateError().code] * 2


def test_sampled_energy_sweep_matches_pointwise(monkeypatch):
    calls = []
    pointwise = scattering.solve_scattering

    def counted(pot, e, *args):
        calls.append(e)
        return pointwise(pot, e, *args)

    monkeypatch.setattr(scattering, "solve_scattering", counted)
    units = (ModelParams(), ModelParams(hbar=0.5, mass=2.0))
    for pot, params in zip((_sampled_bump(-2.0, 61, 0.3, -0.4), _sampled_bump(3.0, 23)), units):
        levels = [pot.left_level, pot.right_level, *pot.us]
        grid = np.unique(np.concatenate([np.linspace(-1.5, 8.0, 89), levels]))
        for side in Side:
            want = []
            for e in grid.tolist():
                try:
                    want.append(pointwise(pot, e, side, params=params))
                except SolverError as exc:
                    want.append(EnergyPointError(e, exc.code, str(exc)))
            calls.clear()
            got = energy_sweep(pot, grid, side, params=params)
            # only the points the scalar solve rejects are solved again
            assert calls == [w.e for w in want if isinstance(w, EnergyPointError)]
            assert 0 < len(calls) < len(grid)
            for g, w in zip(got, want):
                assert type(g) is type(w)
                if isinstance(w, EnergyPointError):
                    assert g == w
                    continue
                assert (g.e, g.side, g.evanescent_tail) == (w.e, w.side, w.evanescent_tail)
                # the array pass splits the slabs for its whole energy
                # range, the scalar solve for its own energy: the two
                # round differently, r by up to 1e-15 where |r| is 1e-3
                for field in ("r", "big_r", "big_t"):
                    assert abs(getattr(g, field) - getattr(w, field)) <= 1e-12, (side, w.e, field)
                assert abs(g.t - w.t) <= 1e-12 * abs(w.t), (side, w.e)
                lead = pot.left_level if side is Side.LEFT else pot.right_level
                z1 = math.sqrt(2.0 * (w.e - lead) / params.mass)
                assert abs(g.z_entry - w.z_entry) <= 1e-12 * max(abs(w.z_entry), z1), (side, w.e)


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


@pytest.mark.parametrize("side", list(Side))
def test_huge_energy_amplitudes_raise_typed(side):
    # on the docs barrier E = 5e307 returned t = nan and T = nan beside
    # R = 0 without a word, and the sweep stored that record
    pot = barrier()
    with pytest.raises(NonFiniteStateError):
        solve_scattering(pot, 5e307, side)
    out = energy_sweep(pot, [1.0, 5e307], side)
    assert math.isfinite(out[0].big_t)
    assert out[1].code == "NonFiniteState"


def test_slab_level_takes_linear_limit():
    # at E = 1 psi is linear across the unit barrier (0, 1, 1):
    # 1/Z(x) = 1/Z0 + i (m/hbar)(x - x0), so T = 1 / (1 + m U l^2 / 2 hbar^2)
    pot = barrier(1.0, 1.0)
    res = solve_scattering(pot, 1.0)
    assert res.big_r == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert res.big_t == pytest.approx(2.0 / 3.0, rel=1e-15)
    numeric = solve_scattering(pot, 1.0, cfg=IntegrationConfig(rel_tol=1e-12, force_numeric=True))
    assert abs(numeric.big_r - res.big_r) < 1e-12
    assert abs(numeric.t - res.t) < 1e-12
    # continuous with the tanh forms on either side of the level
    for e in (1.0 - 1e-9, 1.0 + 1e-9):
        near = solve_scattering(pot, e)
        assert abs(near.r - res.r) < 1e-8 and abs(near.t - res.t) < 1e-8
    # the sweep's array pass takes the same limit instead of a record
    sweep = energy_sweep(pot, [0.5, 1.0, 1.5])
    assert all(not isinstance(rec, EnergyPointError) for rec in sweep)
    assert abs(sweep[1].r - res.r) <= 1e-12 and abs(sweep[1].t - res.t) <= 1e-12


def test_slab_levels_continuous_on_stacks(random_stack_instances):
    # every interior level above the leads of the conftest stacks
    for pot, _ in random_stack_instances[:20]:
        for u in {s.u for s in pot.segments if s.u > 0.0}:
            at = solve_scattering(pot, u)
            for e in (u * (1.0 - 1e-9), u * (1.0 + 1e-9)):
                near = solve_scattering(pot, e)
                assert abs(near.r - at.r) < 1e-6 and abs(near.t - at.t) < 1e-6, (pot, u)


def test_degenerate_lead_stays_an_error():
    # a lead level equal to E carries no flux
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.5),), 1.0)
    with pytest.raises(DegenerateEnergyError):
        solve_scattering(pot, 1.0)
    with pytest.raises(DegenerateEnergyError):
        solve_scattering(pot, 1.0, Side.RIGHT)
    assert [rec.code for rec in energy_sweep(pot, [1.0])] == ["DegenerateEnergy"]


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
