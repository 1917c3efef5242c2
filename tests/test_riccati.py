"""Adaptive Riccati integration of the impedance ODE."""

import cmath
import math
import warnings

import numpy as np
import pytest

from qwim.analytic import layer_transform, propagate_impedance, region_constants
from qwim.errors import (
    EvanescentIncidenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    StepSizeUnderflowError,
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
    left_anchor,
    right_anchor,
    z_minus,
    z_plus,
)
from qwim.xcheck import _cumulative_nonuniform_simpson

TIGHT = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13)


@pytest.mark.parametrize(
    "field, value",
    [("rel_tol", -1.0), ("abs_tol", 0.0), ("abs_tol", -1.0), ("pole_threshold", 0.0),
     ("pole_threshold", -1.0), ("max_step", 0.0), ("max_step", -0.1)],
)
def test_config_rejects_out_of_range_values(field, value):
    # abs_tol = 0 with rel_tol = 0 divided by zero in the error norm;
    # the others moved results without a word
    with pytest.raises(ValueError, match=field):
        IntegrationConfig(**{field: value})


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "pole_threshold", "max_step"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, bad):
    with pytest.raises(NonFiniteInputError):
        IntegrationConfig(**{field: bad})


def test_config_allows_zero_rel_tol():
    cfg = IntegrationConfig(rel_tol=0.0, abs_tol=1e-13, max_step=0.5)
    traj = integrate_impedance(flat(), 0.5, 2.0, 1.0 + 0j, 0.0, cfg)
    assert abs(traj.zs[0] - 1.0) < 1e-12


def flat(u=0.0, lo=0.0, hi=2.0):
    return PiecewisePotential(u, (PotentialSegment(lo, hi, u),), u)


def test_matched_constant_region_is_stationary():
    # anchored at the characteristic impedance the ODE must sit still
    pot = flat(0.0)
    rc = region_constants(0.5, 0.0)
    traj = integrate_impedance(pot, 0.5, 2.0, rc.z, 0.0, TIGHT)
    np.testing.assert_allclose(traj.zs, np.full(len(traj.zs), rc.z), atol=1e-11)


def test_constant_region_matches_tanh_closed_form():
    pot = flat(0.0)
    e = 0.5
    rc = region_constants(e, 0.0)
    anchor = 0.5 + 0j
    traj = integrate_impedance(pot, e, 2.0, anchor, 0.0, TIGHT)
    for x, z in zip(traj.xs, traj.zs):
        want = propagate_impedance(rc, anchor, float(x) - 2.0)
        assert abs(z - want) < 1e-8 * (1.0 + abs(want))


def test_evanescent_leftward_holds_decaying_anchor():
    # +z is the attractor of leftward integration, so the matched decaying
    # tail is numerically stable over a long evanescent stretch
    pot = flat(1.0)
    e = 0.5
    rc = region_constants(e, 1.0)
    traj = integrate_impedance(pot, e, 2.0, rc.z, 0.0, TIGHT)
    assert np.all(traj.zs.imag > 0.0)
    assert abs(traj.zs[0] - rc.z) < 1e-9


def test_pole_crossing_matches_closed_form():
    # Z = z tan-like solution anchored at a node: pole at k x = pi/2,
    # integrated straight through with the reciprocal-variable switch
    e = 0.5
    rc = region_constants(e, 0.0)  # k = 1
    x_pole = 0.5 * math.pi
    pot = flat(0.0, 0.0, 4.0)
    for target in (x_pole - 0.1, x_pole + 0.1, 3.4):
        traj = integrate_impedance(pot, e, 0.0, 0.0, target, TIGHT)
        want = propagate_impedance(rc, 0.0, target)
        assert abs(traj.zs[-1] - want) < 1e-8 * (1.0 + abs(want))


def test_many_pole_crossings_full_reflection():
    # standing wave against a high right wall: Z runs through a pole per
    # half wavelength and the endpoint still matches the analytic chain
    pot = PiecewisePotential(
        0.0, (PotentialSegment(0.0, 6.0, 0.2),), 5.0
    )
    e = 1.3
    z2 = region_constants(e, 5.0).z
    traj = integrate_impedance(pot, e, 6.0, z2, 0.0, TIGHT)
    rc = region_constants(e, 0.2)
    want = layer_transform(rc, z2, 6.0)
    assert np.max(np.abs(traj.zs)) > 1e3  # the switch actually engaged
    assert abs(traj.zs[0] - want) < 1e-8 * (1.0 + abs(want))


def test_small_impedance_ignores_pole_threshold():
    # when |Z| never grows, a huge switch threshold changes nothing
    pot = flat(0.3)
    e = 2.0
    anchor = region_constants(e, 0.0).z
    base = integrate_impedance(pot, e, 2.0, anchor, 0.0, TIGHT)
    loose = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, pole_threshold=1e9)
    other = integrate_impedance(pot, e, 2.0, anchor, 0.0, loose)
    assert abs(base.zs[0] - other.zs[0]) < 1e-12


def test_trajectory_orientation_and_endpoints():
    pot = flat(0.5)
    traj = integrate_impedance(pot, 2.0, 2.0, 1.0 + 0j, 0.0, TIGHT)
    assert traj.direction is Side.LEFT
    assert np.all(np.diff(traj.xs) > 0)
    assert traj.xs[0] == 0.0 and traj.xs[-1] == 2.0


def test_forced_grid_points_are_sampled():
    pot = PiecewisePotential(
        0.0, (PotentialSegment(0.0, 1.0, 1.5), PotentialSegment(1.0, 2.0, -0.5)), 0.0
    )
    grid = np.linspace(0.0, 2.0, 41)
    traj = z_minus(pot, 2.5, cfg=TIGHT, grid=grid)
    idx = np.searchsorted(traj.xs, grid)
    np.testing.assert_allclose(traj.xs[idx], grid, rtol=0, atol=1e-12)


def test_breakpoints_split_integration():
    pot = PiecewisePotential(
        0.0, (PotentialSegment(0.0, 1.0, 1.5), PotentialSegment(1.0, 2.0, -0.5)), 0.0
    )
    traj = z_minus(pot, 2.5, cfg=TIGHT)
    assert np.any(np.abs(traj.xs - 1.0) < 1e-14)


def test_tracked_integral_constant_region():
    # S(x) = int Z dx from the anchor; for a matched region S = z (x - x0)
    pot = flat(0.0)
    rc = region_constants(2.0, 0.0)
    traj = integrate_impedance(
        pot, 2.0, 0.0, rc.z, 2.0, TIGHT, track_integral=True
    )
    want = rc.z * (traj.xs - traj.xs[0])
    np.testing.assert_allclose(traj.z_integral, want, atol=1e-9)


def test_anchor_values_by_regime():
    pot = PiecewisePotential(1.0, (PotentialSegment(0.0, 2.0, -5.0),), 1.0)
    p = ModelParams()
    # bound regime below both leads: decaying tails on both sides
    assert left_anchor(pot, 0.5, p) == pytest.approx(-1j * math.sqrt(2 * 0.5))
    assert right_anchor(pot, 0.5, p) == pytest.approx(1j * math.sqrt(2 * 0.5))
    # scattering regime: incident-matched left, transmitted right
    assert left_anchor(pot, 3.0, p) == pytest.approx(math.sqrt(2 * 2.0))
    assert right_anchor(pot, 3.0, p) == pytest.approx(math.sqrt(2 * 2.0))


def test_z_plus_rejects_evanescent_incidence():
    pot = PiecewisePotential(1.0, (PotentialSegment(0.0, 2.0, 0.2),), 0.0)
    with pytest.raises(EvanescentIncidenceError):
        z_plus(pot, 0.5)  # above the bound window, below the left lead


def test_even_state_impedance_node_at_center():
    # even-parity eigenstate: psi' = 0 at the symmetry point, so Z = 0
    e = -4.296392637614919  # ground state of the 5-deep, 2-wide well
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, -5.0),), 0.0)
    traj = z_plus(pot, e, cfg=TIGHT, target_x=1.0)
    assert abs(traj.zs[-1]) < 1e-6


def test_numeric_agrees_with_layer_chain_across_stack():
    segs = (
        PotentialSegment(0.0, 0.7, 1.2),
        PotentialSegment(0.7, 1.5, -0.6),
        PotentialSegment(1.5, 2.1, 2.4),
    )
    pot = PiecewisePotential(0.0, segs, 0.0)
    e = 1.9
    z = region_constants(e, 0.0).z
    for seg in reversed(segs):
        z = layer_transform(region_constants(e, seg.u), z, seg.length)
    traj = z_minus(pot, e, cfg=TIGHT)
    assert abs(traj.zs[0] - z) < 1e-9 * (1.0 + abs(z))


def test_sampled_potential_smooth_integration():
    # linear ramp: no closed form, but the result must be direction
    # consistent: integrating back recovers the anchor
    from qwim.model import SampledPotential

    pot = SampledPotential((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), 0.0, 0.0)
    e = 2.2
    z2 = region_constants(e, 0.0).z
    fwd = integrate_impedance(pot, e, 2.0, z2, 0.0, TIGHT)
    back = integrate_impedance(pot, e, 0.0, complex(fwd.zs[0]), 2.0, TIGHT)
    assert abs(back.zs[-1] - z2) < 1e-7


def _seeded_gaussians(n=40):
    """n sampled Gaussians (21..201 samples, random span and width) with
    an energy each, drawn from one fixed seed."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(n):
        amplitude, q = float(rng.uniform(-3.0, 3.0)), float(rng.uniform())
        span, sigma = float(rng.uniform(4.0, 8.0)), float(rng.uniform(0.5, 1.5))
        xs = np.linspace(-0.5 * span, 0.5 * span, 21 + int(181 * q))
        us = amplitude * np.exp(-xs * xs / (2.0 * sigma * sigma))
        out.append((SampledPotential(tuple(xs), tuple(us), 0.0, 0.0),
                    float(rng.uniform(0.2, 5.0))))
    return out


def test_sampled_edge_pieces_follow_their_samples():
    # the pieces at a and b must see the edge samples, not the lead level
    # that u_at gives exactly at a and b: that jump cost R up to 2.4e-9
    from qwim.scattering import solve_scattering

    numeric = IntegrationConfig(force_numeric=True)
    tight = IntegrationConfig(rel_tol=1e-13, force_numeric=True)
    for pot, e in _seeded_gaussians():
        r = solve_scattering(pot, e, Side.LEFT, numeric).big_r
        r_tight = solve_scattering(pot, e, Side.LEFT, tight).big_r
        assert abs(r - r_tight) < 1e-10, (pot.xs[0], len(pot.xs), e)


def test_linear_slab_chain_matches_stepper_on_gaussians():
    # the exact linear-slab chain against the tight stepper, both sides
    from qwim.scattering import solve_scattering

    tight = IntegrationConfig(rel_tol=1e-13, force_numeric=True)
    for pot, e in _seeded_gaussians():
        for side in Side:
            chain = solve_scattering(pot, e, side)
            rk = solve_scattering(pot, e, side, tight)
            assert abs(chain.big_r - rk.big_r) <= 1e-12, (len(pot.xs), e, side)
            assert abs(chain.big_t - rk.big_t) <= 1e-12, (len(pot.xs), e, side)


# The generic Dormand-Prince 5(4) stepper over a tuple state, as qwim ran it
# before the step was unrolled: the reference the stepper must match.
_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_ERR = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _tableau_step(f, x, y, h, f0):
    k = [f0]
    for i in range(1, 6):
        yi = tuple(
            y[j] + h * sum(_A[i][m] * k[m][j] for m in range(i))
            for j in range(len(y))
        )
        k.append(f(x + _C[i] * h, yi))
    y5 = tuple(
        y[j] + h * sum(_B5[m] * k[m][j] for m in range(6)) for j in range(len(y))
    )
    f_new = f(x + h, y5)
    k.append(f_new)
    err = tuple(
        h * sum(_ERR[m] * k[m][j] for m in range(7)) for j in range(len(y))
    )
    return y5, err, f_new


def _reference_piece(ufunc, e, x0, x1, z, s, cfg, params, max_step, track, out):
    """One smooth piece as qwim integrated it with a separate piece call,
    RHS closures and a step function; appends the accepted samples to
    ``out`` and returns (Z, S) at x1."""
    c_pot, c_imp = 2.0 / params.hbar, params.mass / params.hbar
    in_w = abs(z) >= cfg.pole_threshold

    def f(x, state):  # the tuple RHS, (y', s') with s' = Z
        y = state[0]
        if in_w:
            dy = 1j * (c_imp - c_pot * (e - ufunc(x)) * y * y)
        else:
            dy = 1j * (c_pot * (e - ufunc(x)) - c_imp * y * y)
        return (dy, 1.0 / y if in_w else y) if track else (dy,)

    def restart():
        y = 1.0 / z if in_w else z
        state = (y, s) if track else (y,)
        return state, f(x, state)

    sgn = 1.0 if x1 > x0 else -1.0
    x, h = x0, sgn * min(max_step, abs(x1 - x0))
    h_floor = 1e-14 * max(1.0, abs(x0), abs(x1))
    state, f0 = restart()
    while sgn * (x1 - x) > h_floor:
        h = sgn * min(abs(h), max_step, sgn * (x1 - x))
        new, err, f_new = _tableau_step(f, x, state, h, f0)
        s_new = new[1] if track else s
        if not (cmath.isfinite(new[0]) and cmath.isfinite(s_new)):
            raise NonFiniteStateError(f"non-finite state near x={x}")
        tol = cfg.abs_tol + cfg.rel_tol * max(abs(state[0]), abs(new[0]))
        norm = max(0.0, abs(err[0]) / tol)
        if track:
            tol = cfg.abs_tol + cfg.rel_tol * max(abs(s), abs(s_new))
            norm = max(norm, abs(err[1]) / tol)
        if norm > 1.0:
            h *= max(0.2, 0.9 * norm ** -0.2)
            if abs(h) < h_floor:
                raise StepSizeUnderflowError(f"step underflow near x={x}")
            continue
        if in_w and new[0] == 0:
            h *= 0.97
            state, f0 = restart()
            continue
        x += h
        if sgn * (x1 - x) <= h_floor:
            x = x1
        state, f0, s = new, f_new, s_new
        z = 1.0 / new[0] if in_w else new[0]
        out.append((x, z, s))
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0.0 else 5.0
        if not in_w and abs(z) >= cfg.pole_threshold:
            in_w = True
            state, f0 = restart()
        elif in_w and abs(state[0]) >= 2.0 / cfg.pole_threshold:
            in_w = False
            state, f0 = restart()
    return z, s


def _reference_trajectory(pot, e, anchor_x, anchor_z, target_x, cfg, params, track, grid):
    """(xs, zs, S) in integration order from the reference piece loop."""
    max_step = cfg.max_step if cfg.max_step is not None else abs(target_x - anchor_x) / 50.0
    lo, hi = min(anchor_x, target_x), max(anchor_x, target_x)
    stops = set(pot.breakpoints_between(lo, hi))
    if grid is not None:
        stops.update(float(g) for g in grid if lo < g < hi)
    out = [(anchor_x, anchor_z, 0j)]
    z, s, x0 = anchor_z, 0j, anchor_x
    for x1 in sorted(stops, reverse=target_x < anchor_x) + [target_x]:
        piece = pot.u_piece(0.5 * (x0 + x1))
        if isinstance(piece, tuple):
            xa, dx, ua, ub = piece

            def ufunc(x):
                w = (x - xa) / dx
                return (1.0 - w) * ua + w * ub
        else:
            ufunc = lambda _x, u=piece: u
        z, s = _reference_piece(ufunc, e, x0, x1, z, s, cfg, params, max_step, track, out)
        x0 = x1
    return out


@pytest.mark.parametrize("threshold", [1e9, 1e-3, 2.0], ids=["Z", "W", "switch"])
@pytest.mark.parametrize("track", [False, True], ids=["plain", "track"])
@pytest.mark.parametrize("sampled", [False, True], ids=["const", "sampled"])
def test_unrolled_step_matches_tableau_loop(sampled, track, threshold):
    # the stepper's unrolled stages against the generic tableau step driven
    # piece by piece, bit for bit over whole trajectories, with and without
    # a forced grid: samples, Z, S and their number
    params = ModelParams(hbar=0.9, mass=1.1)
    cfg = IntegrationConfig(pole_threshold=threshold)
    if sampled:
        xs = np.linspace(0.0, 3.0, 31)
        pot = SampledPotential(tuple(xs), tuple(1.5 * np.sin(xs) ** 2), 0.0, 0.2)
        anchor_x, target_x = 3.5, -0.5  # leftward, through both leads' pieces
    else:
        segs = (PotentialSegment(0.0, 0.7, 1.2), PotentialSegment(0.7, 1.5, -0.6),
                PotentialSegment(1.5, 2.1, 0.9))
        pot = PiecewisePotential(0.0, segs, 0.3)
        anchor_x, target_x = 0.0, 2.1
    e = 1.9
    anchor_z = region_constants(e, 0.2, params).z * (1.0 - 0.4j)
    for grid in (None, np.linspace(-0.5, 3.5, 57)):
        traj = integrate_impedance(pot, e, anchor_x, anchor_z, target_x, cfg, params,
                                   track_integral=track, grid=grid)
        ref = _reference_trajectory(pot, e, anchor_x, anchor_z, target_x, cfg, params,
                                    track, grid)
        if traj.direction is Side.LEFT:
            ref.reverse()
        assert repr(traj.xs.tolist()) == repr([float(x) for x, _, _ in ref])
        assert repr(traj.zs.tolist()) == repr([complex(z) for _, z, _ in ref])
        if track:
            assert repr(traj.z_integral.tolist()) == repr([complex(s) for _, _, s in ref])
        else:
            assert traj.z_integral is None


def test_potential_is_looked_up_once_per_smooth_interval(monkeypatch):
    # a forced grid multiplies the pieces, not the potential lookups: one
    # per interval between breakpoints, none per piece, step or stage
    calls = {"u_at": 0, "u_piece": 0}
    for name in calls:
        original = getattr(PiecewisePotential, name)

        def counted(self, x, name=name, original=original):
            calls[name] += 1
            return original(self, x)

        monkeypatch.setattr(PiecewisePotential, name, counted)
    segs = (PotentialSegment(0.0, 0.7, 1.2), PotentialSegment(0.7, 1.5, -0.6),
            PotentialSegment(1.5, 2.1, 2.4))
    pot = PiecewisePotential(0.0, segs, 0.0)
    grid = np.linspace(0.0, 2.1, 400)
    traj = z_minus(pot, 1.9, grid=grid, track_integral=True)
    assert len(traj.xs) > 400
    assert calls == {"u_at": len(segs), "u_piece": len(segs)}


@pytest.mark.parametrize(
    "grid",
    [np.linspace(0.0, 2.0, 5).reshape(1, 5), np.float64(1.0),
     np.linspace(0.0, 2.0, 5) + 0.5j, [0.5, 1.0 + 0.0j], [0.5, np.complex128(1.0)]],
    ids=["2-D", "0-D", "complex-array", "complex-entry", "complex128-entry"],
)
def test_grid_must_be_real_and_one_dimensional(grid):
    # a 2-D grid raised numpy's ambiguous-truth ValueError and a complex
    # one dropped its imaginary parts with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="grid"):
            z_minus(flat(), 2.0, grid=grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_points_must_be_finite(bad):
    # non-finite points were dropped without a word, even inside the range
    with pytest.raises(NonFiniteInputError, match="grid"):
        z_minus(flat(), 2.0, grid=[0.5, bad, 1.5])


def test_grid_points_outside_the_range_are_ignored():
    inside = z_minus(flat(), 2.0, cfg=TIGHT, grid=[0.5, 1.5])
    wider = z_minus(flat(), 2.0, cfg=TIGHT, grid=[-3.0, 0.5, 1.5, 0.0, 2.0, 7.0])
    assert repr(inside.xs.tolist()) == repr(wider.xs.tolist())
    assert repr(inside.zs.tolist()) == repr(wider.zs.tolist())


@pytest.mark.parametrize(
    "e, pole_threshold", [(0.5, 1e3), (1.5, 1e3), (3.0, 1e3), (3.0, 2.0)]
)
def test_tracked_integral_matches_quadrature_of_z(e, pole_threshold):
    # S(x) = int_b^x Z dx' rides along with the step; check it against an
    # independent quadrature of the returned Z samples.  At E = 3 a
    # threshold of 2 puts most of the range in W mode, where S's slope
    # is 1/W.
    xs = np.linspace(0.0, 6.0, 101)
    pot = SampledPotential(tuple(xs), tuple(2.0 * np.exp(-((xs - 3.0) ** 2))), 0.0, 0.0)
    cfg = IntegrationConfig(pole_threshold=pole_threshold)
    grid = np.linspace(0.0, 6.0, 241)
    traj = z_minus(pot, e, cfg=cfg, track_integral=True, grid=grid)
    cum = _cumulative_nonuniform_simpson(traj.xs, traj.zs)
    want = cum - cum[-1]  # the anchor is b, the last sample
    s = traj.z_integral
    assert s[-1] == 0
    assert np.max(np.abs(s - want)) < 1e-6 * np.max(np.abs(s))
