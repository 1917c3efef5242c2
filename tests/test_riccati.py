"""Adaptive Riccati integration of the impedance ODE."""

import ast
import bisect
import dataclasses
import functools
import cmath
import inspect
import itertools
import math
import operator
import re
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import dop853_coefficients as _dop853

from qwim import _arrays, analytic, riccati
from qwim.analytic import (
    _BRIDGE_PHASE,
    _bridge,
    _chain,
    _from_zeta,
    _real_walk,
    _steps,
    _units,
    layer_transform,
    propagate_impedance,
    region_constants,
)
from qwim.errors import (
    EvanescentIncidenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    SolverError,
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
from qwim.scattering import _Incidence, solve_scattering
from qwim.spectral import impedance_mismatch
from qwim.xcheck import transfer_matrix_solve

from oracles import reference_read, to_zeta


TIGHT = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13)
# c = 2m/hbar^2 of hbar = m = 1, where zeta = (m/hbar) Z is Z
C = _units(ModelParams())[0]


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
    assert abs(traj.zs[0] - want) < 1e-8 * (1.0 + abs(want))
    # the switch engaged: psi changes sign across an interval of the
    # bridge once per node, as often as the real walk's Sturm count crosses
    ratios = _bridge(pot, e, traj.xs.tolist(), traj.zs.tolist(), C)
    nodes = _real_walk(_steps(pot, 6.0, 0.0), e, math.sqrt(C * (5.0 - e)), C)[2]
    assert sum(q.real < 0.0 for q in ratios) == nodes == 2


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
    traj = integrate_impedance(pot, e, pot.a, left_anchor(pot, e, ModelParams()), 1.0, TIGHT)
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


def test_every_grid_point_is_a_sample():
    # stacks whose interfaces lie on a decimal grid, as a spec file gives
    # them, and a uniform grid through them, some of whose points lie
    # within rounding of a join: the read keeps each grid point's own x
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        edges = (int(rng.integers(-40, 40)) + np.concatenate(([0], np.cumsum(rng.integers(1, 40, n))))) / 20
        edges = [float(f"{x:.2f}") for x in edges]
        segs = tuple(PotentialSegment(x0, x1, float(rng.uniform(-3.0, 3.0))) for x0, x1 in zip(edges, edges[1:]))
        pot = PiecewisePotential(0.0, segs, 0.0)
        grid = np.linspace(pot.a, pot.b, int(round((pot.b - pot.a) * 100)) + 1)
        e = float(rng.uniform(0.5, 4.0))
        for traj in (z_minus(pot, e, grid=grid), z_plus(pot, e, grid=grid)):
            assert np.isin(grid, traj.xs).all(), (edges, e, traj.direction)


def test_each_slab_ends_on_its_join(random_stack_instances):
    # a slab's end summed from the anchor put a sample an ulp off the
    # joins of conftest stack 7, and integrated that ulp on the wrong
    # level; each slab now ends on the join itself
    pot = random_stack_instances[7][0]
    traj = z_minus(pot, 2.0)
    xs = traj.xs.tolist()
    assert 1.664807063686054 in xs and 1.8268583857310123 in xs
    assert set(pot.interfaces()) <= set(xs)


def test_sample_count_of_the_stack_30_reconstruction(random_stack_instances):
    # the (d) input of the Riccati benchmark: conftest stack 30 at
    # E = 1.0875.  The stepper's own count is pinned so that a change to
    # the W switch or the step control shows up here; read at its
    # 1627-point grid, the trajectory is the grid
    pot = random_stack_instances[30][0]
    assert len(z_minus(pot, 1.0875).xs) == 169
    grid = np.linspace(pot.a, pot.b, 1627)
    assert z_minus(pot, 1.0875, grid=grid).xs.tolist() == grid.tolist()


def test_global_error_on_the_conftest_stacks(random_stack_instances):
    # the 300 trajectories of ROADMAP item 29: the 50 conftest stacks at
    # E = 0.3, 1.0875 and 2.0 from both sides, default tolerances.  The
    # stepper's psi at its own samples lies within validate's bound of the
    # chain's, relative to max |psi|: 2.5e-9 at worst, on stack 21 from
    # the right at E = 1.0875, which read 3.2e-8 with the Dormand-Prince
    # 5(4) pair.  R and T of a force_numeric solve lie within 1e-10 of the
    # chain's (6.8e-11 at worst; 1.7e-10 with the 5(4) pair)
    from qwim.cli import VALIDATE_DELTA_TOL

    cfg, numeric, params = IntegrationConfig(), IntegrationConfig(force_numeric=True), ModelParams()
    psi_misses, rt = [], []
    for n, (pot, _) in enumerate(random_stack_instances):
        for e, side in itertools.product((0.3, 1.0875, 2.0), Side):
            walk = _Incidence(pot, side, cfg, params)
            xs, zs = walk.trajectory(e)
            exact = walk.profile(e, xs)[1]
            psi = walk.psi(e, xs, zs)
            if max(abs(p - q) for p, q in zip(psi, exact)) >= VALIDATE_DELTA_TOL * max(map(abs, exact)):
                psi_misses.append((n, e, side.value))
            chain, rk = solve_scattering(pot, e, side), solve_scattering(pot, e, side, numeric)
            rt.append((max(abs(chain.big_r - rk.big_r), abs(chain.big_t - rk.big_t)), n, e, side.value))
    assert psi_misses == []
    worst = max(rt)
    assert worst[0] <= 1e-10, worst


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


# The generic DOP853 stepper (Dormand-Prince 8(5,3)) over a tuple state, in
# the stepper's order of evaluation: the RHS as i a - i b y^2, each weight
# of scipy's tableau scaled by h before it meets its stage, zero weights
# skipped.  The reference the stepper must match bit for bit.
_C = _dop853.C[:_dop853.N_STAGES].tolist()
_A = [_dop853.A[i, :i].tolist() for i in range(_dop853.N_STAGES)]
_B, _E5, _E3 = _dop853.B.tolist(), _dop853.E5.tolist(), _dop853.E3.tolist()


def _weighted_sum(weights, k, h, j):
    return sum((h * c) * k[m][j] for m, c in enumerate(weights) if c != 0.0)


def _tableau_step(f, x, y, h, f0):
    """(y_new, e5, e3): the eighth-order solution and the fifth- and
    third-order error estimates; f at (x + h, y_new) is not taken."""
    k = [f0]
    for i in range(1, len(_C)):
        yi = tuple(y[j] + _weighted_sum(_A[i], k, h, j) for j in range(len(y)))
        k.append(f(x + _C[i] * h, yi))
    new = tuple(y[j] + _weighted_sum(_B, k, h, j) for j in range(len(y)))
    e5 = tuple(_weighted_sum(_E5, k, h, j) for j in range(len(y)))
    e3 = tuple(_weighted_sum(_E3, k, h, j) for j in range(len(y)))
    return new, e5, e3


def _error_norm(e5, e3, scale):
    """Hairer's combined estimate |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2) of a
    one-component state, each error over the step's scale first."""
    r5, r3 = abs(e5[0]) / scale, abs(e3[0]) / scale
    return r5 * (r5 / math.hypot(r5, 0.1 * r3)) if r5 else 0.0


def _embedded_tableau():
    """C, A, B, E5 and E3 as the unrolled stepper spells them, read off the
    source of ``riccati._trajectory``: the abscissa of each stage's line
    evaluation (none for x + h), the weight of each k_j * (h * w) term of
    each stage's sum, and those of the eighth-order solution and the two
    error estimates, a term named once and shared (t_j) resolved to its
    weight.  Each table has scipy's shape."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(riccati._trajectory)))
    n = _dop853.N_STAGES
    c, a = np.zeros(n), np.zeros((n, n))
    rows = {"y_new": np.zeros(n), "err5": np.zeros(n + 1), "err3": np.zeros(n + 1)}
    shared = {}

    def term(node):
        # k_j * (h * w), or the name of one
        if isinstance(node, ast.Name):
            return shared[node.id]
        assert node.left.id.startswith("k") and node.right.left.id == "h"
        return int(node.left.id[1:]) - 1, ast.literal_eval(node.right.right)

    def terms(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and not (
                isinstance(node.left, ast.Name) and node.left.id == "y"):
            return terms(node.left) + [term(node.right)]
        return [term(node)]

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            continue
        name, value = node.targets[0].id, node.value
        if re.fullmatch(r"t\d+", name):
            shared[name] = term(value)
        elif re.fullmatch(r"y\d+|y_new", name) and isinstance(value, ast.BinOp):
            assert value.left.id == "y"
            row = a[int(name[1:]) - 1] if name != "y_new" else rows[name]
            for j, w in terms(value.right):
                row[j] = w
        elif name in ("err5", "err3"):
            for j, w in terms(value):
                rows[name][j] = w
        elif re.fullmatch(r"p\d+", name) and name != "p1":
            scaled = [m.left for m in ast.walk(value) if isinstance(m, ast.BinOp) and isinstance(m.op, ast.Mult)
                      and isinstance(m.right, ast.Name) and m.right.id == "h"]
            c[int(name[1:]) - 1] = ast.literal_eval(scaled[0]) if scaled else 1.0
    return c, a, rows["y_new"], rows["err5"], rows["err3"]


def test_embedded_tableau_is_scipys():
    # the unrolled stepper's ~100 literals are scipy's DOP853 tableau bit
    # for bit, and each row of A sums to its abscissa within the rounding
    # of its entries
    got = _embedded_tableau()
    want = (_dop853.C[:_dop853.N_STAGES], _dop853.A[:_dop853.N_STAGES, :_dop853.N_STAGES],
            _dop853.B, _dop853.E5, _dop853.E3)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == np.ascontiguousarray(w).tobytes()
    c, a = got[:2]
    for i in range(1, len(c)):
        row = a[i, :i].tolist()
        assert abs(math.fsum(row) - c[i]) <= sum(map(math.ulp, row)) + math.ulp(c[i]), i


def _reference_slab(ufunc, e, x0, end, z, threshold, cfg, c, max_step, out):
    """One slab as qwim integrates it, in zeta = (m/hbar) Z with
    c = 2m/hbar^2, with RHS closures and a step function: one fresh start
    at x0, then steps to the slab's end.  W = 1 / zeta takes over above
    |zeta| = threshold and zeta again below half of it; the absolute
    tolerance is abs_tol on zeta or on W.  Appends the accepted samples
    to ``out`` and returns zeta at the end."""
    switch_back = 2.0 / threshold if threshold else math.inf
    in_w = abs(z) > threshold

    def f(x, state):  # the tuple RHS, (y',)
        y = state[0]
        i_pot = 1j * (c * (e - ufunc(x)))
        if in_w:
            return (1j - i_pot * (y * y),)
        return (i_pot - 1j * (y * y),)

    def restart():
        state = (1.0 / z if in_w else z,)
        return state, f(x, state)

    sgn = 1.0 if end > x0 else -1.0
    x, h = x0, sgn * min(max_step, abs(end - x0))
    h_floor = 1e-14 * max(1.0, abs(x0), abs(end))
    state, f0 = restart()
    while sgn * (end - x) > h_floor:
        h = sgn * min(abs(h), max_step, sgn * (end - x))
        new, e5, e3 = _tableau_step(f, x, state, h, f0)
        if not cmath.isfinite(new[0]):
            h *= 0.2
            if abs(h) < h_floor:
                raise NonFiniteStateError(f"non-finite state near x={x}")
            continue
        norm = _error_norm(e5, e3, cfg.abs_tol + cfg.rel_tol * max(abs(state[0]), abs(new[0])))
        if norm > 1.0:
            h *= max(0.2, 0.9 * norm ** -0.125)
            if abs(h) < h_floor:
                raise StepSizeUnderflowError(f"step underflow near x={x}")
            continue
        if in_w and new[0] == 0:
            h *= 0.97
            state, f0 = restart()
            continue
        # f at (x + h, y_new), the next step's first stage
        state, f0 = new, f(x + h, new)
        x += h
        if sgn * (end - x) <= h_floor:
            x = end
        z = 1.0 / new[0] if in_w else new[0]
        out.append((x, z))
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.125)) if norm > 0.0 else 5.0
        if not in_w and abs(z) > threshold:
            in_w = True
            state, f0 = restart()
        elif in_w and abs(state[0]) > switch_back:
            in_w = False
            state, f0 = restart()
    return z


def _reference_trajectory(pot, e, anchor_x, anchor_z, target_x, cfg, c):
    """(xs, zs) in integration order, zeta from a zeta anchor, from the
    reference slab loop: the slabs of ``_steps`` from anchor to target,
    each ended at its join, the next interface of the potential the walk
    meets (the target for the last).  Each slab's switch is
    pole_threshold times sqrt(c max|E - U|) over the slab, and an
    evanescent slab's steps are at most 0.999 _BRIDGE_PHASE / sqrt(c
    (max U - E))."""
    max_step = cfg.max_step if cfg.max_step is not None else abs(target_x - anchor_x) / 50.0
    sgn = 1.0 if target_x > anchor_x else -1.0
    lo, hi = min(anchor_x, target_x), max(anchor_x, target_x)
    joins = sorted((x for x in pot.interfaces() if lo < x < hi), key=lambda x: sgn * x)
    slabs = _steps(pot, anchor_x, target_x)
    assert len(joins) == len(slabs) - 1
    out = [(anchor_x, anchor_z)]
    z, x0 = anchor_z, anchor_x
    for slab, end in zip(slabs, joins + [target_x]):
        u0, slope = slab[0], slab[1] if len(slab) == 3 else 0.0
        u1 = u0 + slope * slab[-1]
        threshold = cfg.pole_threshold * math.sqrt(c) * math.sqrt(max(abs(e - u0), abs(e - u1)))
        top = max(u0, u1) - e
        cap = min(max_step, 0.999 * _BRIDGE_PHASE / math.sqrt(c * top)) if top > 0.0 else max_step

        def ufunc(x, u0=u0, slope=slope, xa=x0):
            return u0 + slope * (x - xa) if slope else u0

        z = _reference_slab(ufunc, e, x0, end, z, threshold, cfg, c, cap, out)
        x0 = end
    return out


@pytest.mark.parametrize("threshold", [1e9, 1e-3, 2.0], ids=["Z", "W", "switch"])
@pytest.mark.parametrize("read", [False, True], ids=["plain", "grid"])
@pytest.mark.parametrize("sampled", [False, True], ids=["const", "sampled"])
def test_unrolled_step_matches_tableau_loop(sampled, read, threshold):
    # the stepper's unrolled stages against the generic tableau step driven
    # slab by slab, bit for bit over whole trajectories: samples, Z and
    # their number.  Read at a grid, the samples are the grid's points
    # inside the range, and Z at each is the walk from the reference
    # trajectory's sample with the larger |Z| around it, within 8 ulps.
    # The stepper walks zeta = w Z and the reference does too, each
    # sample turned to Z as the trajectory turns it
    params = ModelParams(hbar=0.9, mass=1.1)
    c, w = _units(params)
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
    grid = np.linspace(-0.5, 3.5, 57) if read else None
    traj = integrate_impedance(pot, e, anchor_x, anchor_z, target_x, cfg, params, grid=grid)
    ref = _reference_trajectory(pot, e, anchor_x, to_zeta(anchor_z, w), target_x, cfg, c)
    if traj.direction is Side.LEFT:
        ref.reverse()
    if read:
        ref = reference_read(pot, e, ref, grid, c, traj.direction is Side.RIGHT)
        assert len(ref) == 2 + sum(min(anchor_x, target_x) < g < max(anchor_x, target_x) for g in grid)
    assert repr(traj.xs.tolist()) == repr([float(x) for x, _ in ref])
    want = [_from_zeta(complex(z), w) for _, z in ref]
    if read:
        eps = np.finfo(float).eps
        assert all(abs(g - w) <= 8.0 * eps * abs(w) for g, w in zip(traj.zs.tolist(), want))
    else:
        assert repr(traj.zs.tolist()) == repr(want)


def test_potential_is_cut_into_slabs_once_per_trajectory(monkeypatch):
    # one cut by the stepper (its _steps), whatever the grid's size, and
    # one by the read of a grid on a sampled potential (analytic._walks);
    # a piecewise read takes each interval's slab off its cell
    # (_arrays._anchored_many) and cuts nothing.  No u_at at any slab,
    # step, stage or grid point
    calls = {"_cut": 0, "u_at": 0}
    real_cut = analytic._cut

    def cut(*args):
        calls["_cut"] += 1
        return real_cut(*args)

    monkeypatch.setattr(analytic, "_cut", cut)
    for kind in (PiecewisePotential, SampledPotential):
        def counted(self, x, original=kind.u_at):
            calls["u_at"] += 1
            return original(self, x)

        monkeypatch.setattr(kind, "u_at", counted)
    segs = (PotentialSegment(0.0, 0.7, 1.2), PotentialSegment(0.7, 1.5, -0.6),
            PotentialSegment(1.5, 2.1, 2.4))
    xs = np.linspace(0.0, 2.1, 9)
    for pot, read_cuts in ((PiecewisePotential(0.0, segs, 0.0), 0),
                           (SampledPotential(tuple(xs), tuple(np.cos(3.0 * xs)), 0.0, 0.0), 1)):
        calls["_cut"] = 0
        z_minus(pot, 1.9)
        assert calls["_cut"] == 1
        traj = z_minus(pot, 1.9, grid=np.linspace(0.0, 2.1, 400))
        assert traj.xs.tolist() == np.linspace(0.0, 2.1, 400).tolist()
        assert calls["_cut"] == 2 + read_cuts
    assert calls["u_at"] == 0


def _read_routes(monkeypatch, pot, e, xs, zs, grid, c=C):
    """``analytic._read`` of one trajectory by its array pass and by its
    scalar walk of every point, as lists, and the points the array pass
    left to the walk (indices into the grid's points inside the
    samples)."""
    got, taken, _ = _taken(monkeypatch, analytic._read, pot, e, xs, zs, grid, c)
    with monkeypatch.context() as m:
        m.setattr(_arrays, "_anchored_many", _walk_only)
        want = analytic._read(pot, e, xs, zs, grid, c)
    got, want = [list(map(analytic._listed, read)) for read in (got, want)]
    return got, want, [k for k, p in enumerate(got[0][1:-1]) if p not in taken]


def _walk_only(pot, e, starts, *_):
    """``_arrays._anchored_many`` that leaves every walk to the scalar tail."""
    return (*np.empty((3, len(starts)), dtype=complex), np.arange(len(starts)), np.full(len(starts), np.nan))


def _taken(monkeypatch, call, *args):
    """``call(*args)``, the set of the ends of the walks that its array
    pass took (a read's points), and the ends of those it left."""
    many, taken, left = _arrays._anchored_many, set(), []

    def recorded(pot, e, starts, zetas, ends, c):
        out = many(pot, e, starts, zetas, ends, c)
        taken.update(np.delete(ends, out[3]).tolist())
        left.extend(ends[out[3]].tolist())
        return out

    with monkeypatch.context() as m:
        m.setattr(_arrays, "_anchored_many", recorded)
        return call(*args), taken, left


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
def test_read_array_pass_matches_the_walk(random_stack_instances, threshold, monkeypatch):
    # the array read against the scalar read of every point, on every
    # conftest stack from both sides at its lowest and highest energy and
    # below the leads, where Z passes poles (in W mode with threshold 2),
    # at 401 points: each Z within 8 ulps, and only the points on a
    # stepper sample left to the walk, which takes that sample's Z
    cfg = IntegrationConfig(pole_threshold=threshold)
    eps = np.finfo(float).eps
    for pot, energies in random_stack_instances:
        es = [float(energies[0]), float(energies[-1])]
        floor = min(s.u for s in pot.segments)
        if floor < 0.0:
            es.append(0.5 * floor)
        grid = np.linspace(pot.a, pot.b, 401).tolist()
        for traj in (z(pot, e, cfg) for e in es for z in (z_minus, z_plus)):
            xs, zs = traj.xs.tolist(), traj.zs.tolist()
            (got_xs, got), (want_xs, want), left = _read_routes(
                monkeypatch, pot, traj.energy, xs, zs, grid)
            assert got_xs == want_xs == grid
            assert all(abs(g - w) <= 8.0 * eps * abs(w) for g, w in zip(got, want)), pot
            on = set(xs)
            assert left == [k for k, p in enumerate(grid[1:-1]) if p in on]
            assert all(zs[xs.index(grid[k + 1])] == got[k + 1] for k in left)


@pytest.mark.parametrize("d", [0.9e-12, 5e-13, -0.9e-12, -5e-13], ids=["overlap", "overlap/2", "gap", "gap/2"])
def test_read_across_joins_within_join_tol(d, monkeypatch):
    # segments that overlap or gap by up to JOIN_TOL meet at one float
    # (PiecewisePotential.cells), and every walker takes that geometry:
    # the chain's walks across the stack and back mirror each other and
    # add up to its length, every interval of the stepper's trajectories
    # from either end is one slab of the samples' cut, so the array read
    # leaves only points on samples to the walk, and the chain, the
    # stepper and the transfer-matrix oracle (on the segments as given)
    # agree on R and T from both sides, right incidence bitwise the
    # mirror's left incidence on both engines
    segs = (PotentialSegment(0.0, 1.0 + d, 1.5), PotentialSegment(1.0, 2.0, -1.0),
            PotentialSegment(2.0 - d, 3.0, 0.7))
    pot, params = PiecewisePotential(0.0, segs, 0.0), ModelParams()
    eps = np.finfo(float).eps
    there, back = _steps(pot, 0.0, 3.0), _steps(pot, 3.0, 0.0)
    assert back == [(u, -dx) for u, dx in reversed(there)]
    assert abs(sum(dx for _, dx in there) - 3.0) <= 4.0 * math.ulp(3.0)
    assert abs(sum(dx for _, dx in back) + 3.0) <= 4.0 * math.ulp(3.0)
    near = [x + s for x in pot.interfaces() for s in (-1e-13, 1e-13)]
    grid = sorted([*np.linspace(pot.a, pot.b, 41).tolist(), *near])
    for e, z in itertools.product((0.3, 1.2, 2.5), (z_minus, z_plus)):
        traj = z(pot, e)
        xs, zs = traj.xs.tolist(), traj.zs.tolist()
        assert all(len(walk) == 1 for walk in analytic._cut(pot, xs))
        (got_xs, got), (want_xs, want), left = _read_routes(monkeypatch, pot, e, xs, zs, grid)
        ref = reference_read(pot, e, list(zip(xs, zs)), grid, C)
        on = set(xs)
        assert got_xs == want_xs == [x for x, _ in ref]
        assert left == [k for k, p in enumerate(got_xs[1:-1]) if p in on]
        assert got == want and all(abs(g - r) <= 8.0 * eps * abs(r) for g, (_, r) in zip(got, ref))
    for e in (0.3, 1.2, 2.5):
        for cfg in (IntegrationConfig(), IntegrationConfig(force_numeric=True)):
            for side in Side:
                res, tm = solve_scattering(pot, e, side, cfg, params), transfer_matrix_solve(pot, e, side, params)
                assert abs(res.big_r - tm.big_r) <= 1e-10 and abs(res.big_t - tm.big_t) <= 1e-10
            right = solve_scattering(pot, e, Side.RIGHT, cfg, params)
            left = solve_scattering(pot.mirrored(), e, Side.LEFT, cfg, params)
            assert repr(right) == repr(dataclasses.replace(left, side=Side.RIGHT))


_STACK = PiecewisePotential(0.2, (PotentialSegment(0.0, 1.0, 1.5), PotentialSegment(1.0, 2.5, -1.0),
                                   PotentialSegment(2.5, 3.0, 0.7)), -0.3)
# segments that overlap by 9e-13 meet at the midpoint of their ends
_MID = 0.5 * (1.0 + 9e-13) + 0.5 * 1.0


@pytest.mark.parametrize(
    "pot, xs",
    [
        # samples on a, b and both joins, in both leads, repeated on a join
        (_STACK, [-2.0, -1.0, 0.0, 0.5, 1.0, 1.0, 1.7, 2.5, 3.0, 4.0, 5.0]),
        # a step with no segments, a sample on the step
        (PiecewisePotential(0.3, (), -0.4, step_x=0.5), [-1.0, 0.0, 0.5, 1.0, 2.0]),
        # a join within JOIN_TOL, samples on its midpoint
        (PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0 + 9e-13, 1.5), PotentialSegment(1.0, 2.0, -1.0)),
                            0.4), [-0.5, 0.0, 0.5, 1.0, _MID, 1.5, 2.0, 2.5]),
    ],
    ids=["stack", "step", "near-join"],
)
def test_read_array_pass_finds_each_interval_cell(pot, xs, monkeypatch):
    # samples whose intervals are each one slab, as a stepper's are, read
    # at points inside every interval, on every sample and on every join:
    # the array pass takes each point's slab off the cell that holds its
    # interval, bitwise the walk's Z, and leaves to the walk only the
    # points on samples.  With intervals across joins added, it leaves
    # the points inside those too, and takes the rest as before
    e = 0.9
    zs = [complex(0.6 + 0.1 * k, 0.3 - 0.07 * k) for k in range(len(xs))]
    assert all(len(walk) in (0, 1) for walk in analytic._cut(pot, xs))
    grid = sorted({*xs, *pot.interfaces(), *(0.25 * x0 + 0.75 * x1 for x0, x1 in zip(xs, xs[1:]))})
    (got_xs, got), (want_xs, want), left = _read_routes(monkeypatch, pot, e, xs, zs, grid)
    ref = reference_read(pot, e, list(zip(xs, zs)), grid, C)
    assert got_xs == want_xs == [x for x, _ in ref] and repr(got) == repr(want) == repr([z for _, z in ref])
    assert left == [k for k, p in enumerate(got_xs[1:-1]) if p in set(xs)]
    # every other sample kept: intervals now cross joins
    thin, thin_zs = xs[1::2], zs[1::2]
    crossing = [i for i, walk in enumerate(analytic._cut(pot, thin)) if len(walk) > 1]
    assert crossing
    points = [p for p in got_xs if thin[0] < p < thin[-1]]
    (read_xs, read), taken, _ = _taken(monkeypatch, analytic._read, pot, e, thin, thin_zs, points, C)
    assert read_xs[1:-1].tolist() == points
    read = read[1:-1].tolist()
    inside = [bisect.bisect_right(thin, p) - 1 for p in points]
    sizes = [abs(z) for z in thin_zs]
    anchors = [thin[i] if sizes[i] > sizes[i + 1] else thin[i + 1] for i in inside]
    redo = [k for k, p in enumerate(points) if p not in taken]
    # a point whose walk from its anchor stays on one cell is no longer
    # left to the walk because its interval crosses a join
    assert redo == [k for k, p in enumerate(points) if p in set(thin) or len(_steps(pot, anchors[k], p)) > 1]
    assert any(inside[k] in crossing for k in range(len(points)) if k not in redo)
    assert any(inside[k] in crossing for k in redo)
    ref = reference_read(pot, e, list(zip(thin, thin_zs)), points, C)[1:-1]
    assert all(read[k] == ref[k][1] for k in range(len(points)) if k not in redo)


def _awkward_grid(pot, xs, rng):
    """Grid points that every route must read alike: a linspace past both
    ends, points on the samples and on the joins, repeats, and points
    just inside the samples' range, shuffled."""
    near = [xs[0] + 1e-13, xs[-1] - 1e-13, xs[0], xs[-1]]
    grid = [*np.linspace(pot.a - 0.5, pot.b + 0.5, 157).tolist(), *xs[1:-1:7], *pot.interfaces(), *near]
    grid += grid[::9]
    return rng.permutation(grid).tolist()


@pytest.mark.parametrize("threshold", [1e9, 2.0], ids=["Z", "W"])
def test_warm_read_is_bitwise_the_cold_walk(random_stack_instances, threshold, no_numpy, monkeypatch):
    # the warm read (numpy loaded) against the numpy-free walk of every
    # point, bitwise, on every fifth conftest stack and every eighth
    # seeded Gaussian from both anchors (a walk toward smaller x and
    # toward larger x, whose ties differ), at the stack's lowest and
    # highest energy or the Gaussian's, and below the leads, where Z
    # passes poles (in W mode with threshold 2): points on samples and on
    # joins, repeated and unsorted points, as a list and as an array; and
    # the samples thinned, so that intervals cross joins.  On a stack the
    # warm read takes the array pass and gives arrays, the walk lists; on
    # a Gaussian both walk, the warm one with numpy's sub-slab series
    cfg = IntegrationConfig(pole_threshold=threshold)
    rng = np.random.default_rng(41)
    cases = [(pot, [float(es[0]), float(es[-1])], min(s.u for s in pot.segments))
             for pot, es in random_stack_instances[::5]]
    cases += [(pot, [e], min(pot.us)) for pot, e in _seeded_gaussians()[::8]]
    taken = left = 0
    for pot, es, floor in cases:
        sampled = isinstance(pot, SampledPotential)
        if floor < 0.0:
            es.append(0.5 * floor)
        for e, z in itertools.product(es, (z_minus, z_plus)):
            traj = z(pot, e, cfg)
            rightward = traj.direction is Side.RIGHT
            for xs, zs in ((traj.xs.tolist(), traj.zs.tolist()),
                           (traj.xs[::3].tolist(), traj.zs[::3].tolist())):
                grid = _awkward_grid(pot, xs, rng)
                for points in (grid, np.array(grid)):
                    (warm_xs, warm_zs), by_pass, _ = _taken(
                        monkeypatch, analytic._read, pot, e, xs, zs, points, C, rightward)
                    with no_numpy():
                        cold = analytic._read(pot, e, xs, zs, points, C, rightward)
                    assert type(cold[1]) is list and isinstance(warm_zs, list if sampled else np.ndarray)
                    warm = (analytic._listed(warm_xs), analytic._listed(warm_zs))
                    assert repr(warm) == repr(cold), (pot, e)
                    if not sampled:
                        redo = [p for p in warm[0][1:-1] if p not in by_pass]
                        taken += len(warm_xs) - 2 - len(redo)
                        left += len(redo)
    # most points take the array pass; those on samples or across joins not
    assert taken > 3 * left > 0


def test_read_of_a_grid_that_is_not_finite_takes_the_walks_error():
    # a grid with a NaN or an infinity is read by the list route, whose
    # check names the first bad point of the sorted grid
    traj = z_minus(_STACK, 0.9)
    xs, zs = traj.xs.tolist(), traj.zs.tolist()
    for grid, bad in (([0.5, math.nan, 1.5], "nan"), ([math.inf, 0.5, -math.inf], "-inf")):
        for points in (grid, np.array(grid)):
            with pytest.raises(NonFiniteInputError, match=f"^grid points must be finite, got {bad}$"):
                analytic._read(_STACK, 0.9, xs, zs, points, C)
            with pytest.raises(NonFiniteInputError, match=f"^grid points must be finite, got {bad}$"):
                z_minus(_STACK, 0.9, grid=points)


def test_trajectory_read_and_reconstruction_are_bitwise_cold_and_warm(random_stack_instances, no_numpy):
    # integrate_impedance on a grid and reconstruct_wavefunction, with the
    # read and the bridge on their array passes and on the numpy-free
    # walks: the same xs, Z and psi, bit for bit, on every fifth conftest
    # stack from both ends, in both modes
    from qwim.xcheck import reconstruct_wavefunction

    psi_start = 0.5 - 2.0j
    for (pot, energies), threshold in itertools.product(random_stack_instances[::5], (1e9, 2.0)):
        cfg = IntegrationConfig(pole_threshold=threshold)
        grid = np.linspace(pot.a, pot.b, 203)
        for e, z in itertools.product((float(energies[0]), float(energies[-1])), (z_minus, z_plus)):
            warm = z(pot, e, cfg, grid=grid)
            with no_numpy():
                cold = z(pot, e, cfg, grid=grid)
                cold_psi = reconstruct_wavefunction(cold, psi_start).psi
            assert warm.xs.tobytes() == cold.xs.tobytes() and warm.zs.tobytes() == cold.zs.tobytes()
            psi = reconstruct_wavefunction(warm, psi_start).psi
            assert psi.tobytes() == cold_psi.tobytes() and psi[0] == psi_start


def test_read_and_bridge_at_a_tie_anchor_where_the_walk_does(no_numpy, monkeypatch):
    # samples whose zeta is of one size everywhere: each point is read
    # from the interval's end the walk reached first, the lower for a
    # walk toward larger x and the upper otherwise, and each interval
    # bridged from its second end, on the array passes as on the
    # numpy-free walk, bit for bit; the two read rules read differently.
    # numpy's complex absolute value differs from Python's abs in the
    # last bit on 3 of these 10 samples, and took the other end there
    e, xs = 0.9, [-1.0, -0.25, 0.0, 0.6, 1.0, 1.8, 2.5, 2.9, 3.0, 3.7]
    zs = [cmath.rect(1.3, 0.4 + 0.9 * k) for k in range(len(xs))]
    assert len({abs(z) for z in zs}) == 1
    grid = np.linspace(-1.0, 3.7, 95).tolist()
    reads = []
    for rightward in (False, True):
        read, taken, _ = _taken(monkeypatch, analytic._read, _STACK, e, xs, zs, grid, C, rightward)
        warm = [v.tolist() for v in read]
        with no_numpy():
            cold = analytic._read(_STACK, e, xs, zs, grid, C, rightward)
        assert repr(warm) == repr(list(cold))
        # the array pass leaves only the points on samples to the walk
        assert [p for p in warm[0][1:-1] if p not in taken] == [p for p in grid[1:-1] if p in xs]
        reads.append(cold[1])
    assert reads[0] != reads[1]
    warm, _, left = _taken(monkeypatch, _bridge, _STACK, e, xs, zs, C)
    with no_numpy():
        cold = _bridge(_STACK, e, xs, zs, C)
    assert warm.tobytes() == np.array(cold, dtype=complex).tobytes()
    assert left == []


@pytest.mark.parametrize(
    "pot",
    [
        PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 1.5), PotentialSegment(1.0, 2.0, -1.0)),
                           0.0),
        SampledPotential((0.0, 0.7, 1.0, 2.0), (1.5, 0.4, -1.0, 0.3), 0.0, 0.0),
    ],
    ids=["piecewise", "sampled"],
)
@pytest.mark.parametrize("anchor", [0, 1], ids=["from-start", "from-end"])
def test_read_walks_a_point_across_a_join_from_its_anchor(pot, anchor, no_numpy):
    # an interval of samples that crosses joins (0 to 2 here) is no one
    # slab: each point inside it walks the interval's slabs from the end
    # with the larger |zeta| to itself, as reference_read walks it, in a
    # process without numpy (one cut per walk direction, the sub-slab
    # maps by the twin) and with numpy loaded (the piecewise array pass
    # takes the walks on one cell and leaves the rest to that walk), bit
    # for bit.  Warm, a sampled read takes
    # the maps of all its points from one numpy series, and each map is
    # that of its own sub-slab alone.  Both raised a bare ValueError before
    e, xs = 0.9, [0.0, 2.0]
    zs = [complex(0.8, 0.2), complex(0.3, -0.1)][::1 if anchor == 0 else -1]
    grid = [0.35, 0.5, 1.0, 1.5]
    with no_numpy():
        want = reference_read(pot, e, list(zip(xs, zs)), grid, C)
        assert analytic._read(pot, e, xs, zs, grid, C) == tuple(map(list, zip(*want)))
    want = reference_read(pot, e, list(zip(xs, zs)), grid, C)
    got_xs, got = map(analytic._listed, analytic._read(pot, e, xs, zs, grid, C))
    assert got_xs == [x for x, _ in want]
    assert repr(got) == repr([w for _, w in want])


def test_stepper_guards():
    # the barrier (0, 2) at height 1: with no relative tolerance and an
    # absolute one far below rounding no step is accepted, and the step
    # shrinks past its floor; at E = 1e300 every trial step's state
    # overflows, down to the step floor
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    with pytest.raises(StepSizeUnderflowError, match="step underflow near x=2.0"):
        z_minus(pot, 0.5, cfg=IntegrationConfig(rel_tol=0.0, abs_tol=1e-300))
    with pytest.raises(NonFiniteStateError, match="non-finite state near x=2.0"):
        z_minus(pot, 1e300)


def test_stages_that_overflow_reject_the_step(random_stack_instances):
    # zeta carried through its poles (no W switch): conftest stack 8 from
    # the left at half its lowest level, where the last slab's first
    # step, 1.26 long from |zeta| = 305, overflowed its later stages and
    # raised.  The step is rejected and shrunk instead, and zeta at b is
    # the chain's within 1e-12 relative (2.1e-13)
    pot = random_stack_instances[8][0]
    e = 0.5 * min(s.u for s in pot.segments)
    traj = z_plus(pot, e, IntegrationConfig(pole_threshold=1e9))
    num, den, _ = _chain(_steps(pot, pot.a, pot.b), e, left_anchor(pot, e, ModelParams()), C)
    assert abs(traj.zs[-1] - num / den) <= 1e-12 * abs(num / den)


def test_stepper_nudges_off_an_exact_node():
    # on a slab at the energy's level W' = i (m / hbar) is constant, W
    # mode runs from the start (the switch is at |Z| > 0) and each step is
    # exact: from W(0) = -i h, the sum the first step of h = max_step
    # adds, that step lands on W = 0 exactly, a psi-node, and is taken
    # again 0.97 times as long.  W stays 1 / Z(0) + i x all the way
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    h, k = 0.04, 1j
    step = functools.reduce(operator.add, ((h * b) * k for b in _B if b))
    z0 = 1.0 / -step
    while 1.0 / z0 != -step:
        z0 = complex(z0.real, math.nextafter(z0.imag, math.inf))
    traj = integrate_impedance(pot, 1.0, 0.0, z0, 2.0)
    assert traj.xs[1] == h * 0.97 and traj.xs[-1] == 2.0
    w = 1.0 / traj.zs
    np.testing.assert_allclose(w, -step + 1j * traj.xs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT], ids=["left", "right"])
def test_sampled_read_walks_each_point_alone(side, monkeypatch):
    # a sampled potential's read takes no array pass: each point walks
    # alone, with the sub-slab maps of all points from one _linear_steps
    # call (a point on a sample takes its Z), and lands within the
    # stepper's own error of the chain's Z
    # (4.5e-10 relative to max(|Z|, 1) here)
    def no_array_pass(*args):
        raise AssertionError("a sampled read took the array pass")

    xs = np.linspace(-3.0, 3.0, 61)
    pot = SampledPotential(tuple(xs), tuple(-12.0 * np.exp(-xs ** 2 / 2.0)), 0.0, 0.0)
    params, e = ModelParams(), 1.3
    walk = _Incidence(pot, side, IntegrationConfig(force_numeric=True), params)
    samples = walk.trajectory(e)
    calls, real = [], analytic._linear_steps

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(_arrays, "_anchored_many", no_array_pass)
    monkeypatch.setattr(analytic, "_linear_steps", counted)
    grid = np.linspace(-3.0, 3.0, 401).tolist()
    got_xs, got = analytic._read(pot, e, *samples, grid, C)
    walked = [p for p in grid[1:-1] if p not in set(samples[0])]
    assert calls == [len(walked)] and 380 < len(walked) < 399 and got_xs == grid
    want = walk.profile(e, grid)[0]
    scale = max(1.0, max(map(abs, want)))
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9 * scale


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [lambda bad: integrate_impedance(flat(), 0.5, bad, 1.0 + 0j, 0.0),
     lambda bad: integrate_impedance(flat(), 0.5, 2.0, 1.0 + 0j, bad),
     lambda bad: integrate_impedance(flat(), 0.5, 0.0, left_anchor(flat(), 0.5, ModelParams()),
                                     bad),
     lambda bad: integrate_impedance(flat(), 0.5, 2.0, right_anchor(flat(), 0.5, ModelParams()),
                                     bad)],
    ids=["anchor", "target", "z_plus-target", "z_minus-target"],
)
def test_non_finite_ends_raise_typed(call, bad):
    # a NaN end gave a one-sample trajectory, and an infinite target one
    # that stopped at the last breakpoint; the last two cases start from
    # z_plus's and z_minus's anchors
    with pytest.raises(NonFiniteInputError, match="anchor and target"):
        call(bad)


def test_numpy_scalars_give_the_float_result():
    # a numpy scalar energy carried numpy's scalar arithmetic through every
    # stage of every step; taken as floats they give the same answer
    sampled = SampledPotential((0.0, 1.0, 2.0), (0.0, -1.5, 0.0), 0.0, 0.0)
    well = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, -5.0),), 0.0)
    numeric = IntegrationConfig(force_numeric=True)
    for pot in (sampled, well):
        for cfg in (IntegrationConfig(), numeric):
            for side in Side:
                want = solve_scattering(pot, 1.3, side, cfg)
                got = solve_scattering(pot, np.float64(1.3), side, cfg)
                assert type(got.e) is float and repr(got) == repr(want)
            want = impedance_mismatch(pot, -3.0, 0.7, cfg)
            got = impedance_mismatch(pot, np.float64(-3.0), np.float64(0.7), cfg)
            assert type(got) is complex and repr(got) == repr(want)
        for x0, anchor in ((pot.a, left_anchor), (pot.b, right_anchor)):
            want = integrate_impedance(pot, 1.3, x0, anchor(pot, 1.3, ModelParams()), 1.1)
            got = integrate_impedance(pot, np.float64(1.3), np.float64(x0),
                                      anchor(pot, np.float64(1.3), ModelParams()),
                                      np.float64(1.1))
            assert type(got.energy) is float and type(got.anchor_x) is float
            for field in ("xs", "zs"):
                assert repr(getattr(got, field).tolist()) == repr(getattr(want, field).tolist())
        z = region_constants(1.3, 0.0).z
        want = integrate_impedance(pot, 1.3, 2.0, z, 0.0)
        got = integrate_impedance(pot, np.float64(1.3), np.float64(2.0), np.complex128(z),
                                  np.float64(0.0))
        assert type(got.anchor_z) is complex
        assert repr(got.zs.tolist()) == repr(want.zs.tolist())


def _both_sides(solve):
    """{side: (R, T)} for each incidence side the solve returns on."""
    out = {}
    for side in Side:
        try:
            res = solve(side)
        except SolverError:
            continue
        out[side] = (res.big_r, res.big_t)
    return out


# validate's bound on |delta R| and |delta T|, and unitarity to match
DIFF_TOL = 1e-8


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    slabs=st.lists(
        st.tuples(st.floats(0.1, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=5
    ),
    leads=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    e=st.floats(0.05, 8.0),
    params=st.builds(ModelParams, st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)
def test_stepper_chain_and_transfer_matrix_agree_fuzz(slabs, leads, e, params):
    # the stepper against the exact chain and the transfer matrix on R
    # and T from each side where all three return, in units (hbar, mass),
    # and each engine's own unitarity and left-right reciprocity of T
    x, segs = 0.0, []
    for length, u in slabs:
        segs.append(PotentialSegment(x, x + length, u))
        x += length
    pot = PiecewisePotential(leads[0], tuple(segs), leads[1])
    numeric = IntegrationConfig(force_numeric=True)
    engines = [
        _both_sides(lambda side: solve_scattering(pot, e, side, numeric, params)),
        _both_sides(lambda side: solve_scattering(pot, e, side, IntegrationConfig(), params)),
        _both_sides(lambda side: transfer_matrix_solve(pot, e, side, params)),
    ]
    sides = set(engines[0]) & set(engines[1]) & set(engines[2])
    for side in sides:
        (r_num, t_num), (r_chain, t_chain), (r_tm, t_tm) = (eng[side] for eng in engines)
        assert abs(r_num - r_chain) <= DIFF_TOL and abs(t_num - t_chain) <= DIFF_TOL
        assert abs(r_num - r_tm) <= DIFF_TOL and abs(t_num - t_tm) <= DIFF_TOL
        for big_r, big_t in (eng[side] for eng in engines):
            assert abs(big_r + big_t - 1.0) <= DIFF_TOL
    if len(sides) == 2:
        for eng in engines:
            assert abs(eng[Side.LEFT][1] - eng[Side.RIGHT][1]) <= DIFF_TOL
