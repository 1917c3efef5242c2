"""Closed-form impedance algebra for constant-potential regions."""

import cmath
import math

import numpy as np
import pytest

from qwim import _arrays
from qwim._arrays import _chain_many, _region_constants_many
from qwim.analytic import (
    PhaseConstant,
    _chain,
    _constants,
    _divide,
    _mirrored_steps,
    _slab,
    _steps,
    TOL_ALG,
    TOL_FLUX,
    barrier_closed_forms,
    impedance_at,
    layer_transform,
    phase_from_impedance,
    propagate_impedance,
    psi_growth_factor,
    region_constants,
    step_reflection,
)
from qwim.errors import (
    DegenerateEnergyError,
    EvanescentIncidenceError,
    NonFiniteStateError,
    TransformPoleError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, SampledPotential

# Entry impedance of the barrier u=1 on a 2-long slab at E=0.5 terminated
# by the matched load z=1, frozen from a (psi, psi') propagator-matrix
# computation run independently of this package.
BARRIER_LAYER_Z = 0.036618993473686454 + 0.9993292997390671j
# T of the barrier u_b=1, l=1 at E=2 from the classical two-wavevector
# formula with k0=2, kb=sqrt(2).
BARRIER_T_E2 = 0.8912972171417729


def test_region_constants_propagating():
    rc = region_constants(0.5, 0.0)
    assert rc.z == pytest.approx(1.0)
    assert rc.gamma == pytest.approx(1j)
    assert rc.is_propagating
    assert rc.k == pytest.approx(1.0)


def test_region_constants_evanescent_branch():
    # z takes the +i branch; gamma = i m z / hbar is then real negative
    rc = region_constants(0.0, 0.5)
    assert rc.z == pytest.approx(1j)
    assert rc.gamma == pytest.approx(-1.0)
    assert not rc.is_propagating
    assert rc.kappa == pytest.approx(1.0)


def test_degenerate_energy_rejected():
    with pytest.raises(DegenerateEnergyError):
        region_constants(1.0, 1.0)
    with pytest.raises(DegenerateEnergyError):
        region_constants(2.0, 2.0 * (1 + 1e-14))


def test_region_constants_scale_with_params():
    p = ModelParams(hbar=2.0, mass=0.5)
    rc = region_constants(1.0, 0.0, p)
    assert rc.z == pytest.approx(2.0)  # sqrt(2 E / m)
    assert rc.gamma == pytest.approx(1j * 0.5 * 2.0 / 2.0)


def test_impedance_at_zero_phase():
    rc = region_constants(0.5, 0.0)
    assert impedance_at(rc, PhaseConstant.finite(0.0), 0.0) == 0.0


def test_impedance_at_infinite_phase_markers():
    rc = region_constants(0.5, 0.0)
    for x in (-3.0, 0.0, 17.5):
        assert impedance_at(rc, PhaseConstant.plus_inf(), x) == rc.z
        assert impedance_at(rc, PhaseConstant.minus_inf(), x) == -rc.z


def test_evanescent_saturation_directions():
    # gamma < 0, so tanh(gamma x + phi) -> -1 for x -> +inf: the impedance
    # saturates to -z far right and +z far left of a finite-phase solution
    rc = region_constants(0.5, 1.0)
    phi = PhaseConstant.finite(0.3)
    np.testing.assert_allclose(
        complex(impedance_at(rc, phi, 60.0)), complex(-rc.z), atol=1e-12
    )
    np.testing.assert_allclose(
        complex(impedance_at(rc, phi, -60.0)), complex(rc.z), atol=1e-12
    )


def test_phase_from_impedance_markers_and_roundtrip():
    rc = region_constants(0.5, 0.0)
    assert phase_from_impedance(rc, 0.0, 0.0).value == 0.0
    assert phase_from_impedance(rc, 1.3, rc.z).sign == +1
    assert phase_from_impedance(rc, 1.3, -rc.z).sign == -1

    rng = np.random.default_rng(11)
    for _ in range(40):
        e = float(rng.uniform(0.1, 5.0))
        u = float(rng.uniform(-2.0, 2.0))
        if abs(e - u) < 1e-3:
            continue
        rc = region_constants(e, u)
        x = float(rng.uniform(-2.0, 2.0))
        z_val = complex(rng.normal(), rng.normal())
        phi = phase_from_impedance(rc, x, z_val)
        assert abs(impedance_at(rc, phi, x) - z_val) < 1e-9 * (1 + abs(z_val))


def test_phase_imaginary_part_principal_strip():
    rc = region_constants(2.0, 0.0)
    phi = phase_from_impedance(rc, 40.0, 0.7 + 0.1j)
    assert -0.5 * math.pi < phi.value.imag <= 0.5 * math.pi


def test_layer_transform_identity_limit():
    rc = region_constants(1.7, 0.4)
    z_far = 0.3 - 0.8j
    out = layer_transform(rc, z_far, 1e-13)
    assert abs(out - z_far) < 1e-11


def test_layer_transform_matched_load_fixed_point():
    for e, u in ((0.5, 0.0), (0.5, 1.0), (3.0, -1.0)):
        rc = region_constants(e, u)
        for length in (0.1, 1.0, 7.3):
            assert abs(layer_transform(rc, rc.z, length) - rc.z) < 1e-12 * abs(rc.z)


def test_layer_transform_barrier_against_propagator_oracle():
    rc = region_constants(0.5, 1.0)
    out = layer_transform(rc, 1.0 + 0j, 2.0)
    assert abs(out - BARRIER_LAYER_Z) < 1e-10


def test_layer_transform_composes():
    rng = np.random.default_rng(23)
    for _ in range(30):
        rc = region_constants(float(rng.uniform(0.2, 4.0)), float(rng.uniform(-1.5, 1.5)))
        z_far = complex(rng.normal(), rng.normal())
        l1, l2 = rng.uniform(0.05, 1.2, size=2)
        whole = layer_transform(rc, z_far, float(l1 + l2))
        halves = layer_transform(rc, layer_transform(rc, z_far, float(l2)), float(l1))
        assert abs(whole - halves) < TOL_ALG * (1 + abs(whole))


def test_propagate_inverts_layer_transform():
    rc = region_constants(0.9, 0.2)
    z_far = 1.1 - 0.4j
    near = layer_transform(rc, z_far, 0.8)
    back = propagate_impedance(rc, near, 0.8)
    assert abs(back - z_far) < 1e-12


def test_thick_evanescent_slab_saturates_without_overflow():
    rc = region_constants(0.1, 5.0)
    out = layer_transform(rc, 0.5 + 0j, 500.0)  # |gamma l| far beyond overflow
    assert cmath.isfinite(out)
    # the far load is forgotten: the slab presents its decaying-tail value
    assert abs(out - rc.z) < 1e-10


def test_psi_growth_factor_matches_direct_form():
    rng = np.random.default_rng(31)
    for _ in range(40):
        rc = region_constants(float(rng.uniform(0.2, 4.0)), float(rng.uniform(-1.5, 1.5)))
        z_exit = complex(rng.normal(), rng.normal())
        length = float(rng.uniform(0.05, 2.0))
        g = rc.gamma * length
        direct = rc.z / (rc.z * cmath.cosh(g) - z_exit * cmath.sinh(g))
        assert abs(psi_growth_factor(rc, z_exit, length) - direct) < 1e-12 * abs(direct)


def test_psi_growth_factor_thick_slab_decay():
    rc = region_constants(0.5, 1.0)  # kappa = 1
    for length in (400.0, 800.0):
        f = psi_growth_factor(rc, rc.z, length)
        assert cmath.isfinite(f)
        assert abs(f) == pytest.approx(math.exp(-rc.kappa * length), rel=1e-10)


def test_step_reflection_matched_is_zero():
    assert step_reflection(2.0, 1.0, 1.0) == 0.0


def test_step_total_reflection_band_unimodular():
    for e in np.linspace(0.02, 0.98, 25):
        r = step_reflection(float(e), 0.0, 1.0)
        assert abs(abs(r) - 1.0) < 1e-12


def test_step_reflection_classical_value():
    # E=2 over a unit step: r = (k1 - k2)/(k1 + k2) = 3 - 2 sqrt(2)
    r = step_reflection(2.0, 0.0, 1.0)
    assert abs(r - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-14


def test_step_reflection_phase_reference():
    r0 = step_reflection(2.0, 0.0, 1.0, x0=0.0)
    r1 = step_reflection(2.0, 0.0, 1.0, x0=0.7)
    assert abs(r1 - r0 * cmath.exp(2j * 2.0 * 0.7)) < 1e-12


def test_step_below_lead_rejected():
    with pytest.raises(EvanescentIncidenceError):
        step_reflection(-0.5, 0.0, 1.0)


def test_barrier_resonance_full_transmission():
    # k_b l = pi: first transparency of the 2-long unit barrier
    e = 1.0 + math.pi ** 2 / 8.0
    amp = barrier_closed_forms(e, 1.0, 2.0)
    assert amp.big_t == pytest.approx(1.0, abs=1e-12)
    assert amp.big_r == pytest.approx(0.0, abs=1e-12)
    assert abs(amp.t) == pytest.approx(1.0, abs=1e-12)


def test_barrier_above_top_frozen_value():
    amp = barrier_closed_forms(2.0, 1.0, 1.0)
    assert amp.big_t == pytest.approx(BARRIER_T_E2, abs=1e-12)
    assert amp.big_r == pytest.approx(1.0 - BARRIER_T_E2, abs=1e-12)


def test_barrier_deep_tunneling_asymptotics():
    # kappa_b l = 10: T approaches the opaque-barrier exponential form
    e, u_b, length = 0.5, 1.0, 10.0
    k0 = math.sqrt(2.0 * e)
    kb = math.sqrt(2.0 * (u_b - e))
    amp = barrier_closed_forms(e, u_b, length)
    asym = 16.0 * k0 * k0 * kb * kb / (k0 * k0 + kb * kb) ** 2 * math.exp(
        -2.0 * kb * length
    )
    assert amp.big_t == pytest.approx(asym, rel=1e-2)


def test_barrier_amplitudes_consistent():
    rng = np.random.default_rng(41)
    for _ in range(60):
        e = float(rng.uniform(0.05, 6.0))
        u_b = float(rng.uniform(-2.0, 3.0))
        if abs(e - u_b) < 1e-6:
            continue
        length = float(rng.uniform(0.1, 4.0))
        amp = barrier_closed_forms(e, u_b, length)
        assert abs(abs(amp.r) ** 2 - amp.big_r) < TOL_ALG
        assert abs(abs(amp.t) ** 2 - amp.big_t) < TOL_ALG
        assert abs(amp.big_r + amp.big_t - 1.0) < TOL_FLUX


def test_barrier_below_leads_rejected():
    with pytest.raises(EvanescentIncidenceError):
        barrier_closed_forms(-0.3, 1.0, 2.0)


def _walks(pot):
    """(slab list, from_left) of whole walks from both ends and of walks
    from both ends to an interior point."""
    inner = pot.a + 0.382 * (pot.b - pot.a)
    return [
        (_steps(pot, x_to, from_left), from_left)
        for x_to, from_left in ((pot.b, True), (pot.a, False), (inner, True), (inner, False))
    ]


def test_chain_matches_chain_many(random_stack_instances):
    # the scalar walker against its array twin on the conftest stacks and
    # on thick (saturated) slabs, from both ends, at bound (E < 0) and
    # scattering energies, at every level (the linear limit) and beside it
    params = ModelParams()
    stacks = [pot for pot, _ in random_stack_instances]
    stacks += [
        PiecewisePotential(
            0.0,
            (
                PotentialSegment(0.0, length, 1.0),
                PotentialSegment(length, length + 1.0, -2.0),
                PotentialSegment(length + 1.0, 2.0 * length + 1.0, 1.0),
            ),
            0.0,
        )
        for length in (50.0, 250.0, 400.0)
    ]
    grid = np.linspace(-3.5, 8.0, 93).tolist()
    for pot in stacks:
        levels = {pot.left_level, pot.right_level, *(s.u for s in pot.segments)}
        es = np.array(sorted({*grid, *levels, *(u + 1e-13 for u in levels)}))
        z = _region_constants_many(es, 0.0, params)[0]  # the leads' z
        # (num, den) compare as one vector, den scaled by a velocity
        scale = np.sqrt(2.0 * np.max([np.abs(es - u) for u in levels], axis=0) / params.mass)
        for slabs, from_left in _walks(pot):
            anchor = np.where(es < 0.0, -z, z) if from_left else z
            num, den, r, ok = _chain_many(slabs, es, anchor, params)
            want = np.array([_chain(slabs, e, complex(a), params) for e, a in zip(es.tolist(), anchor)])
            assert ok.all()
            norm = np.hypot(np.abs(want[:, 0]), scale * np.abs(want[:, 1]))
            # numpy's complex multiply and divide round differently from
            # CPython's, and a walk that carries a solution into its
            # growing direction amplifies that: the worst here is 2.2e-13
            # (r of a 6-slab walk from the left at E = -0.5)
            bound = 1e-12
            assert np.all(np.abs(num - want[:, 0]) <= bound * norm), (pot, from_left)
            assert np.all(scale * np.abs(den - want[:, 1]) <= bound * norm), (pot, from_left)
            assert np.all(np.abs(r - want[:, 2]) <= bound * np.abs(want[:, 2])), (pot, from_left)


def test_chain_many_flags_where_chain_raises():
    params = ModelParams()
    # an anchor that puts an exact psi-node at the first interface, and a
    # level whose z overflows
    node = PiecewisePotential(0.0, (PotentialSegment(0.0, 0.7, -1.0), PotentialSegment(0.7, 1.5, 0.4)), 0.0)
    z, gamma = _constants(1.0, -1.0, params)
    c1, c2 = cmath.cosh(gamma * 0.7), cmath.sinh(gamma * 0.7)
    z_node = -z * c1 / c2
    assert _chain(_steps(node, 0.7, True), 1.0, z_node, params)[1] == 0
    deep = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.5), PotentialSegment(1.0, 2.0, -1e308)), 0.0)
    es = np.array([0.25, 1.0, 1.5])
    for pot, anchor, error in (
        (node, z_node, TransformPoleError),
        (deep, 0.3 - 0.2j, NonFiniteStateError),
    ):
        raised = 0
        for slabs, _ in _walks(pot):
            ok = _chain_many(slabs, es, anchor, params)[3]
            for e, good in zip(es.tolist(), ok.tolist()):
                try:
                    _chain(slabs, e, anchor, params)
                except error:
                    raised += 1
                    assert not good, (pot, slabs, e)
                else:
                    assert good, (pot, slabs, e)
        assert raised > 0


def _stack(segments, left=0.0, right=0.0):
    return PiecewisePotential(left, tuple(PotentialSegment(*s) for s in segments), right)


def _stepwise_chain(slabs, e, z_anchor, params):
    """A constant-slab walk one ``_constants`` / ``_slab`` / ``_divide``
    step at a time, with the psi-nodes it crosses: (num, den, r, nodes).
    A propagating slab turns the Pruefer angle by k |dx| from its start
    angle; any other slab holds one node at most, where psi changes sign
    across it."""
    num, den, r, nodes = z_anchor, 1.0, 1.0, 0
    i_m = 1j * (params.mass / params.hbar)
    for u, dx in slabs:
        z_at, ratio = _divide(num, den), r / den
        try:
            z, gamma = _constants(e, u, params)
        except DegenerateEnergyError:
            num, den, r = z_at, 1.0 + z_at * (i_m * dx), ratio
            nodes += den.real <= 0.0
            continue
        num, den, f = _slab(z, gamma, z_at, dx)
        r = ratio * f
        if e > u:
            k, slope = gamma.imag, math.copysign(1.0, dx) * (i_m * z_at).real
            if slope < 0.0:
                nodes += 1 + math.floor((k * abs(dx) - math.atan2(k, -slope)) / math.pi)
            else:
                nodes += math.floor((math.atan2(k, slope) + k * abs(dx)) / math.pi)
        else:
            nodes += (den / z).real <= 0.0
    if not all(map(cmath.isfinite, (num, den, r))):
        raise NonFiniteStateError(f"overflow at {e}")
    return num, den, r, nodes


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) if isinstance(v, complex) else repr(v) for v in values]


@pytest.mark.parametrize("params", [ModelParams(), ModelParams(hbar=0.7, mass=1.9)], ids=["unit", "scaled"])
def test_inline_walk_matches_stepwise_walk(random_stack_instances, params):
    # the walker's inline slab algebra against the step functions, bit for
    # bit on (num, den, r) and on the node count: propagating, evanescent,
    # thick (saturated) and slab-level steps, from both ends, with real
    # (bound) and complex anchors; the count leaves the walk unchanged
    stacks = [pot for pot, _ in random_stack_instances[:25]]
    stacks += [
        _stack([(0.0, length, 1.0), (length, length + 1.0, -2.0), (length + 1.0, 2.0 * length + 1.0, 1.0)])
        for length in (50.0, 250.0, 400.0)
    ]
    grid = np.linspace(-3.5, 8.0, 29).tolist()
    saturated = checked = crossed = 0
    for pot in stacks:
        levels = {s.u for s in pot.segments}
        es = sorted({*grid, *levels, *(u + 1e-13 for u in levels)})
        for slabs, from_left in _walks(pot):
            for e in es:
                saturated += any(
                    math.sqrt(2.0 * params.mass * max(u - e, 0.0)) / params.hbar * abs(dx) > 300.0
                    for u, dx in slabs
                )
                for anchor in (0.8 - 0.3j, (-1j if from_left else 1j) * math.sqrt(abs(e) + 0.1)):
                    want = _stepwise_chain(slabs, e, anchor, params)
                    assert _bits(_chain(slabs, e, anchor, params, True)) == _bits(want)
                    assert _bits(_chain(slabs, e, anchor, params)) == _bits(want[:3])
                    checked, crossed = checked + 1, crossed + want[3]
    assert checked > 8000 and saturated > 50 and crossed > 1000


def test_inline_walk_raises_as_stepwise_walk():
    # a psi-node at an interface before the end and a level whose z
    # overflows raise the same typed errors on both walks, counted or not
    params = ModelParams()
    node = _stack([(0.0, 0.7, -1.0), (0.7, 1.5, 0.4)])
    z, gamma = _constants(1.0, -1.0, params)
    z_node = -z * cmath.cosh(gamma * 0.7) / cmath.sinh(gamma * 0.7)
    deep = _stack([(0.0, 1.0, 0.5), (1.0, 2.0, -1e308)])
    for slabs, anchor, error in (
        (_steps(node, node.b, True), z_node, TransformPoleError),
        (_steps(deep, deep.b, True), 0.3 - 0.2j, NonFiniteStateError),
        (_steps(deep, deep.a, False), 0.3 - 0.2j, NonFiniteStateError),
    ):
        with pytest.raises(error):
            _stepwise_chain(slabs, 1.0, anchor, params)
        for count in (False, True):
            with pytest.raises(error):
                _chain(slabs, 1.0, anchor, params, count)
    # values that overflow on the way (z ~ 1e150 against an anchor of
    # 1e300) fail the final check of the walk itself
    with pytest.raises(NonFiniteStateError):
        _chain([(0.0, 1.0), (0.2, 1.0)], 1.0, 1e300 + 0j, ModelParams(mass=1e-300))


def _gaussian(n=41, amplitude=-4.0, span=6.0, sigma=1.0):
    xs = np.linspace(-0.5 * span, 0.5 * span, n)
    return SampledPotential(tuple(xs), tuple(amplitude * np.exp(-xs * xs / (2.0 * sigma ** 2))), 0.0, 0.0)


def _ends(chain):
    """Z and psi(anchor) / psi(x_to) of a walk's (num, den, r)."""
    num, den, r = chain
    return num / den, r / den


def test_sampled_slab_lists_cover_the_samples():
    pot = SampledPotential((0.0, 0.5, 2.0, 3.0), (1.0, -0.5, 2.0, 2.0), 0.3, -0.1)
    assert _steps(pot, pot.b, True) == [(1.0, -3.0, 0.5), (-0.5, 2.5 / 1.5, 1.5), (2.0, 0.0, 1.0)]
    assert _steps(pot, pot.a, False) == [(2.0, 0.0, -1.0), (2.0, 2.5 / 1.5, -1.5), (-0.5, -3.0, -0.5)]
    # a partial step at an interior point, none past a sample it sits on
    assert _steps(pot, 1.0, True) == [(1.0, -3.0, 0.5), (-0.5, 2.5 / 1.5, 0.5)]
    assert _steps(pot, 1.0, False) == [(2.0, 0.0, -1.0), (2.0, 2.5 / 1.5, -1.0)]
    assert _steps(pot, 0.5, True) == [(1.0, -3.0, 0.5)]
    # the mirror's walk from its right end, without building the mirror
    for p in (pot, PiecewisePotential(0.2, (PotentialSegment(0.0, 0.7, 1.0), PotentialSegment(0.7, 2.0, -1.0)), 0.0)):
        mirror = p.mirrored()
        assert _mirrored_steps(p) == _steps(mirror, mirror.a, False)


@pytest.mark.parametrize("params", [ModelParams(), ModelParams(hbar=0.7, mass=1.9)], ids=["unit", "scaled"])
def test_flat_linear_slabs_match_constant_slabs(params):
    # slope 0: a flat run of samples walks like one constant slab, through
    # thick evanescent and propagating runs and at the level itself
    anchor = 0.8 - 0.3j
    for level, length in ((1.0, 2.0), (3.0, 9.0), (-2.0, 5.0)):
        xs = np.linspace(0.0, length, 7)
        sampled = SampledPotential(tuple(xs), (level,) * 7, 0.0, 0.0)
        stack = PiecewisePotential(0.0, (PotentialSegment(0.0, length, level),), 0.0)
        for e in (0.4, 1.7, level):
            for x_to, from_left in ((length, True), (0.0, False), (0.3 * length, True), (0.3 * length, False)):
                want = _ends(_chain(_steps(stack, x_to, from_left), e, anchor, params))
                got = _ends(_chain(_steps(sampled, x_to, from_left), e, anchor, params))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * abs(w), (level, length, e, x_to, from_left)


def test_linear_chain_matches_chain_many():
    # the scalar sub-slab walk against its array twin, from both ends, at
    # bound and scattering energies and at a sample level (A = 0)
    params = ModelParams()
    for pot in (_gaussian(), _gaussian(n=201, amplitude=2.5, span=8.0), _gaussian(n=9, amplitude=-30.0)):
        es = np.array(sorted({*np.linspace(-3.9, 8.0, 61).tolist(), pot.us[3], pot.us[4]}))
        z = _region_constants_many(es, 0.0, params)[0]
        for slabs, from_left in _walks(pot):
            anchor = np.where(es < 0.0, -z, z) if from_left else z
            num, den, r, ok = _chain_many(slabs, es, anchor, params)
            assert ok.all()
            for i, e in enumerate(es.tolist()):
                want = _ends(_chain(slabs, e, complex(anchor[i]), params))
                got = _ends((num[i], den[i], r[i]))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12 * abs(w), (len(pot.xs), from_left, e)


def test_linear_maps_are_taken_in_bounded_blocks(monkeypatch):
    # 600 long and 5 high: thousands of sub-slabs a walk; with 256 cells a
    # chunk, no series call sees more, and the chained values agree
    params = ModelParams()
    xs = np.linspace(0.0, 600.0, 31)
    pot = SampledPotential(tuple(xs), tuple(5.0 + 0.5 * np.sin(xs)), 0.0, 0.0)
    slabs = _steps(pot, pot.a, False)
    es = np.linspace(0.5, 4.0, 40)
    z = _region_constants_many(es, 0.0, params)[0]
    whole = _chain_many(slabs, es, z, params)
    scalar = [_chain(slabs, e, complex(a), params) for e, a in zip(es.tolist(), z)]
    cells = []
    series = _arrays._series

    def recorded(a, b):
        cells.append(np.broadcast(a, b).size)
        return series(a, b)

    monkeypatch.setattr(_arrays, "_series", recorded)
    monkeypatch.setattr(_arrays, "_BATCH_CELLS", 256)
    split = _chain_many(slabs, es, z, params)
    assert len(cells) > 100 and max(cells) <= 256
    cells.clear()
    split_scalar = [_chain(slabs, e, complex(a), params) for e, a in zip(es.tolist()[:3], z)]
    assert len(cells) > 10 and max(cells) <= 256
    assert whole[3].all() and split[3].all()
    # psi across 600 of barrier falls by e^-1600 or more: the ratios
    # underflow to zero, and only their finiteness and the impedances count
    pairs = [([v[i] for v in split[:3]], [v[i] for v in whole[:3]]) for i in range(len(es))]
    for got, want in pairs + list(zip(split_scalar, scalar)):
        (z_got, r_got), (z_want, r_want) = _ends(got), _ends(want)
        assert abs(z_got - z_want) <= 1e-12 * abs(z_want)
        assert abs(r_got) < 1e-300 and abs(r_want) < 1e-300


@pytest.mark.parametrize(
    "xs, us",
    [((0.0, 1.0, 2.0), (1.0, 1e300, 1.0)), ((0.0, 1e-300, 1.0), (0.0, 1e10, 0.0))],
    ids=["level", "slope"],
)
def test_linear_split_count_overflow_raises_typed(xs, us):
    # a split count that is not finite, or past any walk a run can take
    params = ModelParams()
    pot = SampledPotential(xs, us, 0.0, 0.0)
    for slabs in (_steps(pot, pot.b, True), _steps(pot, pot.a, False)):
        with pytest.raises(NonFiniteStateError):
            _chain(slabs, 0.5, 1.0 + 0j, params)
        ok = _chain_many(slabs, np.array([0.5, 1.0]), 1.0 + 0j, params)[3]
        assert not ok.any()
