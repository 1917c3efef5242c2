"""Closed-form impedance algebra for constant-potential regions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwim import _arrays
from qwim._arrays import _chain_many, _region_constants_many
from qwim.analytic import (
    _MAX_SUBSLABS,
    _SATURATION_CUT,
    EPS_DEGENERATE,
    _chain,
    _constants,
    _cut,
    _divide,
    _from_zeta,
    _linear_steps,
    _linear_twin,
    _psi_growth_entry,
    _real_walk,
    _steps,
    _units,
    barrier_closed_forms,
    layer_transform,
    propagate_impedance,
    psi_growth_factor,
    region_constants,
)
from qwim.errors import (
    DegenerateEnergyError,
    EvanescentIncidenceError,
    NonFiniteStateError,
    TransformPoleError,
)
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment, SampledPotential

from oracles import TOL_ALG, TOL_FLUX, _slab, step_reflection, to_zeta

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


def test_evanescent_saturation_directions():
    # gamma < 0, so tanh(gamma x + phi) -> -1 for x -> +inf: the impedance
    # saturates to -z far right and +z far left of a finite-phase solution
    rc = region_constants(0.5, 1.0)
    z0 = rc.z * math.tanh(0.3)  # phi = 0.3 at x = 0
    np.testing.assert_allclose(
        complex(propagate_impedance(rc, z0, 60.0)), complex(-rc.z), atol=1e-12
    )
    np.testing.assert_allclose(
        complex(propagate_impedance(rc, z0, -60.0)), complex(rc.z), atol=1e-12
    )


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


@pytest.mark.parametrize("params", [ModelParams(), ModelParams(hbar=0.7, mass=1.9)], ids=["unit", "scaled"])
def test_slab_views_match_the_stepwise_slab(params):
    # each view is a one-slab _chain walk in zeta = w Z: bit for bit the
    # closed slab step of the slab's k and i k from w Z, its impedance
    # over w, propagating and evanescent, thick (saturated) slabs
    # included, dx of both signs; the entry-side growth factor is the
    # cosh/sinh form
    rng = np.random.default_rng(47)
    c, w = _units(params)
    saturated = 0
    for _ in range(800):
        e, u = (float(v) for v in rng.uniform(-4.0, 4.0, 2))
        rc = region_constants(e, u, params)
        k = _constants(e, u, c)
        z_at = complex(rng.normal(), rng.normal())
        dx = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        length = abs(dx)
        saturated += abs((rc.gamma * dx).real) > 300.0
        want = _from_zeta(_divide(*_slab(k, 1j * k, to_zeta(z_at, w), dx)[:2]), w)
        assert repr(propagate_impedance(rc, z_at, dx)) == repr(want)
        num, den, f = _slab(k, 1j * k, to_zeta(z_at, w), -length)
        assert repr(layer_transform(rc, z_at, length)) == repr(_from_zeta(_divide(num, den), w))
        assert repr(psi_growth_factor(rc, z_at, length)) == repr(_divide(f, den))
        g = rc.gamma * length
        if abs(g.real) < 30.0:
            direct = cmath.cosh(g) + (z_at / rc.z) * cmath.sinh(g)
            assert abs(_psi_growth_entry(rc, z_at, length) - direct) <= 1e-12 * abs(direct)
    assert saturated > 30
    # an infinite phase k dx is the walker's typed error, not cmath's
    # raw ValueError
    with pytest.raises(NonFiniteStateError):
        propagate_impedance(region_constants(1e300, 0.0, params), 1.0, 1e200)


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
        (_steps(pot, pot.a if from_left else pot.b, x_to), from_left)
        for x_to, from_left in ((pot.b, True), (pot.a, False), (inner, True), (inner, False))
    ]


def test_chain_matches_chain_many(random_stack_instances):
    # the scalar walker against its array twin on the conftest stacks and
    # on thick (saturated) slabs, from both ends, at bound (E < 0) and
    # scattering energies, at every level (the linear limit) and beside it
    c = _units(ModelParams())[0]
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
        z = _region_constants_many(es, 0.0, c)[0]  # the leads' k
        # (num, den) compare as one vector, den scaled by a wavenumber
        scale = np.sqrt(c * np.max([np.abs(es - u) for u in levels], axis=0))
        for slabs, from_left in _walks(pot):
            anchor = np.where(es < 0.0, -z, z) if from_left else z
            num, den, r, ok = _chain_many(slabs, es, anchor, c)
            want = np.array([_chain(slabs, e, complex(a), c) for e, a in zip(es.tolist(), anchor)])
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
    c = _units(ModelParams())[0]
    # an anchor that puts an exact psi-node at the first interface, and a
    # level whose k overflows
    node = PiecewisePotential(0.0, (PotentialSegment(0.0, 0.7, -1.0), PotentialSegment(0.7, 1.5, 0.4)), 0.0)
    z = _constants(1.0, -1.0, c)
    gamma = 1j * z
    c1, c2 = cmath.cosh(gamma * 0.7), cmath.sinh(gamma * 0.7)
    z_node = -z * c1 / c2
    assert _chain(_steps(node, node.a, 0.7), 1.0, z_node, c)[1] == 0
    deep = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 0.5), PotentialSegment(1.0, 2.0, -1e308)), 0.0)
    es = np.array([0.25, 1.0, 1.5])
    for pot, anchor, error in (
        (node, z_node, TransformPoleError),
        (deep, 0.3 - 0.2j, NonFiniteStateError),
    ):
        raised = 0
        for slabs, _ in _walks(pot):
            ok = _chain_many(slabs, es, anchor, c)[3]
            for e, good in zip(es.tolist(), ok.tolist()):
                try:
                    _chain(slabs, e, anchor, c)
                except error:
                    raised += 1
                    assert not good, (pot, slabs, e)
                else:
                    assert good, (pot, slabs, e)
        assert raised > 0


def _masked_slabs_many(slabs, es, z, c):
    """``_arrays._slabs_many`` with the saturated form masked in over
    every entry (g cut to 0 where it saturates) and the recurrence on
    fresh arrays: the form that the patched pass must match bit for bit."""
    u, dx = slabs
    with np.errstate(all="ignore"):
        zs, degenerate = _region_constants_many(es, u, c)
        g = (1j * zs) * dx
        sat = np.abs(g.real) > _SATURATION_CUT
        th = np.sign(g.real) * sat
        g_cut = np.where(sat, 0.0, g)
        c1 = np.where(sat, 1.0, np.cosh(g_cut))
        c2 = np.where(sat, th, np.sinh(g_cut))
        zc1, zc2 = zs * c1, zs * c2
        f = np.where(sat, 2.0 * zs * np.exp(-th * g), zs)
        if degenerate.any():
            zs, c1, zc1, f = (np.where(degenerate, 1.0, v) for v in (zs, c1, zc1, f))
            zc2 = np.where(degenerate, 0.0, zc2)
            c2 = np.where(degenerate, 1j * dx, c2)
        num, den, r = z, np.ones_like(z), np.ones_like(z)
        for i in range(len(zs)):
            z, ratio = num / den, r / den
            num = zs[i] * (z * c1[i] + zc2[i])
            den = zc1[i] + z * c2[i]
            r = ratio * f[i]
        ok = np.isfinite(num) & np.isfinite(den) & np.isfinite(r)
    return num, den, r, ok


def _slab_blocks(c):
    """Blocks (slabs, es, z) of the array slab pass that mix ordinary
    entries with saturated (|Re g| > _SATURATION_CUT) and degenerate ones
    (E at a level and 1e-13 beside it): slab lists on the energy axis
    (``_chain_many``'s layout; the thick stacks of
    ``test_chain_matches_chain_many``) and one slab per entry on the
    batch axis (``_bridge_many``'s)."""
    blocks = []
    for length in (250.0, 400.0):
        pot = _stack([(0.0, length, 1.0), (length, length + 1.0, -2.0),
                      (length + 1.0, 2.0 * length + 1.0, 1.0)])
        es = np.array(sorted({*np.linspace(-3.5, 8.0, 47).tolist(), 1.0, 1.0 + 1e-13, -2.0, -2.0 + 1e-13}))
        z = _region_constants_many(es, 0.0, c)[0]
        for slabs, from_left in _walks(pot):
            rows = np.array(slabs, dtype=float).reshape(-1, 2).T[..., None]
            blocks.append((rows, es, np.where(es < 0.0, -z, z) if from_left else z))
    rng = np.random.default_rng(40)
    e = 0.7
    plain = [(u, dx) for u, dx in zip(rng.uniform(-3.0, 3.0, 12), rng.uniform(-2.0, 2.0, 12))]
    sat = [(e + 2.0, 400.0), (e + 2.0, -400.0), (e + 5.0, 150.0), (e + 1.0, -250.0)]
    degenerate = [(e, 0.5), (e + 1e-13, -0.3), (e - 1e-13, 1.2), (e, -2.0)]
    entries = plain[:4] + sat[:2] + plain[4:8] + degenerate + plain[8:] + sat[2:]
    z = rng.uniform(-2.0, 2.0, len(entries)) + 1j * rng.uniform(-2.0, 2.0, len(entries))
    blocks.append((np.array(entries).T[:, None, :], e, z))
    return blocks


def _entry_kinds(slabs, es, c):
    """(saturated, degenerate) of each entry of a block: whether some
    slab takes the saturated form, or the linear step at its level."""
    u, dx = slabs
    with np.errstate(all="ignore"):
        degenerate = np.abs(es - u) <= EPS_DEGENERATE * np.maximum(np.abs(es), np.abs(u))
        g = 1j * np.sqrt(c * (es - u) + 0j) * dx
        sat = (np.abs(g.real) > _SATURATION_CUT) & ~degenerate
    return sat.any(axis=0), degenerate.any(axis=0)


def _select(block, keep):
    """The block of the entries ``keep`` picks."""
    slabs, es, z = block
    if np.ndim(es):  # energies on the entry axis
        return slabs, es[keep], z[keep]
    return slabs[..., keep], es, z[keep]


def _bits(out):
    return [np.ascontiguousarray(a).tobytes() for a in out]


def test_slab_pass_patches_only_its_own_entries():
    # the saturated and degenerate forms patch in only where an entry
    # takes them: every entry gives the bits of the masked form, and a
    # block cut down to the ordinary (or saturated, or degenerate, or no)
    # entries gives the bits that the mixed block gives there
    c = _units(ModelParams())[0]
    kinds = set()
    for block in _slab_blocks(c):
        got = _arrays._slabs_many(*block, c)
        assert _bits(got) == _bits(_masked_slabs_many(*block, c))
        sat, degenerate = _entry_kinds(block[0], block[1], c)
        plain = ~sat & ~degenerate
        assert plain.any() and (sat.any() or degenerate.any())
        kinds |= {kind for kind, mask in (("sat", sat), ("degenerate", degenerate)) if mask.any()}
        for keep in (plain, sat & ~degenerate, degenerate, np.zeros_like(plain)):
            part = _select(block, keep)
            out = _arrays._slabs_many(*part, c)
            assert _bits(out) == _bits(a[keep] for a in got)
            assert _bits(out) == _bits(_masked_slabs_many(*part, c))
    assert kinds == {"sat", "degenerate"}


def test_slab_pass_never_writes_into_its_inputs(monkeypatch):
    # every array the pass is handed, read-only views included, holds
    # its bits after each of its four entry points returns
    c = _units(ModelParams())[0]
    slabs_many, writeable = _arrays._slabs_many, []

    def checked(*args):
        before = _bits(args[:3])
        out = slabs_many(*args)
        assert _bits(args[:3]) == before
        writeable.append(args[2].flags.writeable)
        return out

    monkeypatch.setattr(_arrays, "_slabs_many", checked)
    for block in _slab_blocks(c):
        frozen = [np.array(a) for a in block]
        for a in frozen:
            a.flags.writeable = False
        checked(*frozen, c)
    pot = _stack([(0.0, 250.0, 1.0), (250.0, 251.0, -2.0), (251.0, 252.5, 0.4)], 0.0, 0.3)
    es = np.array([-2.0, -1.0, 0.3, 0.3 + 1e-13, 0.7, 1.0, 2.5])
    for slabs, _ in _walks(pot):
        for anchor in (np.sqrt(c * es + 0j), 1.0 - 0.5j):
            args = [slabs, es, anchor]
            before = _bits(np.asarray(a) for a in args)
            _chain_many(*args, c)
            assert _bits(np.asarray(a) for a in args) == before
    assert not all(writeable)  # the broadcast anchor of _chain_many
    rng = np.random.default_rng(41)
    xs = np.array(sorted({*np.linspace(pot.a - 1.0, pot.b + 1.0, 31).tolist(), *pot.interfaces()}))
    zs = rng.uniform(0.1, 2.0, len(xs)) + 1j * rng.uniform(-1.0, 1.0, len(xs))
    points = rng.uniform(pot.a - 1.0, pot.b + 1.0, 50)
    for e in (0.45, 1.0, 2.5):
        args = [xs, zs, points]
        before = _bits(args)
        for call in (
            lambda: _arrays._bridge_many(pot, e, xs, zs, c),
            lambda: _arrays._read_many(pot, e, xs, zs, points, c),
            lambda: _arrays._read_many(pot, e, xs, zs, points, c, rightward=True),
        ):
            count = len(writeable)
            call()
            assert len(writeable) == count + 1
        assert _bits(args) == before


def _stack(segments, left=0.0, right=0.0):
    return PiecewisePotential(left, tuple(PotentialSegment(*s) for s in segments), right)


def _stepwise_chain(slabs, e, z_anchor, c):
    """A constant-slab walk in zeta, with c = 2m/hbar^2, one
    ``_constants`` / ``_slab`` / ``_divide`` step at a time, with the
    psi-nodes it crosses: (num, den, r, nodes).
    A propagating slab turns the Pruefer angle by k |dx| from its start
    angle; any other slab holds one node at most, where psi changes sign
    across it.  A list of sub-slab maps (kfp, gp, f, gk) is walked one
    ``_divide`` at a time, each map holding one node at most."""
    num, den, r, nodes = z_anchor, 1.0, 1.0, 0
    if slabs and len(slabs[0]) == 4:
        for kfp, gp, f, gk in slabs:
            z_at, r = _divide(num, den), r / den
            num, den = kfp + gp * z_at, f + gk * z_at
            nodes += den.real <= 0.0
        return num, den, r, nodes
    for u, dx in slabs:
        z_at, ratio = _divide(num, den), r / den
        try:
            z = _constants(e, u, c)
        except DegenerateEnergyError:
            num, den, r = z_at, 1.0 + z_at * (1j * dx), ratio
            nodes += den.real <= 0.0
            continue
        gamma = 1j * z
        num, den, f = _slab(z, gamma, z_at, dx)
        r = ratio * f
        if e > u:
            k, slope = gamma.imag, math.copysign(1.0, dx) * (1j * z_at).real
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
    # bit on (num, den, r): propagating, evanescent, thick (saturated) and
    # slab-level steps, from both ends, with real (bound) and complex
    # anchors; and the real walk of a bound anchor crosses the nodes the
    # stepwise walk counts
    c = _units(params)[0]
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
                saturated += any(math.sqrt(c * max(u - e, 0.0)) * abs(dx) > 300.0 for u, dx in slabs)
                tail = math.sqrt(abs(e) + 0.1)
                for anchor in (0.8 - 0.3j, (-1j if from_left else 1j) * tail):
                    want = _stepwise_chain(slabs, e, anchor, c)
                    assert _bits(_chain(slabs, e, anchor, c)) == _bits(want[:3])
                    checked += 1
                # want is the bound anchor's walk; the real walk starts the
                # same solution at dpsi/ds / psi = i zeta along the walk
                nodes = _real_walk(slabs, e, tail, c)[2]
                assert nodes == want[3], (pot, from_left, e)
                crossed += nodes
    assert checked > 8000 and saturated > 50 and crossed > 1000


def test_inline_walk_raises_as_stepwise_walk():
    # a psi-node at an interface before the end and a level whose z
    # overflows raise the same typed errors on both walks
    c = _units(ModelParams())[0]
    node = _stack([(0.0, 0.7, -1.0), (0.7, 1.5, 0.4)])
    z = _constants(1.0, -1.0, c)
    gamma = 1j * z
    z_node = -z * cmath.cosh(gamma * 0.7) / cmath.sinh(gamma * 0.7)
    deep = _stack([(0.0, 1.0, 0.5), (1.0, 2.0, -1e308)])
    for slabs, anchor, error in (
        (_steps(node, node.a, node.b), z_node, TransformPoleError),
        (_steps(deep, deep.a, deep.b), 0.3 - 0.2j, NonFiniteStateError),
        (_steps(deep, deep.b, deep.a), 0.3 - 0.2j, NonFiniteStateError),
    ):
        with pytest.raises(error):
            _stepwise_chain(slabs, 1.0, anchor, c)
        with pytest.raises(error):
            _chain(slabs, 1.0, anchor, c)
    # the real walk counts that node (psi = sin(k (0.7 - x)) / sin(0.7 k)
    # crosses 0 at the interface and once in all), and raises on the
    # overflowing level whatever its anchor
    y_node = (1j * z_node).real
    assert _real_walk(_steps(node, node.a, node.b), 1.0, y_node, c)[2] == 1
    for slabs in (_steps(deep, deep.a, deep.b), _steps(deep, deep.b, deep.a)):
        for y in (0.0, 0.3, -1e300):
            with pytest.raises(NonFiniteStateError):
                _real_walk(slabs, 1.0, y, c)
    # values that overflow on the way (k ~ 1e150 against an anchor of
    # 1e300) fail the final check of the walk itself
    with pytest.raises(NonFiniteStateError):
        _chain([(0.0, 1.0), (0.2, 1.0)], 1.0, 1e300 + 0j, 2e300)


def test_real_walk_keeps_a_psi_that_only_decays():
    # psi = exp(-2 s) across a barrier 200 long at kappa = 2: the growing
    # part is exactly 0 and exp(-2 kappa h) underflows, and the step
    # still ends on psi's own direction, dpsi/ds = -2 psi, not on 0 / 0
    p, d, nodes = _real_walk([(3.0, 200.0)], 1.0, -2.0, _units(ModelParams())[0])
    assert p > 0.0 and d == -2.0 * p and nodes == 0


def _angle(u, v):
    """The sine of the angle between the 2-vectors u and v."""
    return abs(u[0] * v[1] - u[1] * v[0]) / (math.hypot(*u) * math.hypot(*v))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    sampled=st.booleans(),
    cells=st.lists(
        st.tuples(st.one_of(st.floats(0.01, 3.0), st.floats(50.0, 400.0)), st.floats(-20.0, 5.0)),
        min_size=1, max_size=5,
    ),
    lead=st.floats(0.0, 5.0),
    where=st.one_of(
        st.floats(0.0, 1.0),
        st.tuples(st.integers(0, 5), st.sampled_from([-1, 0, 1])),
    ),
    from_left=st.booleans(),
    to=st.floats(0.05, 1.0),
    scaled=st.booleans(),
)
# thick sampled cells: a flat run at 3 over 200, walked at E = 0.5
@example(sampled=True, cells=[(1.0, -2.0), (200.0, 3.0), (1.0, 3.0)], lead=1.0, where=0.7,
         from_left=True, to=1.0, scaled=False)
def test_real_walk_matches_chain_and_stepwise_count(sampled, cells, lead, where, from_left, to, scaled):
    # the real walk against the complex chain of the same anchor, on
    # piecewise lists (thick, saturated and slab-level slabs) and sampled
    # ones, from either end, at energies between the floor and the
    # starting lead (at its level the threshold anchor 0), at a level and
    # one ulp beside it: dpsi/ds / psi is i zeta = i num / den along the
    # walk to rounding, and the nodes are the stepwise walk's
    c = _units(ModelParams(hbar=0.7, mass=1.9) if scaled else ModelParams())[0]
    x, points = 0.0, [0.0]
    for length, _ in cells:
        x += length
        points.append(x)
    levels = [u for _, u in cells]
    if sampled:
        # the cells' levels are the samples, one more at the end
        pot = SampledPotential(tuple(points), tuple(levels + levels[-1:]), lead, lead)
    else:
        pot = _stack([(x0, x1, u) for x0, x1, u in zip(points, points[1:], levels)], lead, lead)
    floor = min(levels)
    assume(floor < lead)
    if isinstance(where, float):
        e = floor + where * (lead - floor)
    else:
        us = sorted({lead, *levels})
        u = us[where[0] % len(us)]
        e = u if where[1] == 0 else math.nextafter(u, where[1] * math.inf)
    assume(floor <= e <= lead)
    reach = to * (pot.b - pot.a)
    slabs = _steps(pot, pot.a, pot.a + reach) if from_left else _steps(pot, pot.b, pot.b - reach)
    tail = math.sqrt(c * (lead - e))
    z_anchor = -1j * tail if from_left else 1j * tail
    p, d, nodes = _real_walk(slabs, e, tail, c)
    maps = list(_linear_steps(slabs, e, c)[1]) if sampled else slabs
    try:
        num, den, _ = _chain(slabs, e, z_anchor, c)
        want = _stepwise_chain(maps, e, z_anchor, c)[3]
    except TransformPoleError:
        # a psi-node exactly on an interior step end: the complex walks
        # stop there, where the real walk goes on
        return
    y = (1j * num / den).real if den else math.inf
    y = y if from_left else -y
    # wavenumber scale of the walk, and the psi, dpsi/ds vectors at its end
    sigma = max(math.sqrt(c * max(abs(e - u) for u in [lead, *levels])), 1.0 / x)
    chain_end = (0.0, 1.0) if math.isinf(y) else (1.0, y / sigma)
    assert _angle((p, d / sigma), chain_end) <= 1e-12
    assert nodes == want


def _gaussian(n=41, amplitude=-4.0, span=6.0, sigma=1.0):
    xs = np.linspace(-0.5 * span, 0.5 * span, n)
    return SampledPotential(tuple(xs), tuple(amplitude * np.exp(-xs * xs / (2.0 * sigma ** 2))), 0.0, 0.0)


def _ends(chain):
    """Z and psi(anchor) / psi(x_to) of a walk's (num, den, r)."""
    num, den, r = chain
    return num / den, r / den


def test_sampled_slab_lists_cover_the_samples():
    pot = SampledPotential((0.0, 0.5, 2.0, 3.0), (1.0, -0.5, 2.0, 2.0), 0.3, -0.1)
    inner = [(1.0, -3.0, 0.5), (-0.5, 2.5 / 1.5, 1.5), (2.0, 0.0, 1.0)]
    back = [(2.0, 0.0, -1.0), (2.0, 2.5 / 1.5, -1.5), (-0.5, -3.0, -0.5)]
    assert _steps(pot, pot.a, pot.b) == inner
    assert _steps(pot, pot.b, pot.a) == back
    # a partial step at an interior point, none past a sample it sits on
    assert _steps(pot, pot.a, 1.0) == [(1.0, -3.0, 0.5), (-0.5, 2.5 / 1.5, 0.5)]
    assert _steps(pot, pot.b, 1.0) == [(2.0, 0.0, -1.0), (2.0, 2.5 / 1.5, -1.0)]
    assert _steps(pot, pot.a, 0.5) == [(1.0, -3.0, 0.5)]
    # from an interior point, the first step starts on its line
    assert _steps(pot, 1.25, 2.5) == [(-0.5 + 2.5 / 1.5 * 0.75, 2.5 / 1.5, 0.75), (2.0, 0.0, 0.5)]
    assert _steps(pot, 1.25, -1.0) == [
        (2.0 + 2.5 / 1.5 * -0.75, 2.5 / 1.5, -0.75), (-0.5, -3.0, -0.5), (0.3, 0.0, -1.0)
    ]
    # past a or b, a lead is one flat slab at its level
    assert _steps(pot, -1.0, 4.0) == [(0.3, 0.0, 1.0), *inner, (-0.1, 0.0, 1.0)]
    assert _steps(pot, 4.5, -0.25) == [(-0.1, 0.0, -1.5), *back, (0.3, 0.0, -0.25)]
    assert _steps(pot, -2.0, -0.5) == [(0.3, 0.0, 1.5)]
    assert _steps(pot, 5.0, 3.5) == [(-0.1, 0.0, -1.5)]
    assert _steps(pot, 3.5, 4.0) == [(-0.1, 0.0, 0.5)]
    stack = PiecewisePotential(0.2, (PotentialSegment(0.0, 0.7, 1.0), PotentialSegment(0.7, 2.0, -1.0)), 0.0)
    assert _steps(stack, -1.0, 2.5) == [(0.2, 1.0), (1.0, 0.7), (-1.0, 2.0 - 0.7), (0.0, 0.5)]
    assert _steps(stack, 1.0, -0.5) == [(-1.0, 0.7 - 1.0), (1.0, -0.7), (0.2, -0.5)]
    # the mirror's walk from its right end is the walk from a with every
    # step and slope negated, and with Z negated it carries the same
    # values: right incidence builds no mirror
    c = _units(ModelParams())[0]
    for p in (pot, stack):
        mirror = p.mirrored()
        own, theirs = _steps(p, p.a, p.b), _steps(mirror, mirror.b, mirror.a)
        assert [(s[0], *(-v for v in s[1:])) for s in own] == theirs
        for e in (-0.7, 0.4, 1.9, 3.3):
            z = _constants(e, p.left_level, c)
            num, den, r = _chain(own, e, -z, c)
            assert (-num, den, r) == _chain(theirs, e, z, c)


def _drawn_potential(pieces, last, leads, start, sampled):
    """Segments of the drawn (length, level) pieces from ``start``, or
    samples at their ends with ``last`` the final level, between the
    drawn lead levels."""
    xs = (start + np.concatenate(([0.0], np.cumsum([length for length, _ in pieces])))).tolist()
    us = [u for _, u in pieces]
    if sampled:
        return SampledPotential(tuple(xs), (*us, last), *leads)
    return PiecewisePotential(leads[0], tuple(map(PotentialSegment, xs, xs[1:], us)), leads[1])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8),
    last=st.floats(-3.0, 3.0),
    leads=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    start=st.floats(-5.0, 5.0),
    sampled=st.booleans(),
    ends=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
)
# a walk so short that slab[-1] * walk underflows to 0.0
@example(pieces=[(1.0, 0.0)], last=0.0, leads=(0.0, 0.0), start=0.0, sampled=False,
         ends=(0.0, 3.3191675557788835e-212))
def test_slab_lists_walk_between_any_two_points(pieces, last, leads, start, sampled, ends):
    # from and to points inside [a, b] and past either end: the steps share
    # the walk's direction and sum to its length, and each slab's U inside
    # it (at its midpoint) is u_at there
    pot = _drawn_potential(pieces, last, leads, start, sampled)
    us = [u for _, u in pieces]
    x_from, x_to = (pot.a + t * (pot.b - pot.a) for t in ends)
    assume(x_from != x_to)
    slabs = _steps(pot, x_from, x_to)
    walk = x_to - x_from
    assert all(
        len(slab) == (3 if sampled else 2) and slab[-1] != 0.0 and (slab[-1] > 0.0) == (walk > 0.0)
        for slab in slabs
    )
    assert abs(sum(slab[-1] for slab in slabs) - walk) <= 1e-13 * (1.0 + abs(x_from) + abs(x_to))
    scale = 1.0 + max(map(abs, (*us, last, *leads)))
    x = x_from
    for slab in slabs:
        dx = slab[-1]
        mid = x + 0.5 * dx
        if min(x, x + dx) < mid < max(x, x + dx):
            u_mid = slab[0] + slab[1] * (mid - x) if sampled else slab[0]
            assert abs(u_mid - pot.u_at(mid)) <= 1e-11 * scale, (slab, mid)
        x += dx


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    pieces=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8),
    last=st.floats(-3.0, 3.0),
    leads=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    start=st.floats(-5.0, 5.0),
    sampled=st.booleans(),
    # a point at a fraction of [a, b] (past a or b in a lead), on the
    # i-th join or sample abscissa (a and b among them), or repeated
    picks=st.lists(st.one_of(st.floats(-0.5, 1.5), st.integers(0, 8), st.none()), max_size=12),
    backward=st.booleans(),
)
# pairs after the first in a lead at level -0.0 start at -0.0 too
@example(pieces=[(1.0, 1.0)], last=2.0, leads=(-0.0, -0.0), start=0.0, sampled=True,
         picks=[-0.5, -0.25, -0.1, 0.5, 1.2, 1.4], backward=False)
def test_cut_is_bitwise_one_walk_per_pair(pieces, last, leads, start, sampled, picks, backward):
    # one pass through monotone points, either way, gives each pair the
    # list of its own walk bit for bit (repr is exact and tells -0.0 from
    # 0.0), and none where a point repeats
    pot = _drawn_potential(pieces, last, leads, start, sampled)
    edges = pot.interfaces()
    points = []
    for pick in picks:
        if pick is None:
            points.append(points[-1] if points else pot.b)
        elif isinstance(pick, int):
            points.append(edges[pick % len(edges)])
        else:
            points.append(pot.a + pick * (pot.b - pot.a))
    points.sort(reverse=backward)
    cut = _cut(pot, points)
    assert repr(cut) == repr([_steps(pot, p, q) for p, q in zip(points, points[1:])])
    assert all(steps == [] for steps, p, q in zip(cut, points, points[1:]) if p == q)


@pytest.mark.parametrize("d", [5e-13, -5e-13], ids=["overlap", "gap"])
def test_a_join_within_join_tol_is_one_float_for_every_walk(d):
    # segments may overlap or gap by up to JOIN_TOL: they meet at one
    # float, 0.5 x_end + 0.5 x_start, so a walk that ends near the join
    # ends on the same side of it whichever way it comes, u_at changes
    # value there, and the mirror's join is this one negated
    pot = PiecewisePotential(0.0, (PotentialSegment(0.0, 1.0, 2.0), PotentialSegment(1.0 - d, 2.0, -1.0)),
                             0.0)
    join = 0.5 * 1.0 + 0.5 * (1.0 - d)
    assert pot.cells == ((0.0, join, 2.0, 2.0), (join, 2.0, -1.0, -1.0))
    assert pot.interfaces() == [0.0, join, 2.0]
    assert pot.u_at(math.nextafter(join, -math.inf)) == 2.0 and pot.u_at(join) == -1.0
    assert pot.mirrored().cells == ((-2.0, -join, -1.0, -1.0), (-join, -0.0, 2.0, 2.0))
    before, after = join - 2e-13, join + 2e-13
    assert _steps(pot, 0.5, before) == [(2.0, before - 0.5)]
    assert _steps(pot, 1.5, before) == [(-1.0, join - 1.5), (2.0, before - join)]
    assert _steps(pot, 0.5, after) == [(2.0, join - 0.5), (-1.0, after - join)]
    assert _steps(pot, 1.5, after) == [(-1.0, after - 1.5)]
    for x in (before, after):
        assert _cut(pot, [0.5, x, 1.5]) == [_steps(pot, 0.5, x), _steps(pot, x, 1.5)]
        assert _steps(pot, 1.5, 0.5) == [(u, -dx) for u, dx in reversed(_steps(pot, 0.5, 1.5))]


@pytest.mark.parametrize("params", [ModelParams(), ModelParams(hbar=0.7, mass=1.9)], ids=["unit", "scaled"])
def test_flat_linear_slabs_match_constant_slabs(params):
    # slope 0: a flat run of samples walks like one constant slab, through
    # thick evanescent and propagating runs and at the level itself
    c = _units(params)[0]
    anchor = 0.8 - 0.3j
    for level, length in ((1.0, 2.0), (3.0, 9.0), (-2.0, 5.0)):
        xs = np.linspace(0.0, length, 7)
        sampled = SampledPotential(tuple(xs), (level,) * 7, 0.0, 0.0)
        stack = PiecewisePotential(0.0, (PotentialSegment(0.0, length, level),), 0.0)
        for e in (0.4, 1.7, level):
            for x_to, from_left in ((length, True), (0.0, False), (0.3 * length, True), (0.3 * length, False)):
                want = _ends(_chain(_steps(stack, 0.0 if from_left else length, x_to), e, anchor, c))
                got = _ends(_chain(_steps(sampled, 0.0 if from_left else length, x_to), e, anchor, c))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * abs(w), (level, length, e, x_to, from_left)


def test_linear_chain_matches_chain_many():
    # the scalar sub-slab walk against its array twin, from both ends, at
    # bound and scattering energies and at a sample level (A = 0)
    c = _units(ModelParams())[0]
    for pot in (_gaussian(), _gaussian(n=201, amplitude=2.5, span=8.0), _gaussian(n=9, amplitude=-30.0)):
        es = np.array(sorted({*np.linspace(-3.9, 8.0, 61).tolist(), pot.us[3], pot.us[4]}))
        z = _region_constants_many(es, 0.0, c)[0]
        for slabs, from_left in _walks(pot):
            anchor = np.where(es < 0.0, -z, z) if from_left else z
            num, den, r, ok = _chain_many(slabs, es, anchor, c)
            assert ok.all()
            for i, e in enumerate(es.tolist()):
                want = _ends(_chain(slabs, e, complex(anchor[i]), c))
                got = _ends((num[i], den[i], r[i]))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12 * abs(w), (len(pot.xs), from_left, e)


def test_linear_maps_are_taken_in_bounded_blocks(monkeypatch):
    # 600 long and 5 high: thousands of sub-slabs a walk; with 256 cells a
    # chunk, no series call sees more, and the chained values agree
    c = _units(ModelParams())[0]
    xs = np.linspace(0.0, 600.0, 31)
    pot = SampledPotential(tuple(xs), tuple(5.0 + 0.5 * np.sin(xs)), 0.0, 0.0)
    slabs = _steps(pot, pot.b, pot.a)
    es = np.linspace(0.5, 4.0, 40)
    z = _region_constants_many(es, 0.0, c)[0]
    whole = _chain_many(slabs, es, z, c)
    scalar = [_chain(slabs, e, complex(a), c) for e, a in zip(es.tolist(), z)]
    cells = []
    series = _arrays._series

    def recorded(a, b):
        cells.append(np.broadcast(a, b).size)
        return series(a, b)

    monkeypatch.setattr(_arrays, "_series", recorded)
    monkeypatch.setattr(_arrays, "_BATCH_CELLS", 256)
    split = _chain_many(slabs, es, z, c)
    assert len(cells) > 100 and max(cells) <= 256
    cells.clear()
    split_scalar = [_chain(slabs, e, complex(a), c) for e, a in zip(es.tolist()[:3], z)]
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
    c = _units(ModelParams())[0]
    pot = SampledPotential(xs, us, 0.0, 0.0)
    for slabs in (_steps(pot, pot.a, pot.b), _steps(pot, pot.b, pot.a)):
        with pytest.raises(NonFiniteStateError):
            _chain(slabs, 0.5, 1.0 + 0j, c)
        with pytest.raises(NonFiniteStateError):
            _linear_twin(slabs, 0.5, c)
        ok = _chain_many(slabs, np.array([0.5, 1.0]), 1.0 + 0j, c)[3]
        assert not ok.any()


def _twin_potentials():
    """Seeded sampled potentials of the benchmark's Riccati shapes: bumps
    and wells of height -3..3 and wells 2..10 deep on 21..201 samples
    over a span of 4..8, and a line rising by 40 over 1e-3."""
    rng = np.random.default_rng(20261019)
    pots = []
    for amplitude in (*rng.uniform(-3.0, 3.0, 6), *-rng.uniform(2.0, 10.0, 4)):
        n = 21 + int(181 * rng.uniform())
        span, sigma = rng.uniform(4.0, 8.0), rng.uniform(0.5, 1.5)
        xs = np.linspace(-0.5 * span, 0.5 * span, n)
        us = amplitude * np.exp(-xs * xs / (2.0 * sigma * sigma))
        pots.append(SampledPotential(tuple(xs), tuple(us), 0.0, 0.0))
    pots.append(SampledPotential((0.0, 1.0, 1.001, 2.0), (0.0, 0.0, 40.0, 40.0), 0.0, 0.0))
    return pots


def _twin_walks(pot, e, c):
    """Walks at e with their physical anchors: from the far lead to the
    entry edge, both ways and from past both ends, above the leads; from
    the decaying tails to a probe below them."""
    z = _constants(e, 0.0, c)
    if e > 0.0:
        return [(_steps(pot, pot.b, pot.a), z), (_steps(pot, pot.a, pot.b), -z),
                (_steps(pot, pot.b + 1.0, pot.a - 1.0), z)]
    probe = pot.a + 0.6 * (pot.b - pot.a)
    return [(_steps(pot, pot.a, probe), -z), (_steps(pot, pot.b, probe), z),
            (_steps(pot, pot.a - 1.0, probe), -z)]


def _twin_gaps(slabs, e, anchor, c):
    """The twin against numpy's series on one walk: (counts agree, the
    largest gap of each map column in ulps of the column's largest entry,
    the gap of Z at the walk's end relative to the larger of |Z| and the
    lead's |z|, that of the psi ratio relative to it, the sub-slabs
    walked)."""
    eps = np.finfo(float).eps
    count, twin = _linear_twin(slabs, e, c)
    want_count, maps = _arrays._linear_steps(slabs, e, c)
    twin, maps = np.array(list(twin)), np.array(list(maps))
    columns = np.max(np.abs(twin - maps), axis=0) / (eps * np.max(np.abs(maps), axis=0))
    (z1, p1), (z2, p2) = (_ends(_chain(list(m), e, anchor, c)) for m in (twin, maps))
    dz = abs(z1 - z2) / max(abs(z2), abs(anchor))
    return count == want_count, columns, dz, abs(p1 - p2) / abs(p2), len(maps)


@pytest.mark.parametrize("params", [ModelParams(), ModelParams(hbar=0.7, mass=1.9)], ids=["unit", "scaled"])
def test_linear_twin_matches_numpys_series(params):
    # the plain-Python sub-slab maps that cold walks take, against numpy's:
    # scattering energies, at a sample level (A = 0 there) and just beside
    # it, far above, and for the wells two bound energies; the same split
    # everywhere, maps within a few ulps, and the chain's Z and psi ratio
    # within the rounding of the maps walked: an ulp a sub-slab, and 3e-14
    # at least (the largest gap here is 1.7e-14, over 89 sub-slabs)
    c = _units(params)[0]
    for pot in _twin_potentials():
        level = pot.us[(len(pot.us) - 1) * 2 // 3]
        energies = [0.7, 3.1, level, level * (1.0 + 1e-9) + 1e-12, 300.0]
        if min(pot.us) < 0.0:
            energies += [0.5 * min(pot.us), 0.9 * min(pot.us)]
        for e in energies:
            for slabs, anchor in _twin_walks(pot, e, c):
                same, columns, dz, dpsi, walked = _twin_gaps(slabs, e, anchor, c)
                tol = 2e-16 * max(150, walked)
                assert same and max(columns) <= 4.0 and dz <= tol and dpsi <= tol, (
                    len(pot.us), e, columns, dz, dpsi, walked
                )


def test_linear_twin_on_a_deep_steep_line():
    # a well of -1e4 reached by a line 1e-6 wide: 141 identical sub-slabs
    # at E = 0.7 repeat one map's rounding, the twin's and numpy's each
    # their own.  Against a 200-bit walk of the same split, over these
    # three walks, numpy's Z and psi ratio are off by up to 8.4e-15 and
    # 2.5e-14, the twin's by up to 3.2e-13 and 3.7e-13; the maps agree to
    # a few ulps
    c = _units(ModelParams())[0]
    pot = SampledPotential((0.0, 1.0, 1.000001, 2.0), (0.0, 0.0, -1e4, -1e4), 0.0, 0.0)
    for slabs, anchor in _twin_walks(pot, 0.7, c):
        same, columns, dz, dpsi, walked = _twin_gaps(slabs, 0.7, anchor, c)
        assert same and max(columns) <= 4.0 and dz <= 1e-12 and dpsi <= 1e-12
        assert walked > 141


def test_linear_twin_split_counts_at_the_cap():
    # a flat slab split into exactly _MAX_SUBSLABS sub-slabs walks; one
    # more raises, from numpy's series and from the twin alike, before a
    # map is made
    c = _units(ModelParams())[0]
    e = 0.5
    for n, raises in ((_MAX_SUBSLABS, False), (_MAX_SUBSLABS + 1, True)):
        # dx sqrt(2 (u - e)) = n, on a unit-length slab
        slabs = [(e + 0.5 * float(n) ** 2, 0.0, 1.0)]
        for split in (_linear_twin, _arrays._linear_steps):
            if raises:
                with pytest.raises(NonFiniteStateError):
                    split(slabs, e, c)
            else:
                assert sum(split(slabs, e, c)[0]) == n
