"""The in-package Brent routines against scipy.optimize, bit for bit."""

import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import qwim._optimize
from qwim import spectral, xcheck
from qwim._optimize import brentq, minimize_scalar
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment
from qwim.riccati import IntegrationConfig
from qwim.specfile import load_spec
from qwim.spectral import _default_probe, _Ends, _wronskian, impedance_mismatch

DOCS = Path(__file__).resolve().parents[1] / "docs"


def scipy_minimize(f, lo, hi, xatol):
    # scipy's numpy-scalar arithmetic warns where an inf value meets a 0
    with np.errstate(all="ignore"):
        opt = scipy.optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
    return float(opt.x)


def same(x, y):
    return type(x) is type(y) and (x == y or (math.isnan(x) and math.isnan(y)))


def wronskian_at(pot):
    """find_bound_states' W(E) and its window on a piecewise well."""
    floor, ceil = min(s.u for s in pot.segments), min(pot.left_level, pot.right_level)
    params = ModelParams()
    sigma = math.sqrt(2.0 * params.mass * (ceil - floor)) / params.hbar
    probe = _default_probe(pot)
    match = partial(_wronskian, sigma=sigma)
    ends = _Ends(pot, probe, IntegrationConfig(), ModelParams())

    def w_at(e):
        return float(match(*ends(e)))

    return w_at, floor, ceil


def sign_changes(f, lo, hi, n):
    es = np.linspace(lo, hi, n + 2)[1:-1].tolist()
    fs = [f(e) for e in es]
    return [(e0, e1) for e0, e1, f0, f1 in zip(es, es[1:], fs, fs[1:]) if f0 * f1 < 0.0]


def wells(random_wells):
    out = [load_spec(str(DOCS / "well.json")).potential]
    out += [
        PiecewisePotential(0.0, (PotentialSegment(0.0, w, -d),), 0.0)
        for d, w in random_wells
    ]
    return out


def test_brentq_on_wronskian_matches_scipy(random_wells):
    n = 0
    for pot in wells(random_wells):
        w_at, floor, ceil = wronskian_at(pot)
        for e0, e1 in sign_changes(w_at, floor, ceil, 60):
            for xtol, rtol in ((1e-300, 8.9e-16), (1e-12, 1e-10)):
                ours = brentq(w_at, e0, e1, xtol=xtol, rtol=rtol)
                theirs = scipy.optimize.brentq(w_at, e0, e1, xtol=xtol, rtol=rtol)
                assert same(ours, theirs), (pot, e0, e1)
                n += 1
    assert n > 100


def test_brentq_on_mismatch_components_matches_scipy():
    pot = load_spec(str(DOCS / "barrier.json")).potential

    def part(name, e):
        return getattr(impedance_mismatch(pot, e, 1.0), name)

    n = 0
    for name in ("real", "imag"):
        f = partial(part, name)
        for e0, e1 in sign_changes(f, 1.0, 13.0, 50):
            ours = brentq(f, e0, e1, xtol=1e-14, rtol=8.9e-16)
            theirs = scipy.optimize.brentq(f, e0, e1, xtol=1e-14, rtol=8.9e-16)
            assert same(ours, theirs), (name, e0, e1)
            n += 1
    assert n >= 3


def test_bounded_minimiser_matches_scipy():
    pot = load_spec(str(DOCS / "barrier.json")).potential

    def squared(e):
        return abs(impedance_mismatch(pot, e, 1.0)) ** 2

    es = np.linspace(1.1, 13.0, 61)
    ds = [squared(e) for e in es]
    minima = [i for i in range(1, len(es) - 1) if ds[i] < ds[i - 1] and ds[i] < ds[i + 1]]
    assert len(minima) == 3
    for i in minima:
        for xatol in (1e-12, 1e-5):
            ours = minimize_scalar(squared, es[i - 1], es[i + 1], xatol)
            assert ours == scipy_minimize(squared, es[i - 1], es[i + 1], xatol)
    # golden and parabolic steps, an infinite value, the evaluation limit
    for f in (math.cos, lambda x: (x - 0.25) ** 4, lambda x: math.inf if x > 1.0 else -x,
              lambda x: abs(x - 1.0 / 3.0)):
        assert minimize_scalar(f, -1.0, 2.5, 1e-12) == scipy_minimize(f, -1.0, 2.5, 1e-12)
    # 500 golden steps cannot close in on 1/3 from 1e300 away
    far = lambda x: abs(x - 1.0 / 3.0)
    few = minimize_scalar(far, -1e300, 1e300, 1e-300)
    assert few == scipy_minimize(far, -1e300, 1e300, 1e-300) and abs(few) > 1.0


def test_brentq_root_at_an_end():
    f = lambda x: x - 1.0
    assert brentq(f, 1.0, 3.0, 1e-12, 8.9e-16) == 1.0
    assert brentq(f, -2.0, 1.0, 1e-12, 8.9e-16) == 1.0
    assert brentq(f, 1.0, 3.0, 1e-12, 8.9e-16) == scipy.optimize.brentq(f, 1.0, 3.0)


@pytest.mark.parametrize(
    "f, a, b, maxiter, error",
    [
        (lambda x: x * x + 1.0, -1.0, 2.0, 100, ValueError),  # same sign at the ends
        # NaN at the first iterate, 0.5
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, -1.0, 2.0, 100, ValueError),
        (lambda x: math.nan if x > 1.0 else x, -1.0, 2.0, 100, ValueError),  # NaN at an end
        (lambda x: x ** 3 - 2.0, -1.0, 3.0, 4, RuntimeError),  # maxiter exhausted
    ],
)
def test_brentq_errors_match_scipy(f, a, b, maxiter, error, monkeypatch):
    monkeypatch.setattr(qwim._optimize, "_MAXITER", maxiter)
    with pytest.raises(error):
        brentq(f, a, b, 1e-14, 8.9e-16)
    with pytest.raises(error):
        scipy.optimize.brentq(f, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=maxiter)


def test_brentq_maxiter_matches_scipy():
    # the limit as an argument: the same error past it, the same root
    # within it
    f = lambda x: x ** 3 - 2.0
    with pytest.raises(RuntimeError):
        brentq(f, -1.0, 3.0, 1e-14, 8.9e-16, maxiter=4)
    want = scipy.optimize.brentq(f, -1.0, 3.0, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    assert brentq(f, -1.0, 3.0, 1e-14, 8.9e-16, maxiter=200) == want


def test_searches_match_scipy_backed_searches(random_wells, monkeypatch):
    barrier = load_spec(str(DOCS / "barrier.json")).potential
    calls = [lambda pot=pot: spectral.find_bound_states(pot) for pot in wells(random_wells)]
    calls.append(lambda: spectral.find_resonances(barrier, 1.0, 13.0))
    calls += [lambda d=d, w=w: xcheck.square_well_eigenvalues(d, w) for d, w in random_wells]
    ours = [repr(call()) for call in calls]
    monkeypatch.setattr(spectral, "brentq", scipy.optimize.brentq)
    monkeypatch.setattr(spectral, "minimize_scalar", scipy_minimize)
    monkeypatch.setattr(xcheck, "brentq", scipy.optimize.brentq)
    assert ours == [repr(call()) for call in calls]
