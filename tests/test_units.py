"""The units enter only through c = 2m/hbar^2 and w = m/hbar: the scaling law.

With the lengths kept, every energy and level of a problem in units
hbar, m is m/hbar^2 times that of the same problem in hbar = m = 1: the
two have one psi, so one R, T and |r|, energies E_n = E'_n hbar^2 / m,
and impedances Z = (hbar/m) Z'.
"""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qwim.model import IntegrationConfig, ModelParams, PiecewisePotential, PotentialSegment, SampledPotential, Side
from qwim.scattering import energy_sweep, solve_scattering
from qwim.spectral import find_bound_states, find_resonances

import conftest

ENERGIES = (0.37, 1.3, 4.1)
WINDOW = (0.2, 6.0)
# the stepper on default tolerances: abs_tol is one on zeta = (m/hbar) Z
# and on 1/zeta, which the scaling law leaves alone
ENGINES = {"chain": IntegrationConfig(), "numeric": IntegrationConfig(force_numeric=True)}
# Measured over 40 draws of the units between 1e-30 and 1e30: R, T and
# |r| within 4.0e-15 of the unit problem's, Z within 6.5e-15 relative,
# bound energies within 1.3e-15 and resonances within 2.6e-13 of theirs
# times hbar^2 / m (the stepper's and the chain's alike)
BOUND_RT, BOUND_Z, BOUND_STATE, BOUND_RES = 1e-13, 1e-13, 1e-13, 3e-12


def _problem(kind: str, s: float):
    """Conftest stack 24 (two bound states, a resonance in WINDOW) or a
    sampled Gaussian well (three and five), every level divided by s."""
    if kind == "stack":
        rng = np.random.default_rng(conftest.SEED)
        for _ in range(25):
            pot = conftest._random_stack(rng)
            rng.uniform(0.05, 8.0, size=10)
        segs = tuple(PotentialSegment(g.x_start, g.x_end, g.u / s) for g in pot.segments)
        return PiecewisePotential(pot.left_level / s, segs, pot.right_level / s)
    xs = np.linspace(-3.0, 3.0, 21)
    return SampledPotential(tuple(xs.tolist()), tuple((-4.0 / s * np.exp(-xs * xs / 2.0)).tolist()), 0.0, 0.0)


def _solve(kind: str, engine: str, params: ModelParams, s: float):
    """R, T, |r| and z_entry w at ENERGIES / s from both sides, by the
    solve and the sweep, and the bound and resonance energies times s
    (the stepper's resonance scan of the Gaussian, 400 trajectories a
    search, is left out for time)."""
    pot, cfg = _problem(kind, s), ENGINES[engine]
    w = params.mass / params.hbar
    records = []
    for side in Side:
        es = [e / s for e in ENERGIES]
        records += [solve_scattering(pot, e, side, cfg, params) for e in es]
        records += energy_sweep(pot, es, side, cfg, params)
    amplitudes = [(r.big_r, r.big_t, abs(r.r), complex(r.z_entry.real * w, r.z_entry.imag * w)) for r in records]
    bound = [e * s for e in find_bound_states(pot, cfg, params).energies]
    if kind == "gauss" and cfg.force_numeric:
        return amplitudes, bound, None
    res = find_resonances(pot, WINDOW[0] / s, WINDOW[1] / s, cfg=cfg, params=params).energies
    return amplitudes, bound, [e * s for e in res]


@cache
def _unit(kind: str, engine: str):
    return _solve(kind, engine, ModelParams(), 1.0)


@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(log_hbar=st.floats(-30.0, 30.0), log_mass=st.floats(-30.0, 30.0))
def test_results_follow_the_scaling_law(log_hbar, log_mass):
    params = ModelParams(10.0 ** log_hbar, 10.0 ** log_mass)
    s = params.mass / params.hbar ** 2
    for kind in ("stack", "gauss"):
        for engine in ENGINES:
            (got, bound, res), (want, bound1, res1) = _solve(kind, engine, params, s), _unit(kind, engine)
            for (r, t, m, z), (r1, t1, m1, z1) in zip(got, want):
                assert max(abs(r - r1), abs(t - t1), abs(m - m1)) <= BOUND_RT, (kind, engine)
                assert abs(z - z1) <= BOUND_Z * abs(z1), (kind, engine)
            assert len(bound) == len(bound1) > 1, (kind, engine, bound)
            assert all(abs(a - b) <= BOUND_STATE for a, b in zip(bound, bound1)), (kind, engine)
            if res is not None:
                assert len(res) == len(res1) > 0, (kind, engine, res)
                assert all(abs(a - b) <= BOUND_RES for a, b in zip(res, res1)), (kind, engine)
