"""Lengths scale out: the length law.

With hbar = m = 1, the map x -> lam x with U -> U / lam^2 and
E -> E / lam^2 leaves psi the same function of x / lam: R, T and |r| do
not change, and every bound or resonance energy times lam^2 is the
unscaled one.  ``test_units.py`` holds the units' law, with the lengths
kept.
"""

import pytest

from qwim.model import PiecewisePotential, PotentialSegment
from qwim.spectral import RESONANCE_TOL, find_resonances

# Measured over lam = 1e-12 to 1e12, one per decade: resonance energies
# times lam^2 within 6.9e-16 of lam = 1's, relative
BOUND_RES = 2e-15


def _double_barrier(lam: float) -> PiecewisePotential:
    """Two barriers 10 high and 1 wide, 2 apart, zero leads, scaled by lam."""
    segs = ((0.0, 1.0, 10.0), (1.0, 3.0, 0.0), (3.0, 4.0, 10.0))
    return PiecewisePotential(
        0.0, tuple(PotentialSegment(x0 * lam, x1 * lam, u / lam ** 2) for x0, x1, u in segs), 0.0
    )


def _resonances(lam: float) -> list[float]:
    found = find_resonances(_double_barrier(lam), 0.5 / lam ** 2, 9.5 / lam ** 2)
    assert max(found.residuals, default=0.0) < RESONANCE_TOL
    return [e * lam ** 2 for e in found.energies]


@pytest.mark.parametrize("power", range(-12, 13))
def test_resonances_follow_the_length_law(power):
    # the search's energy tolerances scale with its window, so it finds
    # the double barrier's three resonances at every length scale
    got, want = _resonances(10.0 ** power), _resonances(1.0)
    assert len(got) == len(want) == 3, got
    assert all(abs(a - b) <= BOUND_RES * b for a, b in zip(got, want)), (got, want)
