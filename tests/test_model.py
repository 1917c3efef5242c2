"""Potential geometry: construction, validation, lookup, mirroring."""

import numpy as np
import pytest

from qwim.errors import (
    EmptyDomainError,
    GapBetweenSegmentsError,
    NonFiniteInputError,
    OverlappingSegmentsError,
)
from qwim.model import (
    ModelParams,
    PiecewisePotential,
    PotentialSegment,
    SampledPotential,
)


def test_contiguous_segments_valid():
    pot = PiecewisePotential(
        0.0, (PotentialSegment(0.0, 1.0, 2.0), PotentialSegment(1.0, 3.0, 0.0)), 0.0
    )
    assert pot.a == 0.0 and pot.b == 3.0


def test_gap_between_segments_rejected():
    with pytest.raises(GapBetweenSegmentsError):
        PiecewisePotential(
            0.0,
            (PotentialSegment(0.0, 1.0, 1.0), PotentialSegment(1.5, 2.0, 1.0)),
            0.0,
        )


def test_overlapping_segments_rejected():
    with pytest.raises(OverlappingSegmentsError):
        PiecewisePotential(
            0.0,
            (PotentialSegment(0.0, 1.2, 1.0), PotentialSegment(1.0, 2.0, 1.0)),
            0.0,
        )


def test_zero_length_segment_rejected():
    with pytest.raises(OverlappingSegmentsError):
        PotentialSegment(1.0, 1.0, 0.5)


def test_empty_segments_need_step_location():
    with pytest.raises(EmptyDomainError):
        PiecewisePotential(0.0, (), 1.0)
    step = PiecewisePotential(0.0, (), 1.0, step_x=0.25)
    assert step.a == step.b == 0.25


def test_potential_lookup_step_and_barrier():
    step = PiecewisePotential(0.0, (), 1.0, step_x=0.0)
    assert step.u_at(-5.0) == 0.0
    assert step.u_at(5.0) == 1.0
    barrier = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    assert barrier.u_at(1.0) == 1.0
    assert barrier.u_at(-0.1) == 0.0
    assert barrier.u_at(2.1) == 0.0


def test_sampled_linear_interpolation():
    pot = SampledPotential((0.0, 2.0), (0.0, 4.0), 0.0, 0.0)
    assert pot.u_at(1.0) == pytest.approx(2.0)
    # outside the table the leads win regardless of edge samples
    assert pot.u_at(-1.0) == 0.0
    assert pot.u_at(3.0) == 0.0


@pytest.mark.parametrize(
    "pot",
    [
        PiecewisePotential(0.1, (PotentialSegment(0.0, 0.7, 1.2), PotentialSegment(0.7, 1.5, -0.6),
                                 PotentialSegment(1.5, 2.1, 0.9)), 0.3),
        PiecewisePotential(0.1, (), 0.3, step_x=0.5),
        SampledPotential(tuple(np.linspace(-3.0, 3.0, 41)),
                         tuple(-12.0 * np.exp(-np.linspace(-3.0, 3.0, 41) ** 2 / 2.0)), 0.0, 0.5),
    ],
    ids=["stack", "step", "sampled"],
)
def test_u_at_takes_arrays(pot):
    # an array of points gives bit for bit what one call per point gives,
    # and a float gives a float: at every join and sample, one ulp either
    # side of them, at a and b, past both leads (to infinity) and between
    joins = np.array(pot.interfaces())
    xs = np.sort(np.concatenate((
        joins, np.nextafter(joins, -np.inf), np.nextafter(joins, np.inf),
        [-np.inf, pot.a - 1.0, pot.b + 1.0, np.inf], np.linspace(pot.a - 0.5, pot.b + 0.5, 997),
    )))
    one = [pot.u_at(float(x)) for x in xs]
    assert all(type(u) is float for u in one)
    assert pot.u_at(xs).tobytes() == np.array(one).tobytes()
    # the left lead holds at a (a step's b too), the right lead at b, and
    # an inner join or sample takes the level that starts there
    assert pot.u_at(pot.a) == pot.left_level
    assert pot.u_at(pot.b) == (pot.right_level if pot.b > pot.a else pot.left_level)
    if isinstance(pot, SampledPotential):
        starts = list(zip(pot.xs[1:-1], pot.us[1:-1]))
    else:
        starts = [(seg.x_start, seg.u) for seg in pot.segments[1:]]
    assert [pot.u_at(x) for x, _ in starts] == [u for _, u in starts]


def test_sampled_requires_increasing_abscissae():
    with pytest.raises(OverlappingSegmentsError):
        SampledPotential((0.0, 1.0, 1.0), (0.0, 1.0, 0.0), 0.0, 0.0)
    with pytest.raises(EmptyDomainError):
        SampledPotential((0.0,), (1.0,), 0.0, 0.0)


def test_interfaces_and_breakpoints():
    pot = PiecewisePotential(
        0.0, (PotentialSegment(0.0, 1.0, 2.0), PotentialSegment(1.0, 3.0, -1.0)), 0.5
    )
    assert pot.interfaces() == [0.0, 1.0, 3.0]


def test_mirrored_is_an_involution():
    rng = np.random.default_rng(7)
    x = -1.3
    segs = []
    for _ in range(4):
        length = float(rng.uniform(0.2, 1.5))
        segs.append(PotentialSegment(x, x + length, float(rng.uniform(-2, 2))))
        x += length
    pot = PiecewisePotential(0.7, tuple(segs), -0.2)
    back = pot.mirrored().mirrored()
    assert back == pot
    # the mirror swaps leads and reflects geometry
    mir = pot.mirrored()
    assert mir.left_level == pot.right_level
    assert mir.a == -pot.b and mir.b == -pot.a
    # compare away from the joins, where the right-value convention flips
    probes = [0.5 * (s.x_start + s.x_end) for s in pot.segments]
    probes += [pot.a - 0.9, pot.b + 1.1]
    for x in probes:
        assert mir.u_at(-x) == pytest.approx(pot.u_at(x))


def test_sampled_mirror_preserves_values():
    pot = SampledPotential((0.0, 0.5, 2.0), (1.0, -0.5, 2.0), 0.3, -0.1)
    mir = pot.mirrored()
    assert mir.mirrored() == pot
    for x in np.linspace(0.05, 1.95, 23):
        assert mir.u_at(-x) == pytest.approx(pot.u_at(x))


def test_params_positive():
    with pytest.raises(ValueError):
        ModelParams(hbar=0.0)
    with pytest.raises(ValueError):
        ModelParams(mass=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_rejected(bad):
    with pytest.raises(NonFiniteInputError):
        PotentialSegment(0.0, 1.0, bad)
    with pytest.raises(NonFiniteInputError):
        PotentialSegment(0.0, bad, 1.0)
    with pytest.raises(NonFiniteInputError):
        PotentialSegment(bad, 1.0, 1.0)
    seg = PotentialSegment(0.0, 1.0, 1.0)
    with pytest.raises(NonFiniteInputError):
        PiecewisePotential(bad, (seg,), 0.0)
    with pytest.raises(NonFiniteInputError):
        PiecewisePotential(0.0, (seg,), bad)
    with pytest.raises(NonFiniteInputError):
        PiecewisePotential(0.0, (), 1.0, step_x=bad)
    with pytest.raises(NonFiniteInputError):
        SampledPotential((0.0, 1.0), (0.5, bad), 0.0, 0.0)
    with pytest.raises(NonFiniteInputError):
        SampledPotential((0.0, bad), (0.5, 0.5), 0.0, 0.0)
    with pytest.raises(NonFiniteInputError):
        SampledPotential((0.0, 1.0), (0.5, 0.5), bad, 0.0)
