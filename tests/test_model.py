"""Potential geometry: construction, validation, lookup, mirroring."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _linspace,
    require_finite,
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


def test_segment_shorter_than_its_joins_slack_rejected():
    # each join within JOIN_TOL is taken at its midpoint: a segment 4e-13
    # long overlapped by 9e-13 on its left and 5e-13 on its right would
    # run backwards between its joins
    segs = (PotentialSegment(0.0, 1.0 + 9e-13, 1.0), PotentialSegment(1.0, 1.0 + 4e-13, 2.0),
            PotentialSegment(1.0 - 1e-13, 2.0, 3.0))
    with pytest.raises(OverlappingSegmentsError, match=r"segments\[1\]: no length left"):
        PiecewisePotential(0.0, segs, 0.0)
    # the same segment overlapped by 1e-13 on each side keeps 2e-13
    segs = (PotentialSegment(0.0, 1.0 + 1e-13, 1.0), PotentialSegment(1.0, 1.0 + 4e-13, 2.0),
            PotentialSegment(1.0 + 3e-13, 2.0, 3.0))
    (_, j1, _, _), (x0, x1, _, _), _ = PiecewisePotential(0.0, segs, 0.0).cells
    assert j1 == x0 and x1 - x0 == pytest.approx(2e-13, rel=1e-3)


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


_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda p: 10.0 ** p)
_SIGNS = st.sampled_from([-1.0, 1.0])


@st.composite
def _spans(draw):
    """(start, stop): any magnitudes 1e-300..1e300 of either sign, or a
    span of a few subnormal spacings, where numpy's step underflows."""
    if draw(st.booleans()):
        return draw(_SIGNS) * draw(_MAGNITUDES), draw(_SIGNS) * draw(_MAGNITUDES)
    start = draw(st.integers(-10**6, 10**6)) * 5e-324
    return start, start + draw(st.integers(1, 2000)) * 5e-324


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_spans(), st.integers(2, 1000))
@example((0.0, 1e-320), 1000)
@example((0.0, 1.5e-323), 1000)
@example((1e300, -1e300), 2)
@example((0.1, 0.3), 3)
def test_linspace_is_numpys_bit_for_bit(span, num):
    got = _linspace(*span, num)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in np.linspace(*span, num).tolist()]


def test_require_finite_names_the_first_bad_value_of_a_long_list():
    # all values are checked in one pass, and only a failing check walks
    # them again to name the first bad one: the message is unchanged
    values = [0.25 * k for k in range(10_000)]
    require_finite("grid points", *values)
    values[7_321] = math.nan
    values[9_000] = math.inf
    with pytest.raises(NonFiniteInputError) as err:
        require_finite("grid points", *values)
    assert str(err.value) == "grid points must be finite, got nan"
    values[5] = -math.inf
    with pytest.raises(NonFiniteInputError, match=r"^energy must be finite, got -inf$"):
        require_finite("energy", *values)
