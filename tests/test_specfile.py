"""Problem-spec JSON parsing and validation messages."""

import json

import pytest

from qwim.errors import SpecFileError
from qwim.model import (
    IntegrationConfig,
    ModelParams,
    PiecewisePotential,
    PotentialSegment,
    SampledPotential,
)
from qwim.specfile import ProblemSpec, load_spec, parse_spec

BARRIER = """
{
  "params": {"hbar": 1.0, "mass": 1.0},
  "potential": {
    "kind": "piecewise",
    "left_level": 0.0,
    "right_level": 0.0,
    "segments": [{"x_start": 0.0, "x_end": 2.0, "u": 1.0}]
  }
}
"""


def test_parse_minimal_piecewise():
    spec = parse_spec(BARRIER)
    assert isinstance(spec.potential, PiecewisePotential)
    assert spec.potential.a == 0.0 and spec.potential.b == 2.0
    assert spec.params.hbar == 1.0
    assert spec.defaults == IntegrationConfig()


def test_parse_defaults_block():
    doc = json.loads(BARRIER)
    doc["defaults"] = {"rel_tol": 1e-9, "force_numeric": True}
    spec = parse_spec(json.dumps(doc))
    assert spec.defaults.rel_tol == 1e-9
    assert spec.defaults.force_numeric is True
    assert spec.defaults.abs_tol == IntegrationConfig().abs_tol


def test_parse_sampled_potential():
    doc = {
        "params": {"hbar": 1.0, "mass": 1.0},
        "potential": {
            "kind": "sampled",
            "left_level": 0.0,
            "right_level": 0.0,
            "samples": [[0.0, 0.0], [1.0, -2.0], [2.0, 0.0]],
        },
    }
    spec = parse_spec(json.dumps(doc))
    assert isinstance(spec.potential, SampledPotential)
    assert spec.potential.u_at(1.0) == pytest.approx(-2.0)


def test_parse_step_potential():
    doc = {
        "params": {"hbar": 1.0, "mass": 1.0},
        "potential": {
            "kind": "piecewise",
            "left_level": 0.0,
            "right_level": 1.0,
            "segments": [],
            "step_x": 0.25,
        },
    }
    spec = parse_spec(json.dumps(doc))
    assert spec.potential.a == spec.potential.b == 0.25


def test_error_paths_name_the_field():
    doc = json.loads(BARRIER)
    doc["params"]["hbar"] = "one"
    with pytest.raises(SpecFileError, match="params.hbar"):
        parse_spec(json.dumps(doc))

    doc = json.loads(BARRIER)
    doc["potential"]["segments"][0]["u"] = "tall"
    with pytest.raises(SpecFileError, match=r"segments\[0\].u"):
        parse_spec(json.dumps(doc))

    doc = json.loads(BARRIER)
    doc["potential"]["kind"] = "smooth"
    with pytest.raises(SpecFileError, match="potential.kind"):
        parse_spec(json.dumps(doc))


def test_gap_and_overlap_name_the_segment_index():
    doc = json.loads(BARRIER)
    doc["potential"]["segments"] = [
        {"x_start": 0.0, "x_end": 1.0, "u": 1.0},
        {"x_start": 1.5, "x_end": 2.0, "u": 1.0},
    ]
    with pytest.raises(SpecFileError, match=r"segments\[1\]"):
        parse_spec(json.dumps(doc))

    doc["potential"]["segments"] = [
        {"x_start": 0.0, "x_end": 1.2, "u": 1.0},
        {"x_start": 1.0, "x_end": 2.0, "u": 1.0},
    ]
    with pytest.raises(SpecFileError, match=r"segments\[1\]"):
        parse_spec(json.dumps(doc))


def test_booleans_are_not_numbers():
    doc = json.loads(BARRIER)
    doc["params"]["mass"] = True
    with pytest.raises(SpecFileError, match="params.mass"):
        parse_spec(json.dumps(doc))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_non_finite_numbers_name_the_field(token):
    # json.loads accepts these tokens (1e999 reads as inf, a 401-digit
    # integer has no float); the parser must not
    text = BARRIER.replace('"x_end": 2.0', f'"x_end": {token}')
    with pytest.raises(SpecFileError, match=r"potential.segments\[0\].x_end"):
        parse_spec(text)
    text = BARRIER.replace('"hbar": 1.0', f'"hbar": {token}')
    with pytest.raises(SpecFileError, match="params.hbar"):
        parse_spec(text)
    text = BARRIER.replace('"left_level": 0.0', f'"left_level": {token}')
    with pytest.raises(SpecFileError, match="potential.left_level"):
        parse_spec(text)


def test_malformed_json_reports_position():
    with pytest.raises(SpecFileError, match="line"):
        parse_spec("{ not json }")


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"a": ' * 5000 + "1" + "}" * 5000], ids=["arrays", "objects"]
)
def test_deep_nesting_is_a_spec_error(text):
    with pytest.raises(SpecFileError, match="nested too deeply"):
        parse_spec(text)


def test_sampled_needs_increasing_abscissae():
    doc = {
        "params": {"hbar": 1.0, "mass": 1.0},
        "potential": {
            "kind": "sampled",
            "left_level": 0.0,
            "right_level": 0.0,
            "samples": [[0.0, 0.0], [0.0, 1.0]],
        },
    }
    with pytest.raises(SpecFileError):
        parse_spec(json.dumps(doc))


def test_parse_barrier_gives_the_built_spec():
    want = ProblemSpec(
        potential=PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0),
        params=ModelParams(),
        defaults=IntegrationConfig(),
    )
    assert parse_spec(BARRIER) == want


def test_parse_sampled_with_every_default_gives_the_built_spec():
    text = """
    {
      "params": {"hbar": 0.5, "mass": 2.0},
      "potential": {
        "kind": "sampled",
        "left_level": 0.0,
        "right_level": 0.25,
        "samples": [[0.0, 0.0], [0.7, -3.0], [2.0, 0.5]]
      },
      "defaults": {"rel_tol": 1e-9, "abs_tol": 1e-11, "max_step": 0.05,
                   "pole_threshold": 50.0, "force_numeric": true}
    }
    """
    want = ProblemSpec(
        potential=SampledPotential((0.0, 0.7, 2.0), (0.0, -3.0, 0.5), 0.0, 0.25),
        params=ModelParams(hbar=0.5, mass=2.0),
        defaults=IntegrationConfig(
            rel_tol=1e-9, abs_tol=1e-11, max_step=0.05, pole_threshold=50.0,
            force_numeric=True,
        ),
    )
    assert parse_spec(text) == want


def test_load_spec_names_missing_file(tmp_path):
    with pytest.raises(SpecFileError, match="nope.json"):
        load_spec(str(tmp_path / "nope.json"))
    target = tmp_path / "ok.json"
    target.write_text(BARRIER)
    spec = load_spec(str(target))
    assert spec.potential.b == 2.0


def test_load_spec_names_a_file_that_is_not_utf8(tmp_path):
    target = tmp_path / "utf16.json"
    target.write_bytes(b"\xff\xfe" + BARRIER.encode("utf-16-le"))
    with pytest.raises(SpecFileError, match="utf16.json: not UTF-8"):
        load_spec(str(target))


@pytest.mark.parametrize(
    "defaults, field",
    [({"rel_tol": 0, "abs_tol": 0}, "abs_tol"), ({"rel_tol": -1e-9}, "rel_tol"),
     ({"pole_threshold": -5}, "pole_threshold"), ({"max_step": 0}, "max_step")],
)
def test_out_of_range_defaults_name_the_block(defaults, field):
    doc = json.loads(BARRIER)
    doc["defaults"] = defaults
    with pytest.raises(SpecFileError, match=f"defaults: {field}"):
        parse_spec(json.dumps(doc))
