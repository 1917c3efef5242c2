"""Reading and writing potential specification files.

The on-disk format is JSON with three top-level blocks::

    {
      "params":    {"hbar": 1.0, "mass": 1.0},
      "potential": {"kind": "piecewise", "left_level": 0.0,
                    "right_level": 0.0,
                    "segments": [{"x_start": 0.0, "x_end": 2.0, "u": 1.0}]},
      "defaults":  {"rel_tol": 1e-10}
    }

``params`` and ``defaults`` are optional; ``potential.kind`` selects
between ``piecewise`` (list of contiguous constant segments) and
``sampled`` (list of [x, u] pairs, linearly interpolated).  The full
schema is documented in docs/spec_format.md.

Every parse failure raises SpecFileError with a dotted field path
(``potential.segments[2].x_end``) so broken files are quick to fix, and
``render_spec(parse_spec(text))`` round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .errors import PotentialInputError, SpecFileError
from .model import (
    IntegrationConfig,
    ModelParams,
    PiecewisePotential,
    Potential,
    PotentialSegment,
    SampledPotential,
)

_DEFAULT_KEYS = ("rel_tol", "abs_tol", "max_step", "pole_threshold", "force_numeric")


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed contents of a specification file."""

    potential: Potential
    params: ModelParams
    defaults: IntegrationConfig


def _need(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise SpecFileError(f"{path}: missing required field '{key}'")
    return mapping[key]


def _as_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SpecFileError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _as_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise SpecFileError(f"{path}: expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecFileError(f"{path}: expected a finite number, got {value}")
    return value


def _as_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise SpecFileError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _parse_piecewise(node: dict, path: str) -> PiecewisePotential:
    left = _as_number(_need(node, "left_level", path), f"{path}.left_level")
    right = _as_number(_need(node, "right_level", path), f"{path}.right_level")
    raw = _as_list(_need(node, "segments", path), f"{path}.segments")
    segments = []
    for i, item in enumerate(raw):
        spath = f"{path}.segments[{i}]"
        seg = _as_mapping(item, spath)
        x0 = _as_number(_need(seg, "x_start", spath), f"{spath}.x_start")
        x1 = _as_number(_need(seg, "x_end", spath), f"{spath}.x_end")
        u = _as_number(_need(seg, "u", spath), f"{spath}.u")
        try:
            segments.append(PotentialSegment(x0, x1, u))
        except PotentialInputError as exc:
            raise SpecFileError(f"{spath}: {exc}") from exc
    step = node.get("step_x")
    if step is not None:
        step = _as_number(step, f"{path}.step_x")
    # the model's geometry errors start with the segments field they name
    try:
        return PiecewisePotential(left, tuple(segments), right, step)
    except PotentialInputError as exc:
        raise SpecFileError(f"{path}.{exc}") from exc


def _parse_sampled(node: dict, path: str) -> SampledPotential:
    left = _as_number(_need(node, "left_level", path), f"{path}.left_level")
    right = _as_number(_need(node, "right_level", path), f"{path}.right_level")
    raw = _as_list(_need(node, "samples", path), f"{path}.samples")
    if len(raw) < 2:
        raise SpecFileError(f"{path}.samples: need at least two samples")
    xs, us = [], []
    for i, item in enumerate(raw):
        spath = f"{path}.samples[{i}]"
        pair = _as_list(item, spath)
        if len(pair) != 2:
            raise SpecFileError(f"{spath}: expected an [x, u] pair")
        x = _as_number(pair[0], f"{spath}[0]")
        if xs and x <= xs[-1]:
            raise SpecFileError(f"{spath}: sample abscissae must strictly increase")
        xs.append(x)
        us.append(_as_number(pair[1], f"{spath}[1]"))
    return SampledPotential(tuple(xs), tuple(us), left, right)


def parse_spec(text: str) -> ProblemSpec:
    """Parse specification text; raises SpecFileError with a field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SpecFileError("arrays or objects nested too deeply to parse") from exc
    root = _as_mapping(doc, "$")

    params = ModelParams()
    if "params" in root:
        block = _as_mapping(root["params"], "params")
        for key in block:
            if key not in ("hbar", "mass"):
                raise SpecFileError(f"params.{key}: unknown field")
        kwargs = {k: _as_number(v, f"params.{k}") for k, v in block.items()}
        try:
            params = ModelParams(**kwargs)
        except ValueError as exc:
            raise SpecFileError(f"params: {exc}") from exc

    pot_node = _as_mapping(_need(root, "potential", "$"), "potential")
    kind = _need(pot_node, "kind", "potential")
    if kind == "piecewise":
        potential: Potential = _parse_piecewise(pot_node, "potential")
    elif kind == "sampled":
        potential = _parse_sampled(pot_node, "potential")
    else:
        raise SpecFileError(
            f"potential.kind: expected 'piecewise' or 'sampled', got {kind!r}"
        )

    defaults = IntegrationConfig()
    if "defaults" in root:
        block = _as_mapping(root["defaults"], "defaults")
        overrides = {}
        for key, value in block.items():
            if key not in _DEFAULT_KEYS:
                raise SpecFileError(f"defaults.{key}: unknown field")
            if key == "force_numeric":
                if not isinstance(value, bool):
                    raise SpecFileError(f"defaults.{key}: expected true or false")
                overrides[key] = value
            else:
                overrides[key] = _as_number(value, f"defaults.{key}")
        try:
            defaults = replace(defaults, **overrides)
        except ValueError as exc:
            raise SpecFileError(f"defaults: {exc}") from exc
    return ProblemSpec(potential=potential, params=params, defaults=defaults)


def load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc
    try:
        return parse_spec(text)
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc


def render_spec(spec: ProblemSpec) -> str:
    """Serialize a ProblemSpec; parsing the result reproduces it exactly."""
    pot = spec.potential
    if isinstance(pot, PiecewisePotential):
        pot_node: dict = {
            "kind": "piecewise",
            "left_level": pot.left_level,
            "right_level": pot.right_level,
            "segments": [
                {"x_start": s.x_start, "x_end": s.x_end, "u": s.u}
                for s in pot.segments
            ],
        }
        if pot.step_x is not None:
            pot_node["step_x"] = pot.step_x
    else:
        pot_node = {
            "kind": "sampled",
            "left_level": pot.left_level,
            "right_level": pot.right_level,
            "samples": [[x, u] for x, u in zip(pot.xs, pot.us)],
        }
    doc = {
        "params": {"hbar": spec.params.hbar, "mass": spec.params.mass},
        "potential": pot_node,
        "defaults": {
            "rel_tol": spec.defaults.rel_tol,
            "abs_tol": spec.defaults.abs_tol,
            "pole_threshold": spec.defaults.pole_threshold,
            "force_numeric": spec.defaults.force_numeric,
        },
    }
    if spec.defaults.max_step is not None:
        doc["defaults"]["max_step"] = spec.defaults.max_step
    return json.dumps(doc, indent=2) + "\n"
