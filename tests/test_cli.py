"""End-to-end command-line checks through subprocess."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BARRIER_DOC = {
    "params": {"hbar": 1.0, "mass": 1.0},
    "potential": {
        "kind": "piecewise",
        "left_level": 0.0,
        "right_level": 0.0,
        "segments": [{"x_start": 0.0, "x_end": 2.0, "u": 1.0}],
    },
}

WELL_DOC = {
    "params": {"hbar": 1.0, "mass": 1.0},
    "potential": {
        "kind": "piecewise",
        "left_level": 0.0,
        "right_level": 0.0,
        "segments": [{"x_start": 0.0, "x_end": 2.0, "u": -5.0}],
    },
}


DOCS = Path(__file__).resolve().parent.parent / "docs"


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "qwim", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rows_of(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def test_scatter_single_row_unitary(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("scatter", "--spec", spec, "--energy", "2.0")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header == ["E", "re_r", "im_r", "re_t", "im_t", "R", "T"]
    assert len(rows) == 1
    vals = dict(zip(header, map(float, rows[0])))
    assert vals["E"] == 2.0
    assert vals["R"] + vals["T"] == pytest.approx(1.0, abs=1e-10)


def test_scatter_malformed_spec_names_segment(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"] = [
        {"x_start": 0.0, "x_end": 1.2, "u": 1.0},
        {"x_start": 1.0, "x_end": 2.0, "u": 0.5},
    ]
    spec = write_spec(tmp_path, doc)
    proc = run_cli("scatter", "--spec", spec, "--energy", "2.0")
    assert proc.returncode == 2
    assert "segments[1]" in proc.stderr
    assert proc.stdout == ""


def test_scatter_below_lead_is_solver_error(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("scatter", "--spec", spec, "--energy", "-0.5")
    assert proc.returncode == 3
    assert "error\t" in proc.stderr


@pytest.mark.parametrize(
    "verb, energy",
    [("scatter", "nan"), ("scatter", "inf"), ("profile", "nan")],
)
def test_non_finite_energy_is_input_error(tmp_path, verb, energy):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli(verb, "--spec", spec, "--energy", energy)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error\t")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tNonFiniteInput\t")


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--rel-tol", "0", "--abs-tol", "0"], "Input"),
        (["--rel-tol", "-1"], "Input"),
        (["--abs-tol", "-1"], "Input"),
        (["--rel-tol", "nan"], "NonFiniteInput"),
    ],
)
def test_bad_tolerance_flags_are_input_errors(flags, code):
    spec = str(DOCS / "barrier.json")
    proc = run_cli("scatter", "--spec", spec, "--energy", "2", "--force-numeric", *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error\t")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error\t{code}\t")


def test_bad_spec_defaults_are_input_errors(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["defaults"] = {"rel_tol": 0.0, "abs_tol": 0.0}
    spec = write_spec(tmp_path, doc)
    proc = run_cli("scatter", "--spec", spec, "--energy", "2", "--force-numeric")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error\t")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tSpecFile\t") and "defaults: abs_tol" in errors[0]


def test_scatter_evanescent_tail_note(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["right_level"] = 3.0
    spec = write_spec(tmp_path, doc)
    proc = run_cli("scatter", "--spec", spec, "--energy", "2.0")
    assert proc.returncode == 0
    assert "note\tevanescent-tail" in proc.stderr
    header, rows = rows_of(proc.stdout)
    assert float(dict(zip(header, rows[0]))["T"]) == 0.0


def test_sweep_grid_contract(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("sweep", "--spec", spec, "--emin", "1.0", "--emax", "4.0",
                   "--points", "5")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header[-1] == "error"
    assert len(rows) == 5
    es = [float(r[0]) for r in rows]
    np.testing.assert_allclose(es, np.linspace(1.0, 4.0, 5), atol=1e-15)
    assert all(e1 > e0 for e0, e1 in zip(es, es[1:]))


def test_sweep_two_points_hits_endpoints(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("sweep", "--spec", spec, "--emin", "1.5", "--emax", "2.5",
                   "--points", "2")
    _, rows = rows_of(proc.stdout)
    assert [float(r[0]) for r in rows] == [1.5, 2.5]


def test_sweep_degenerate_point_carries_sentinel(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"][0]["u"] = 0.5
    doc["potential"]["right_level"] = 1.0
    spec = write_spec(tmp_path, doc)
    proc = run_cli("sweep", "--spec", spec, "--emin", "1.0", "--emax", "3.0",
                   "--points", "3")
    assert proc.returncode == 0
    _, rows = rows_of(proc.stdout)
    assert len(rows) == 3
    # E = 1.0 coincides with the right lead, which then carries no flux:
    # error sentinel, others numeric
    assert rows[0][-1] != "-" and "nan" in rows[0][1]
    for row in rows[1:]:
        assert row[-1] == "-"
        assert math.isfinite(float(row[5]))


def test_sweep_huge_energy_row_is_a_point_error():
    # the E = 5e307 row printed nan amplitudes with error "-"
    spec = str(DOCS / "barrier.json")
    proc = run_cli("sweep", "--spec", spec, "--emin", "0.1", "--emax", "1e308",
                   "--points", "3")
    assert proc.returncode == 0
    _, rows = rows_of(proc.stdout)
    assert float(rows[1][0]) == pytest.approx(5e307)
    assert [row[-1] for row in rows] == ["-", "NonFiniteState", "NonFiniteState"]


def test_sweep_rows_match_scatter():
    spec = str(DOCS / "barrier.json")
    proc = run_cli("sweep", "--spec", spec, "--emin", "0.5", "--emax", "1.5",
                   "--points", "3")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert [r[0] for r in rows] == ["0.5", "1", "1.5"]
    # E = 1.0 is the barrier top, where psi is linear across the barrier:
    # a finite row like the others.  The sweep's array pass rounds
    # differently from a single solve: the rows agree to the
    # batched-vs-scalar bound, not digit for digit
    for row in rows:
        assert row[-1] == "-"
        one = run_cli("scatter", "--spec", spec, "--energy", row[0])
        assert one.returncode == 0
        sheader, srows = rows_of(one.stdout)
        assert sheader == header[:-1] and len(srows) == 1
        got, ref = list(map(float, row[:-1])), list(map(float, srows[0]))
        assert got[0] == ref[0]
        for i in (1, 3):  # r and t, compared as complex numbers
            a, b = complex(got[i], got[i + 1]), complex(ref[i], ref[i + 1])
            assert abs(a - b) <= 1e-12 * abs(b)
        assert got[5:] == pytest.approx(ref[5:], rel=1e-12, abs=0.0)


def test_sweep_rejects_bad_window(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    assert run_cli("sweep", "--spec", spec, "--emin", "3.0", "--emax", "1.0",
                   "--points", "5").returncode == 2
    assert run_cli("sweep", "--spec", spec, "--emin", "1.0", "--emax", "2.0",
                   "--points", "1").returncode == 2


def test_bound_three_row_table(tmp_path):
    spec = write_spec(tmp_path, WELL_DOC)
    proc = run_cli("bound", "--spec", spec)
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header == ["index", "E", "residual"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    want = [-4.296392637614919, -2.3120970431648895, -0.002009631226663977]
    np.testing.assert_allclose([float(r[1]) for r in rows], want, atol=1e-8)


def test_bound_without_well_fails_cleanly(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("bound", "--spec", spec)
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "params, x_end, argv",
    [
        # k dx of the slab has no float value: a bare ValueError, exit 2
        ({"hbar": 1e-300, "mass": 1.0}, 1e10, ["bound"]),
        ({"hbar": 1e-300, "mass": 1.0}, 1e10, ["scatter", "--energy", "1.0"]),
        ({"hbar": 1e-300, "mass": 1.0}, 1e10, ["validate", "--energy", "1.0"]),
        ({"hbar": 1e-300, "mass": 1.0}, 1e10, ["resonances", "--emin", "1", "--emax", "2"]),
        # N(ceiling) = 2.0e150: the bisection ran until killed
        ({"hbar": 1.0, "mass": 1e300}, 2.0, ["bound"]),
    ],
    ids=["bound-phase", "scatter-phase", "validate-phase", "resonances-phase", "bound-count"],
)
def test_overflowing_well_is_solver_error(tmp_path, params, x_end, argv):
    doc = json.loads(json.dumps(WELL_DOC))
    doc["params"] = params
    doc["potential"]["segments"][0]["x_end"] = x_end
    spec = write_spec(tmp_path, doc)
    proc = run_cli(*argv, "--spec", spec, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error\tNonFiniteState\t")


def test_resonances_barrier_comb(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("resonances", "--spec", spec, "--emin", "1.0", "--emax", "13.0")
    assert proc.returncode == 0
    _, rows = rows_of(proc.stdout)
    want = [1.0 + n * n * math.pi ** 2 / 8.0 for n in (1, 2, 3)]
    np.testing.assert_allclose([float(r[1]) for r in rows], want, atol=1e-8)


def test_resonances_transparent_note(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"][0]["u"] = 0.0
    spec = write_spec(tmp_path, doc)
    proc = run_cli("resonances", "--spec", spec, "--emin", "0.5", "--emax", "4.0")
    assert proc.returncode == 0
    assert "note\ttransparent" in proc.stderr
    _, rows = rows_of(proc.stdout)
    assert rows == []


def test_profile_impedance_free_line(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"][0]["u"] = 0.0
    spec = write_spec(tmp_path, doc)
    proc = run_cli("profile", "--spec", spec, "--energy", "2.0",
                   "--mode", "impedance", "--points", "9")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header == ["x", "re_Z", "im_Z"]
    assert len(rows) == 9
    z0 = math.sqrt(2.0 * 2.0)
    for row in rows:
        assert float(row[1]) == pytest.approx(z0, abs=1e-9)
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)


def test_profile_wavefunction_transmitted_flux(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("profile", "--spec", spec, "--energy", "2.0",
                   "--mode", "wavefunction", "--points", "201")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header == ["x", "re_psi", "im_psi", "abs2_psi"]
    scatter = run_cli("scatter", "--spec", spec, "--energy", "2.0")
    sh, srows = rows_of(scatter.stdout)
    svals = dict(zip(sh, map(float, srows[0])))
    # |psi(b)|^2 equals |t|^2 = T for equal leads
    assert float(rows[-1][3]) == pytest.approx(svals["T"], abs=1e-9)


def test_validate_reports_all_ok(tmp_path):
    doc = {
        "params": {"hbar": 1.0, "mass": 1.0},
        "potential": {
            "kind": "piecewise",
            "left_level": 0.0,
            "right_level": 0.0,
            "segments": [
                {"x_start": 0.0, "x_end": 0.6, "u": 1.4},
                {"x_start": 0.6, "x_end": 1.1, "u": -0.8},
                {"x_start": 1.1, "x_end": 1.9, "u": 0.5},
                {"x_start": 1.9, "x_end": 2.4, "u": -1.6},
            ],
        },
    }
    spec = write_spec(tmp_path, doc)
    proc = run_cli("validate", "--spec", spec, "--energy", "2.1")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header == ["check", "value", "tolerance", "status"]
    assert rows and all(r[-1] == "ok" for r in rows)


def test_validate_at_a_slab_level():
    # E = 1 is the barrier's level: psi is linear across it, and the
    # transfer-matrix oracle joins the leads across it as the chain does
    proc = run_cli("validate", "--spec", str(DOCS / "barrier.json"), "--energy", "1.0")
    assert proc.returncode == 0, proc.stderr
    header, rows = rows_of(proc.stdout)
    assert header == ["check", "value", "tolerance", "status"]
    assert [(r[0], r[-1]) for r in rows] == [
        ("delta_R", "ok"), ("delta_T", "ok"), ("residual", "ok")
    ]


@pytest.mark.parametrize(
    "segments",
    [
        [{"x_start": 0.0, "x_end": 2.0, "u": 1e-100}],
        [
            {"x_start": 0.0, "x_end": 1.0, "u": -5.0},
            {"x_start": 1.0, "x_end": 2.0, "u": 1e-300},
            {"x_start": 2.0, "x_end": 3.0, "u": -5.0},
        ],
    ],
    ids=["alone", "between"],
)
def test_validate_at_a_slab_level_near_the_energy(tmp_path, segments):
    # the oracle reported delta_R 0.909 on the lone slab and ended in a
    # ZeroDivisionError traceback on the stack
    doc = {"potential": {"kind": "piecewise", "left_level": -5.0, "right_level": -5.0,
                         "segments": segments}}
    proc = run_cli("validate", "--spec", write_spec(tmp_path, doc), "--energy", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, rows = rows_of(proc.stdout)
    assert [(r[0], r[-1]) for r in rows] == [
        ("delta_R", "ok"), ("delta_T", "ok"), ("residual", "ok")
    ]


SAMPLED_XS = np.linspace(-3.0, 3.0, 41)
SAMPLED_DOC = {
    "params": {"hbar": 1.0, "mass": 1.0},
    "potential": {
        "kind": "sampled",
        "left_level": 0.0,
        "right_level": 0.4,
        "samples": [[x, 2.0 * math.exp(-x * x / 2.0) + 0.1 * x] for x in SAMPLED_XS.tolist()],
    },
}


def _mirrored_doc(doc):
    """The spec of the potential reflected through x -> -x."""
    pot = dict(doc["potential"], left_level=doc["potential"]["right_level"],
               right_level=doc["potential"]["left_level"])
    if pot["kind"] == "sampled":
        pot["samples"] = [[-x, u] for x, u in reversed(pot["samples"])]
    else:
        pot["segments"] = [
            {"x_start": -s["x_end"], "x_end": -s["x_start"], "u": s["u"]}
            for s in reversed(pot["segments"])
        ]
    return dict(doc, potential=pot)


@pytest.mark.parametrize("mode", ["impedance", "wavefunction"])
@pytest.mark.parametrize(
    "doc", [json.loads((DOCS / "barrier.json").read_text()), SAMPLED_DOC], ids=["barrier", "sampled"]
)
def test_profile_right_incidence_on_the_potentials_own_grid(tmp_path, doc, mode):
    # right incidence walks the potential's own frame: its x column is the
    # grid on [a, b] itself, and its values are the mirror's left profile
    # at -x, Z negated
    points = 101
    spec = write_spec(tmp_path, doc)
    mirror = write_spec(tmp_path, _mirrored_doc(doc), "mirror.json")
    common = ("--energy", "2.3", "--mode", mode, "--points", str(points))
    right = run_cli("profile", "--spec", spec, "--side", "right", *common)
    left = run_cli("profile", "--spec", mirror, *common)
    assert right.returncode == 0 and left.returncode == 0, right.stderr + left.stderr
    (header, rows), (_, mirror_rows) = rows_of(right.stdout), rows_of(left.stdout)
    got, want = np.array(rows, dtype=float), np.array(mirror_rows, dtype=float)[::-1]
    if doc is SAMPLED_DOC:
        a, b = SAMPLED_XS[0], SAMPLED_XS[-1]
    else:
        a, b = 0.0, 2.0
    assert got[:, 0].tolist() == np.linspace(a, b, points).tolist()
    np.testing.assert_allclose(got[:, 0], -want[:, 0], rtol=0, atol=1e-15)
    sign = -1.0 if mode == "impedance" else 1.0
    values, mirrored = got[:, 1:3], sign * want[:, 1:3]
    assert np.max(np.abs(values - mirrored)) <= 1e-12 * np.max(np.abs(mirrored))


def test_profile_wavefunction_at_a_slab_level():
    # E = 1 is the barrier's level: psi = t (1 + i k (x - 2)) across it,
    # with t = 1 / (1 - i k) for unit incidence
    proc = run_cli("profile", "--spec", str(DOCS / "barrier.json"), "--energy", "1.0",
                   "--mode", "wavefunction")
    assert proc.returncode == 0, proc.stderr
    header, rows = rows_of(proc.stdout)
    assert header == ["x", "re_psi", "im_psi", "abs2_psi"]
    x, re_psi, im_psi = (np.array([float(r[i]) for r in rows]) for i in range(3))
    k = math.sqrt(2.0)
    want = (1.0 + 1j * k * (x - 2.0)) / (1.0 - 1j * k)
    assert len(x) > 100
    np.testing.assert_allclose(re_psi + 1j * im_psi, want, rtol=0, atol=1e-12)


def test_validate_at_an_interior_level_below_the_far_lead(tmp_path):
    # E = 1 is the first slab's level and lies below the right lead, so the
    # residual's psi is bridged slab by slab, across the level linearly
    doc = {
        "params": {"hbar": 1.0, "mass": 1.0},
        "potential": {
            "kind": "piecewise",
            "left_level": 0.0,
            "right_level": 2.0,
            "segments": [
                {"x_start": 0.0, "x_end": 1.0, "u": 1.0},
                {"x_start": 1.0, "x_end": 2.0, "u": -1.0},
            ],
        },
    }
    proc = run_cli("validate", "--spec", write_spec(tmp_path, doc), "--energy", "1.0")
    assert proc.returncode == 0, proc.stderr
    header, rows = rows_of(proc.stdout)
    assert [(r[0], r[-1]) for r in rows] == [
        ("delta_R", "ok"), ("delta_T", "ok"), ("residual", "ok")
    ]


def test_validate_residual_on_a_bridged_psi(tmp_path, random_stack_instances):
    # validate checks the psi that profile prints: an untracked
    # trajectory, bridged slab by slab.  Rebuilt from the tracked integral
    # of Z instead, conftest stack 30 failed here with residuals 3.15e-6
    # and 4.19e-6
    pot = random_stack_instances[30][0]
    doc = {"potential": {
        "kind": "piecewise", "left_level": pot.left_level, "right_level": pot.right_level,
        "segments": [{"x_start": s.x_start, "x_end": s.x_end, "u": s.u} for s in pot.segments],
    }}
    spec = write_spec(tmp_path, doc)
    for energy in ("0.978", "1.0875"):
        proc = run_cli("validate", "--spec", spec, "--energy", energy)
        assert proc.returncode == 0, (energy, proc.stdout, proc.stderr)
        header, rows = rows_of(proc.stdout)
        assert [(r[0], r[-1]) for r in rows] == [
            ("delta_R", "ok"), ("delta_T", "ok"), ("residual", "ok")
        ]


def test_validate_bare_step_checks_the_deltas(tmp_path):
    # a step has no interior to rebuild psi on; scatter solves it, and
    # validate stopped with 'anchor and target coincide', exit 2
    doc = {"potential": {"kind": "piecewise", "left_level": 0.0, "right_level": 1.0,
                         "segments": [], "step_x": 0.5}}
    spec = write_spec(tmp_path, doc)
    proc = run_cli("validate", "--spec", spec, "--energy", "2.0")
    assert proc.returncode == 0, proc.stderr
    header, rows = rows_of(proc.stdout)
    assert header == ["check", "value", "tolerance", "status"]
    assert [(r[0], r[-1]) for r in rows] == [("delta_R", "ok"), ("delta_T", "ok")]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("mode", ["impedance", "wavefunction"])
def test_profile_bare_step_has_no_interior(tmp_path, mode, side):
    # as validate skips its residual there, a step has no interior to
    # profile: an input error that says so, not the stepper's 'anchor and
    # target coincide'
    doc = {"potential": {"kind": "piecewise", "left_level": 0.0, "right_level": 1.0,
                         "segments": [], "step_x": 0.5}}
    spec = write_spec(tmp_path, doc)
    proc = run_cli("profile", "--spec", spec, "--energy", "2.0", "--mode", mode, "--side", side)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error\tInput\ta bare step has no interior to profile"]


def test_validate_thick_barrier_is_solver_error(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"][0]["x_end"] = 1e4
    spec = write_spec(tmp_path, doc)
    proc = run_cli("validate", "--spec", spec, "--energy", "0.5")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error\t")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tNonFiniteState\t")


def test_validate_product_overflow_is_solver_error(tmp_path):
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"] = [
        {"x_start": 0.0, "x_end": 500.0, "u": 1.0},
        {"x_start": 500.0, "x_end": 1000.0, "u": 1.0},
    ]
    spec = write_spec(tmp_path, doc)
    proc = run_cli("validate", "--spec", spec, "--energy", "0.5")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error\t")]
    assert len(errors) == 1
    assert errors[0].startswith("error\tNonFiniteState\t")


def test_validate_rejects_sampled(tmp_path):
    doc = {
        "params": {"hbar": 1.0, "mass": 1.0},
        "potential": {
            "kind": "sampled",
            "left_level": 0.0,
            "right_level": 0.0,
            "samples": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
        },
    }
    spec = write_spec(tmp_path, doc)
    proc = run_cli("validate", "--spec", spec, "--energy", "2.0")
    assert proc.returncode == 2


def test_missing_spec_file_is_input_error(tmp_path):
    proc = run_cli("scatter", "--spec", str(tmp_path / "gone.json"),
                   "--energy", "2.0")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000, b'{"a": ' * 5000 + b"1" + b"}" * 5000, b"\xff\xfe{}"],
    ids=["deep-arrays", "deep-objects", "not-utf8"],
)
def test_unparseable_spec_is_a_spec_file_error(tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    proc = run_cli("scatter", "--spec", str(path), "--energy", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error\tSpecFile\t") and "spec.json" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [["sweep", "--emin", "0.1", "--emax", "2"], ["profile", "--energy", "1.5"]],
    ids=["sweep", "profile"],
)
def test_unallocatable_point_count_is_input_error(args):
    # 1e14 points are 728 TiB of float64: numpy refuses the allocation at
    # once, without touching memory
    verb, *rest = args
    proc = run_cli(verb, "--spec", str(DOCS / "barrier.json"), *rest,
                   "--points", "100000000000000")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error\tInput\t--points 100000000000000")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_piecewise_scatter_loads_no_numpy(side):
    # the piecewise chain is plain complex arithmetic; numpy and the
    # numpy layers load only for the verbs that run them
    argv = ["qwim", "scatter", "--spec", str(DOCS / "barrier.json"),
            "--energy", "1.5", "--side", side]
    code = (
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('qwim', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "names = ('numpy', 'qwim.riccati', 'qwim.spectral', 'qwim.xcheck', 'qwim._arrays')\n"
        "print(rc, [m for m in names if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert proc.stdout.splitlines()[-2].startswith("1.5\t")


def test_piecewise_bound_loads_no_numpy():
    # bound states are bisected on the node count and refined on the
    # scalar chain: no scan grid, so no numpy
    argv = ["qwim", "bound", "--spec", str(DOCS / "well.json")]
    code = (
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('qwim', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "names = ('numpy', 'qwim._arrays', 'qwim.riccati', 'qwim.xcheck')\n"
        "print(rc, [m for m in names if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "0 []"
    assert lines[0] == "index\tE\tresidual" and len(lines) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--spec", str(DOCS / "well.json")],
        ["resonances", "--spec", str(DOCS / "barrier.json"), "--emin", "1.0", "--emax", "13.0"],
    ],
    ids=["bound", "resonances"],
)
def test_spectral_commands_load_no_stepper(argv):
    # the searches chain exact slab maps; the Riccati stepper loads only
    # under --force-numeric, and the square-well oracle not at all
    code = (
        "import runpy, sys\n"
        f"sys.argv = {['qwim'] + argv!r}\n"
        "try:\n"
        "    runpy.run_module('qwim', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "print(rc, [m for m in ('qwim.riccati', 'qwim.xcheck') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert len(proc.stdout.splitlines()) == 5  # header and three states or resonances


def test_resonances_take_no_probe():
    # a resonance is a zero of r at the entry edge: there is no matching
    # point to choose
    proc = run_cli("resonances", "--spec", str(DOCS / "barrier.json"),
                   "--emin", "1.0", "--emax", "13.0", "--probe-x", "0.5")
    assert proc.returncode == 2
    assert "--probe-x" in proc.stderr


def test_scatter_does_not_import_scipy_optimize(tmp_path):
    # scipy.optimize costs more to import than all of qwim; only the
    # spectral searches and the square-well oracle load it
    spec = write_spec(tmp_path, BARRIER_DOC)
    code = (
        "import sys\n"
        "import qwim\n"
        "from qwim import cli\n"
        f"rc = cli.main(['scatter', '--spec', {spec!r}, '--energy', '2.0'])\n"
        "print('scipy.optimize' in sys.modules, rc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_spectral_commands_import_no_scipy():
    # the root finder and minimiser are qwim's own: neither the searches
    # nor the square-well oracle load any part of scipy
    code = (
        "import sys\n"
        "from qwim import cli\n"
        "from qwim.xcheck import square_well_eigenvalues\n"
        f"a = cli.main(['bound', '--spec', {str(DOCS / 'well.json')!r}])\n"
        f"b = cli.main(['resonances', '--spec', {str(DOCS / 'barrier.json')!r},"
        " '--emin', '1.0', '--emax', '13.0'])\n"
        "n = len(square_well_eigenvalues(5.0, 2.0))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), a, b, n)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0 0 3"
