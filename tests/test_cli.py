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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qwim", *args],
        capture_output=True,
        text=True,
        timeout=300,
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
