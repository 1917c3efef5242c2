"""End-to-end command-line checks, through subprocesses, and through
``cli.main`` in-process where what the process has loaded does not
matter."""

import cmath
import dataclasses
import itertools
import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qwim.analytic import region_constants
from qwim.model import Side
from qwim.scattering import solve_scattering
from qwim.specfile import load_spec

from oracles import _slab

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
    "verb, args",
    [
        pytest.param("scatter", ["--energy", "nan"], id="scatter-nan"),
        pytest.param("scatter", ["--energy", "inf"], id="scatter-inf"),
        pytest.param("profile", ["--energy", "nan"], id="profile-nan"),
        # numpy's grid wrote a RuntimeWarning and its source line first
        pytest.param("sweep", ["--emin", "0.1", "--emax", "inf", "--points", "5"],
                     id="sweep-inf"),
    ],
)
def test_non_finite_energy_is_input_error(tmp_path, verb, args):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli(verb, "--spec", spec, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    errors = proc.stderr.splitlines()
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


def test_force_numeric_scatter_through_an_evanescent_tail(tmp_path, random_stack_instances):
    # conftest stack 7 with its right lead raised to 1.2, at E = 0.9 from
    # the left: the stepper's step underflowed near x = 3.689 while it
    # carried the running integral of Z in its error norm.  R is 1, the
    # chain's to 1e-8
    pot = random_stack_instances[7][0]
    doc = {"potential": {
        "kind": "piecewise", "left_level": pot.left_level, "right_level": 1.2,
        "segments": [{"x_start": s.x_start, "x_end": s.x_end, "u": s.u} for s in pot.segments],
    }}
    spec = write_spec(tmp_path, doc)
    got = {}
    for flags in ((), ("--force-numeric",)):
        proc = run_cli("scatter", "--spec", spec, "--energy", "0.9", *flags)
        assert proc.returncode == 0, (flags, proc.stderr)
        assert "note\tevanescent-tail" in proc.stderr
        header, rows = rows_of(proc.stdout)
        got[flags] = dict(zip(header, map(float, rows[0])))
    chain, numeric = got[()], got[("--force-numeric",)]
    assert chain["R"] == pytest.approx(1.0, abs=1e-12) and numeric["T"] == 0.0
    assert abs(numeric["R"] - chain["R"]) <= 1e-8


def test_sweep_grid_contract(tmp_path):
    spec = write_spec(tmp_path, BARRIER_DOC)
    proc = run_cli("sweep", "--spec", spec, "--emin", "1.0", "--emax", "4.0",
                   "--points", "5")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert header[-1] == "error"
    assert len(rows) == 5
    es = [float(r[0]) for r in rows]
    assert es == np.linspace(1.0, 4.0, 5).tolist()
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


def _spec_of(pot):
    """The spec document of a piecewise potential."""
    return {"potential": {
        "kind": "piecewise", "left_level": pot.left_level, "right_level": pot.right_level,
        "segments": [{"x_start": s.x_start, "x_end": s.x_end, "u": s.u} for s in pot.segments],
    }}


def _main(capsys, *argv):
    """``qwim`` run in this process: (exit code, stdout, stderr)."""
    from qwim import cli

    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_sweep_rows_match_scatter(tmp_path, capsys, random_stack_instances):
    # a cold sweep on a piecewise spec, or on a sampled one whose walks
    # cost less than numpy's import, solves each energy as scatter does,
    # so its rows are scatter's, digit for digit, from either side.  On
    # the barrier, E = 1.0 is the barrier top, where psi is linear across
    # the barrier: a finite row like the others.  The sampled rows take
    # the twin's sub-slab maps, and scatter in this process numpy's
    # series, which gives the same bits
    stack = write_spec(tmp_path, _spec_of(random_stack_instances[7][0]))
    sampled = write_spec(tmp_path, SAMPLED_DOC, "sampled.json")
    scatter = partial(_main, capsys)
    cases = [(str(DOCS / "barrier.json"), "0.5", "1.5"), (stack, "0.5", "4.5"), (sampled, "0.5", "4.5")]
    for (spec, emin, emax), side in itertools.product(cases, ("left", "right")):
        proc = run_cli("sweep", "--spec", spec, "--emin", emin, "--emax", emax,
                       "--points", "3", "--side", side)
        assert proc.returncode == 0, proc.stderr
        header, rows = rows_of(proc.stdout)
        assert [r[0] for r in rows][::2] == [emin, emax]
        for row in rows:
            assert row[-1] == "-"
            code, out, _ = scatter("scatter", "--spec", spec, "--energy", row[0], "--side", side)
            assert code == 0
            assert out == "\t".join(header[:-1]) + "\n" + "\t".join(row[:-1]) + "\n"


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


def test_resonances_wide_window_is_not_transparent(tmp_path):
    # the barrier reflects R(0.5) = 0.929, yet all 400 scan energies of
    # (0.01, 1e8] lie past E = 2.5e5, where R < 1e-12: transparency is a
    # property of the potential (one level everywhere), not of the scan,
    # so the window is searched and no note is printed.  There |r| is
    # below RESONANCE_TOL at every scan energy, so only roots of both
    # components that agree count as resonances
    spec = write_spec(tmp_path, BARRIER_DOC)
    _, rows = rows_of(run_cli("scatter", "--spec", spec, "--energy", "0.5").stdout)
    assert abs(float(rows[0][5]) - 0.929) < 1e-3
    proc = run_cli("resonances", "--spec", spec, "--emin", "0.01", "--emax", "1e8")
    assert proc.returncode == 0
    assert "transparent" not in proc.stderr
    _, rows = rows_of(proc.stdout)
    assert all(float(row[2]) < 1e-8 for row in rows)


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
        ("delta_R", "ok"), ("delta_T", "ok"), ("psi_error", "ok")
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
        ("delta_R", "ok"), ("delta_T", "ok"), ("psi_error", "ok")
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


def _exact_field(pot, e, side, xs, t):
    """Z and psi at each x of the scattering state with transmitted
    amplitude t, in the potential's own frame: each x walked alone from
    the far edge by the closed-form slab steps of tests/oracles.py."""
    right = side == "right"
    u_far, x_far = (pot.left_level, pot.a) if right else (pot.right_level, pot.b)
    lead = region_constants(e, u_far)
    psi_far = t * cmath.exp(1j * lead.k * (-x_far if right else x_far)) if e > u_far else t
    zs, psis = [], []
    for x in xs:
        z_at, psi = (-lead.z if right else lead.z), psi_far
        for seg in pot.segments if right else reversed(pot.segments):
            length = min(seg.x_end, max(x, x_far)) - max(seg.x_start, min(x, x_far))
            if length > 0.0:
                rc = region_constants(e, seg.u)
                num, den, f = _slab(rc.z, rc.gamma, z_at, length if right else -length)
                z_at, psi = num / den, psi * den / f
        zs.append(z_at)
        psis.append(psi)
    return np.array(zs), np.array(psis)


def test_profile_walks_the_closed_form_field(tmp_path, capsys, random_stack_instances):
    # without --force-numeric, profile walks the exact chain from the far
    # edge, cut at the grid points
    docs = [load_spec(str(DOCS / name)).potential for name in ("barrier.json", "well.json")]
    stacks = [(pot, energies[::5].tolist()) for pot, energies in random_stack_instances[:10]]
    asymmetric = dataclasses.replace(random_stack_instances[7][0], right_level=1.2)
    cases = [(pot, [-2.0, 0.4, 2.3]) for pot in docs] + stacks + [(asymmetric, [0.9, 2.0])]
    points = 41
    for pot, energies in cases:
        spec = write_spec(tmp_path, _spec_of(pot))
        xs = np.linspace(pot.a, pot.b, points)
        for e, side in itertools.product(energies, ("left", "right")):
            u_in = pot.right_level if side == "right" else pot.left_level
            res = solve_scattering(pot, e, Side(side)) if e > u_in else None
            want_z, want_psi = _exact_field(pot, e, side, xs, res.t if res else 1.0)
            for mode in ("impedance", "wavefunction"):
                code, out, err = _main(capsys, "profile", "--spec", spec, "--energy", repr(e),
                                       "--mode", mode, "--side", side, "--points", str(points))
                if mode == "wavefunction" and res is None:
                    assert code == 3 and err.startswith("error\tEvanescentIncidence\t")
                    continue
                assert code == 0 and err == "", err
                header, rows = rows_of(out)
                got = np.array(rows, dtype=float)
                assert got[:, 0].tolist() == xs.tolist()
                values = got[:, 1] + 1j * got[:, 2]
                want = want_z if mode == "impedance" else want_psi
                scale = np.max(np.abs(want))
                assert np.max(np.abs(values - want)) <= 1e-12 * scale, (e, side, mode)
                if mode == "wavefunction":
                    # psi at the far edge is scatter's t times its lead phase
                    far = 0 if side == "right" else -1
                    assert abs(values[far] - want_psi[far]) <= 1e-13 * scale


def test_sampled_profile_agrees_with_a_tight_stepper(tmp_path, capsys):
    # on a sampled spec the chain walks every piece's sub-slab maps from
    # one pass; a stepper run at tight tolerances lands within its own
    # global error of it
    spec = write_spec(tmp_path, SAMPLED_DOC)
    tight = ("--force-numeric", "--rel-tol", "1e-12", "--abs-tol", "1e-14")
    for mode, side in itertools.product(("impedance", "wavefunction"), ("left", "right")):
        argv = ("profile", "--spec", spec, "--energy", "2.3", "--mode", mode, "--side", side,
                "--points", "101")
        (c1, chain, _), (c2, stepper, _) = _main(capsys, *argv), _main(capsys, *argv, *tight)
        assert c1 == c2 == 0
        got, want = (np.array(rows_of(out)[1], dtype=float) for out in (chain, stepper))
        assert got[:, 0].tolist() == want[:, 0].tolist()
        values, ref = got[:, 1] + 1j * got[:, 2], want[:, 1] + 1j * want[:, 2]
        assert np.max(np.abs(values - ref)) <= 1e-11 * np.max(np.abs(ref)), (mode, side)


def test_profile_through_repeated_grid_points(tmp_path, capsys):
    # samples 8 apart at 1e16 leave no room for 33 distinct points: the
    # grid repeats points inside sample cells, and the chain walks no
    # slab between two equal points (a linear sub-slab of length 0 has no
    # map)
    doc = {"potential": {"kind": "sampled", "left_level": 0.0, "right_level": 0.0,
                         "samples": [[1e16, 0.0], [1e16 + 8.0, 1.0], [1e16 + 16.0, 0.0]]}}
    spec = write_spec(tmp_path, doc)
    code, out, err = _main(capsys, "profile", "--spec", spec, "--energy", "2.0", "--points", "33")
    assert code == 0, err
    got = np.array(rows_of(out)[1], dtype=float)
    xs = np.linspace(1e16, 1e16 + 16.0, 33)
    assert got[:, 0].tolist() == xs.tolist() and len(set(xs.tolist())) < 33
    assert np.isfinite(got).all()
    same = np.flatnonzero(np.diff(xs) == 0.0)
    assert len(same) and (got[same, 1:] == got[same + 1, 1:]).all()


@pytest.mark.parametrize("side", ["left", "right"])
def test_profile_exit_codes_below_and_at_a_lead(capsys, side):
    # the barrier's leads are at 0: below them the impedance still has a
    # profile, the scattering state has none, and at them neither has
    spec = str(DOCS / "barrier.json")
    for energy, mode, code, error in [
        ("-0.3", "impedance", 0, None),
        ("-0.3", "wavefunction", 3, "EvanescentIncidence"),
        ("0", "impedance", 3, "DegenerateEnergy"),
        ("0", "wavefunction", 3, "DegenerateEnergy"),
    ]:
        got, out, err = _main(capsys, "profile", "--spec", spec, "--energy", energy,
                              "--mode", mode, "--side", side)
        assert got == code
        if error is None:
            assert err == "" and len(out.splitlines()) == 402
        else:
            assert out == "" and err.startswith(f"error\t{error}\t")
            assert len(err.splitlines()) == 1


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
        ("delta_R", "ok"), ("delta_T", "ok"), ("psi_error", "ok")
    ]


def test_validate_residual_on_a_bridged_psi(tmp_path, random_stack_instances):
    # validate checks the psi that profile prints: the trajectory's Z,
    # bridged slab by slab.  Rebuilt from a running integral of Z
    # instead, conftest stack 30 failed here with residuals 3.15e-6 and
    # 4.19e-6
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
            ("delta_R", "ok"), ("delta_T", "ok"), ("psi_error", "ok")
        ]


@pytest.mark.parametrize("x_end", [0.01, 0.005, 0.02, 1e-12, 1e-15, 1e-300])
def test_validate_on_a_short_barrier(tmp_path, x_end):
    # a five-point Schrodinger residual on an 801-point grid failed here:
    # roundoff over h^2 gave 2.09e-6 on 0.01 and 6.4e-6 on 0.005, and on
    # 1e-12 repeated samples gave numpy warnings and nan.  1e-15 and
    # 1e-300 are shorter than the stepper's step floor: it crosses them in
    # one exact slab step, where it took none and left a one-sample
    # trajectory (InsufficientSamples, exit 3)
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"][0]["x_end"] = x_end
    proc = run_cli("validate", "--spec", write_spec(tmp_path, doc), "--energy", "0.5")
    assert proc.returncode == 0, proc.stdout
    assert proc.stderr == ""
    header, rows = rows_of(proc.stdout)
    assert [(r[0], r[-1]) for r in rows] == [
        ("delta_R", "ok"), ("delta_T", "ok"), ("psi_error", "ok")
    ]


@pytest.mark.parametrize("x_end", [1e-12, 1e-15])
def test_numeric_profile_prints_the_grid(tmp_path, capsys, x_end):
    # the trajectory is read at the grid's points, so every row is the
    # grid's own x, none repeated: merged into the stepper's stops, the
    # grid on 1e-12 gave 83 distinct x in 401 rows, and on 1e-15 one
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"][0]["x_end"] = x_end
    spec = write_spec(tmp_path, doc)
    xs = np.linspace(0.0, x_end, 401).tolist()
    assert len(set(xs)) == 401
    for mode, side in itertools.product(("impedance", "wavefunction"), ("left", "right")):
        code, out, err = _main(capsys, "profile", "--spec", spec, "--energy", "0.5", "--mode", mode,
                               "--side", side, "--force-numeric", "--points", "401")
        assert code == 0 and err == "", err
        got = np.array(rows_of(out)[1], dtype=float)
        assert got[:, 0].tolist() == xs and np.isfinite(got).all(), (mode, side)


def test_numeric_profile_reads_the_chain_field(random_stack_instances):
    # the stepper's trajectory read at 401 points against the chain's
    # profile there, on docs/*.json and the conftest stacks from both
    # sides: psi, rebuilt from the read Z, within validate's bound (2.6e-9
    # at worst, on stack 21 from the right at E = 1.0875, where the
    # Dormand-Prince 5(4) pair's own samples missed it at 3.2e-8).  Z is
    # within 1e-6 of max(|Z|, 1) (6.8e-8 at worst)
    from qwim.analytic import _listed, _read
    from qwim.cli import VALIDATE_DELTA_TOL
    from qwim.model import IntegrationConfig, ModelParams
    from qwim.scattering import _Incidence

    pots = [load_spec(str(DOCS / name)).potential for name in ("barrier.json", "well.json")]
    pots += [pot for pot, _ in random_stack_instances]
    cfg, params = IntegrationConfig(force_numeric=True), ModelParams()

    def errors(walk, e, xs, zs):
        want_z, want_psi = walk.profile(e, xs)
        psi = walk.psi(e, xs, zs)
        return (max(abs(p - q) for p, q in zip(psi, want_psi)) / max(map(abs, want_psi)),
                max(abs(p - q) for p, q in zip(zs, want_z)) / max(1.0, max(map(abs, want_z))))

    worst = 0.0
    for pot in pots:
        grid = np.linspace(pot.a, pot.b, 401).tolist()
        for e, side in itertools.product((0.3, 1.0875, 2.0), Side):
            walk = _Incidence(pot, side, cfg, params)
            xs, zs = walk.trajectory(e)
            read_xs, read_zs = map(_listed, _read(pot, e, xs, zs, grid, walk.c))
            assert read_xs == grid
            psi_error, z_error = errors(walk, e, read_xs, read_zs)
            assert psi_error < VALIDATE_DELTA_TOL, (pot, e, side)
            worst = max(worst, z_error)
    assert worst < 1e-6


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every qwim module that
    holds it."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qwim") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("side", ["left", "right"])
def test_numeric_profile_walks_once(capsys, monkeypatch, side):
    # a wavefunction profile takes r from its own walk's Z(entry): one
    # stepper integration and one psi bridge, where a separate solve for r
    # made two of each; an impedance profile bridges nothing
    from qwim import analytic, cli, riccati  # noqa: F401 (cli loaded before the count)

    trajectories = _count_calls(monkeypatch, riccati, "_trajectory")
    bridges = _count_calls(monkeypatch, analytic, "_bridge")
    for mode, want in (("wavefunction", 1), ("impedance", 0)):
        trajectories.clear()
        bridges.clear()
        code, out, err = _main(capsys, "profile", "--spec", str(DOCS / "barrier.json"),
                               "--energy", "1.5", "--mode", mode, "--side", side,
                               "--force-numeric")
        assert code == 0 and err == "", err
        assert len(trajectories) == 1 and len(bridges) == want, mode


def test_numeric_right_wavefunction_is_the_mirrors(random_stack_instances):
    # right incidence on the stepper is bitwise the mirror's left
    # incidence, rows reversed, read at the negated grid points (the CLI's
    # two linspace grids differ in their last bits)
    from qwim.model import IntegrationConfig, ModelParams, SampledPotential
    from qwim.scattering import _Incidence

    pots = [load_spec(str(DOCS / name)).potential for name in ("barrier.json", "well.json")]
    pots += [pot for pot, _ in random_stack_instances[:12]]
    samples, levels = SAMPLED_DOC["potential"]["samples"], SAMPLED_DOC["potential"]
    pots.append(SampledPotential(tuple(x for x, _ in samples), tuple(u for _, u in samples),
                                 levels["left_level"], levels["right_level"]))
    cfg, params = IntegrationConfig(force_numeric=True), ModelParams()
    for pot in pots:
        grid = np.linspace(pot.a, pot.b, 101).tolist()
        back = [-x for x in reversed(grid)]
        for e in (0.5, 1.0875, 2.3):
            right = _Incidence(pot, Side.RIGHT, cfg, params).wavefunction(e, grid)
            left = _Incidence(pot.mirrored(), Side.LEFT, cfg, params).wavefunction(e, back)
            assert right == left[::-1], (pot, e)


def test_numeric_profile_through_repeated_grid_points(tmp_path, capsys):
    # the stepper crosses each sample cell 8 apart at 1e16 in one exact
    # step; the grid's points equal to a or b read the trajectory's end
    # samples, so every grid point gets its row, as on the chain
    doc = {"potential": {"kind": "sampled", "left_level": 0.0, "right_level": 0.0,
                         "samples": [[1e16, 0.0], [1e16 + 8.0, 1.0], [1e16 + 16.0, 0.0]]}}
    spec = write_spec(tmp_path, doc)
    xs = np.linspace(1e16, 1e16 + 16.0, 33).tolist()
    for mode, side in itertools.product(("impedance", "wavefunction"), ("left", "right")):
        argv = ("profile", "--spec", spec, "--energy", "2.0", "--points", "33", "--mode", mode,
                "--side", side)
        (c1, chain, _), (c2, stepper, err) = _main(capsys, *argv), _main(capsys, *argv, "--force-numeric")
        assert c1 == c2 == 0, err
        got, want = (np.array(rows_of(out)[1], dtype=float) for out in (stepper, chain))
        assert got[:, 0].tolist() == xs == want[:, 0].tolist()
        values, ref = got[:, 1] + 1j * got[:, 2], want[:, 1] + 1j * want[:, 2]
        assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref)), (mode, side)


def test_numeric_wavefunction_across_a_long_barrier(tmp_path, capsys):
    # the barrier (0, 60) at height 2, 7 points at E = 0.7: psi bridged
    # only from each interval's larger-|Z| end printed |psi|^2 = 4.16e-38
    # at x = 30 and 2.27e-71 at x = 60, where the chain prints 1.35e-42
    # and 3.37e-84
    doc = json.loads(json.dumps(BARRIER_DOC))
    doc["potential"]["segments"] = [{"x_start": 0.0, "x_end": 60.0, "u": 2.0}]
    spec = write_spec(tmp_path, doc)
    argv = ("profile", "--spec", spec, "--energy", "0.7", "--mode", "wavefunction", "--points", "7")
    (c1, chain, _), (c2, stepper, err) = _main(capsys, *argv), _main(capsys, *argv, "--force-numeric")
    assert c1 == c2 == 0, err
    got, want = (np.array(rows_of(out)[1], dtype=float)[:, 3] for out in (stepper, chain))
    assert abs(want[3] / 1.35e-42 - 1.0) < 0.01 and abs(want[6] / 3.37e-84 - 1.0) < 0.01
    assert np.max(np.abs(got / want - 1.0)) <= 1e-8


@pytest.mark.parametrize(
    "flags, code",
    [(("--energy", "0.5", "--rel-tol", "0", "--abs-tol", "1e-300"), "StepSizeUnderflow"),
     (("--energy", "1e300"), "NonFiniteState")],
    ids=["underflow", "overflow"],
)
@pytest.mark.parametrize("verb", ["scatter", "validate"])
def test_stepper_guards_exit_3(tmp_path, capsys, verb, flags, code):
    # on the barrier (0, 2) at height 1: with no relative tolerance and an
    # absolute one far below rounding, no step is ever accepted; at
    # E = 1e300 the first trial step's state overflows
    spec = write_spec(tmp_path, BARRIER_DOC)
    numeric = ("--force-numeric",) if verb == "scatter" else ()
    got, out, err = _main(capsys, verb, "--spec", spec, *flags, *numeric)
    assert got == 3 and out == ""
    assert err.startswith(f"error\t{code}\t") and len(err.splitlines()) == 1


def test_validate_fails_on_a_loose_psi(tmp_path, capsys, random_stack_instances):
    # at rel_tol 1e-6 the stepper's psi is off the chain's by about 1.7e-5
    spec = write_spec(tmp_path, _spec_of(random_stack_instances[30][0]))
    code, out, _ = _main(capsys, "validate", "--spec", spec, "--energy", "1.0875",
                         "--rel-tol", "1e-6")
    assert code == 3
    header, rows = rows_of(out)
    assert [(r[0], r[-1]) for r in rows] == [
        ("delta_R", "ok"), ("delta_T", "ok"), ("psi_error", "fail")
    ]


def test_validate_readme_example_matches_a_run():
    # the README prints this run: its checks, tolerances and statuses must
    # be the command's own
    lines = (DOCS.parent / "README.md").read_text().splitlines()
    start = lines.index("    $ qwim validate --spec docs/barrier.json --energy 2.0") + 1
    shown = [ln.strip().split("\t")
             for ln in itertools.takewhile(lambda ln: ln.startswith("    "), lines[start:])]
    proc = run_cli("validate", "--spec", str(DOCS / "barrier.json"), "--energy", "2.0")
    assert proc.returncode == 0
    header, rows = rows_of(proc.stdout)
    assert [[r[0], r[2], r[3]] for r in shown] == [[r[0], r[2], r[3]] for r in [header, *rows]]


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


SAMPLED_WELL_DOC = {
    "potential": {
        "kind": "sampled",
        "left_level": 0.0,
        "right_level": 0.0,
        "samples": [[x, -4.0 * math.exp(-x * x / 2.0)] for x in SAMPLED_XS.tolist()],
    },
}


def _verb_row(name, argv, loads=()):
    return pytest.param(argv, loads, id=name)


@pytest.mark.parametrize(
    "argv, loads",
    [
        _verb_row("scatter-left", ["scatter", "barrier", "--energy", "1.5"]),
        _verb_row("scatter-right", ["scatter", "barrier", "--energy", "1.5", "--side", "right"]),
        _verb_row("sweep-left", ["sweep", "barrier", "--emin", "0.5", "--emax", "1.5"]),
        _verb_row("sweep-right",
                  ["sweep", "barrier", "--emin", "0.5", "--emax", "1.5", "--side", "right"]),
        _verb_row("bound", ["bound", "well"]),
        _verb_row("resonances-left", ["resonances", "barrier", "--emin", "1", "--emax", "13"]),
        _verb_row("resonances-right",
                  ["resonances", "barrier", "--emin", "1", "--emax", "13", "--side", "right"]),
        *(
            _verb_row(f"profile-{mode}-{side}",
                      ["profile", "barrier", "--energy", "1.5", "--mode", mode, "--side", side])
            for mode in ("impedance", "wavefunction") for side in ("left", "right")
        ),
        # 50 walks of 40 sub-slab maps are fewer than numpy's import costs
        # (analytic._IMPORT_MAPS); 300 walks are more
        _verb_row("sweep-sampled", ["sweep", "sampled", "--emin", "0.5", "--emax", "1.5"]),
        _verb_row("sweep-sampled-past-import",
                  ["sweep", "sampled", "--emin", "0.5", "--emax", "1.5", "--points", "300"],
                  loads=("numpy", "qwim._arrays")),
        *(
            _verb_row(f"sweep-numeric-sampled-{side}",
                      ["sweep", "sampled", "--emin", "0.5", "--emax", "1.5", "--points", "300",
                       "--side", side, "--force-numeric"],
                      loads=("qwim.riccati",))
            for side in ("left", "right")
        ),
        *(
            _verb_row(f"scatter-sampled-{side}",
                      ["scatter", "sampled", "--energy", "1.5", "--side", side])
            for side in ("left", "right")
        ),
        *(
            _verb_row(f"profile-sampled-{mode}-{side}",
                      ["profile", "sampled", "--energy", "1.5", "--mode", mode, "--side", side])
            for mode in ("impedance", "wavefunction") for side in ("left", "right")
        ),
        _verb_row("validate", ["validate", "barrier", "--energy", "1.5"], loads=("qwim.riccati",)),
        *(
            _verb_row(f"scatter-numeric-{side}",
                      ["scatter", "barrier", "--energy", "1.5", "--side", side, "--force-numeric"],
                      loads=("qwim.riccati",))
            for side in ("left", "right")
        ),
        *(
            _verb_row(f"profile-numeric-{mode}-{side}",
                      ["profile", "barrier", "--energy", "1.5", "--mode", mode, "--side", side,
                       "--force-numeric"],
                      loads=("qwim.riccati",))
            for mode in ("impedance", "wavefunction") for side in ("left", "right")
        ),
        *(
            _verb_row(f"profile-numeric-sampled-{mode}-{side}",
                      ["profile", "sampled", "--energy", "1.5", "--mode", mode, "--side", side,
                       "--force-numeric"],
                      loads=("qwim.riccati",))
            for mode in ("impedance", "wavefunction") for side in ("left", "right")
        ),
        # a search walks many energies: on a sampled potential numpy's
        # series serve them
        _verb_row("bound-sampled", ["bound", "sampled-well"], loads=("numpy", "qwim._arrays")),
    ],
)
def test_what_each_verb_loads(tmp_path, argv, loads):
    # at one energy, and on a piecewise spec at many, each verb walks in
    # plain Python and loads no numpy: the chain's scalar steps, a sampled
    # spec's sub-slab maps by their plain-Python twin, the Riccati
    # stepper's lists and their read at a profile's grid, on either kind
    # of spec; so does a sweep on a sampled spec whose walks cost less than
    # numpy's import, and one under --force-numeric whatever its size.  A
    # larger sweep grid, and a bound search, on a sampled spec load numpy
    # for its array series
    verb, doc, *rest = argv
    docs = {"sampled": SAMPLED_DOC, "sampled-well": SAMPLED_WELL_DOC}
    spec = write_spec(tmp_path, docs[doc]) if doc in docs else str(DOCS / f"{doc}.json")
    code = (
        "import runpy, sys\n"
        f"sys.argv = {['qwim', verb, '--spec', spec, *rest]!r}\n"
        "try:\n"
        "    runpy.run_module('qwim', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "names = ('numpy', 'qwim._arrays', 'qwim.riccati')\n"
        "print(rc, [m for m in names if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.splitlines()
    assert last == f"0 {list(loads)}", proc.stderr
    assert len(table) > 1 and proc.stderr == ""


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


def test_units_past_the_float_range_fail_alike_on_both_kinds(tmp_path):
    # at hbar 1e200 2m / hbar^2 underflows to 0: bound exited 3 on the
    # piecewise well (0, 2, -1) and printed an empty spectrum on the same
    # well sampled; the units' edge now fails both, and every verb gives
    # both kinds one exit code (sweep records the error at each point)
    piecewise = {"kind": "piecewise", "left_level": 0.0, "right_level": 0.0,
                 "segments": [{"x_start": 0.0, "x_end": 2.0, "u": -1.0}]}
    sampled = {"kind": "sampled", "left_level": 0.0, "right_level": 0.0,
               "samples": [[0.0, -1.0], [2.0, -1.0]]}
    specs = [write_spec(tmp_path, {"params": {"hbar": 1e200, "mass": 1.0}, "potential": pot}, f"{name}.json")
             for name, pot in (("piecewise", piecewise), ("sampled", sampled))]
    verbs = [["bound"], ["scatter", "--energy", "0.5"], ["sweep", "--emin", "0.1", "--emax", "2", "--points", "3"],
             ["resonances", "--emin", "0.1", "--emax", "2"], ["profile", "--energy", "0.5", "--points", "9"],
             ["validate", "--energy", "0.5"]]
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda args: run_cli(*args), [[*v, "--spec", spec] for v in verbs for spec in specs]))
    for verb, (piecewise, sampled) in zip(verbs, zip(procs[::2], procs[1::2])):
        assert piecewise.returncode == sampled.returncode == (0 if verb[0] == "sweep" else 3), verb
        if verb[0] == "bound":
            assert piecewise.stderr == sampled.stderr and "NonFiniteState" in sampled.stderr
    assert all(row.endswith("\tNonFiniteState") for proc in procs[4:6] for row in proc.stdout.splitlines()[1:])


def test_out_of_range_hbar_never_ends_in_a_traceback(tmp_path):
    # 2 m / hbar^2 underflows hbar ** 2 to 0 at hbar = 1e-200 and
    # overflows it at 1e200: every verb raised ZeroDivisionError or
    # OverflowError (exit 1) on the sampled spec, and scatter / profile
    # --force-numeric and validate did at 1e200 on the piecewise one
    sampled = {"kind": "sampled", "left_level": 0.0, "right_level": 0.0,
               "samples": [[-3.0, 0.0], [0.0, -2.0], [3.0, 0.0]]}
    verbs = [["scatter", "--energy", "0.5"], ["sweep", "--emin", "0.1", "--emax", "2", "--points", "5"],
             ["bound"], ["resonances", "--emin", "0.1", "--emax", "2"],
             ["profile", "--energy", "0.5", "--points", "9", "--mode", "wavefunction"],
             ["validate", "--energy", "0.5"]]
    runs = []
    for hbar, potential in ((1e-200, sampled), (1e200, sampled), (1e200, WELL_DOC["potential"])):
        spec = write_spec(tmp_path, {"params": {"hbar": hbar, "mass": 1.0}, "potential": potential},
                          f"{potential['kind']}-{hbar}.json")
        runs += [[*verb, "--spec", spec, *flag] for verb in verbs for flag in ([], ["--force-numeric"])]
    # two processes at a time
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda args: run_cli(*args), runs))
    for args, proc in zip(runs, procs):
        assert proc.returncode in (0, 2, 3) and "Traceback" not in proc.stderr, (args, proc.stderr)
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error\t")]
        assert len(errors) == (proc.returncode != 0), (args, proc.stderr)
