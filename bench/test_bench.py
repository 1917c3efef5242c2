"""Tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest bench -q
"""

import dataclasses
import importlib
import importlib.util
import itertools
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qwim  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _record(op, result):
    tally = run.Tally()
    tally.record(op, result)
    return tally


def test_perturbed_results_count_as_wrong():
    op = next(workloads.StackSweep(1).ops())
    results = op.run()
    assert _record(op, results).failures == []
    results[0] = dataclasses.replace(results[0], big_r=results[0].big_r + 1e-6)
    tally = _record(op, results)
    assert len(tally.failures) == 1 and tally.wrong == 1

    spectra = workloads.Spectra(1)
    op = next(o for o in spectra.ops() if o.label == "bound docs/well.json")
    result = op.run()
    assert _record(op, result).failures == []
    shifted = dataclasses.replace(result, energies=[result.energies[0] + 1e-6] + result.energies[1:])
    assert _record(op, shifted).wrong == 1


def test_known_incomplete_spectra_fail_without_being_wrong():
    ops = {}
    for op in workloads.Spectra(1).ops():
        if op.label.startswith(("bound ROADMAP", "resonances ROADMAP")):
            ops[op.label] = op
        if len(ops) == 3:
            break
    tally = run.Tally()
    clock = run.Clock()
    for op in ops.values():
        tally.record(op, clock.call(op.run)[0])
    assert len(tally.failures) == 3 and tally.wrong == 0


def test_trace_wraps_consumers_and_restores_every_name():
    mods = [importlib.import_module(m) for m in tracer.MODULES]
    originals = {(mod, attr): val for mod in mods for attr, val in vars(mod).items()}
    u_at = qwim.SampledPotential.__dict__["u_at"]
    op = next(workloads.StackSweep(1).ops())
    tr = tracer.Tracer()
    tr.install()
    try:
        assert hasattr(qwim.scattering.region_constants, "_bench_span")
        assert hasattr(qwim.analytic.region_constants, "_bench_span")
        assert not hasattr(qwim.xcheck.brentq, "_bench_span")  # optimizer: spectral only
        tr.run_op(1, op.run)
    finally:
        tr.restore()
    # patching qwim.analytic alone would leave these calls uncounted
    assert tr.stats["op"]["analytic.region_constants"].calls > 0
    assert tr.stats["op"]["scattering.energy_sweep"].calls == 1
    assert tracer.leftover_wrappers() == []
    for (mod, attr), val in originals.items():
        assert getattr(mod, attr) is val, f"{mod.__name__}.{attr}"
    assert qwim.SampledPotential.__dict__["u_at"] is u_at


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))
    outer = tr.wrap("outer", lambda: inner())
    tr.run_op(1, outer)
    st = tr.stats["op"]
    assert st["outer"].total >= 0.02 > st["outer"].self
    assert abs(st["bench.op"].total - st["outer"].total) < 0.01


def test_inputs_follow_the_seed():
    labels = lambda seed, wl: [op.label for op, _ in zip(wl(seed).ops(), range(30))]
    for cls in (workloads.StackSweep, workloads.SmoothRiccati, workloads.Spectra):
        assert labels(7, cls) == labels(7, cls)
        assert labels(7, cls) != labels(8, cls)


def test_inputs_that_fail_today_do_not_follow_the_seed(tmp_path):
    first = lambda wl, n: [op.label for op in itertools.islice(wl.ops(), n)]
    recon = lambda seed: [l for l in first(workloads.SmoothRiccati(seed), 200) if l.startswith("(d)")]
    assert len(recon(7)) == 40 and recon(7) == recon(8)
    passes = lambda seed: sorted(first(workloads.Spectra(seed), workloads.Spectra(seed).block))
    assert passes(7) == passes(8)
    clis = [workloads.CliCold(seed, ROOT, str(tmp_path)) for seed in (7, 8)]
    try:
        for key in ("square", "well", "symmetric"):
            assert clis[0].specs[key][0] == clis[1].specs[key][0]
    finally:
        for cli in clis:
            cli.close()


def test_run_length_is_whole_blocks_set_by_seconds():
    assert run.run_blocks("spectra", 12) == 20
    assert run.run_blocks("cli_cold", 12) == 3
    assert run.run_blocks("smooth_riccati", 0.1) == 1


def test_fixed_inputs_reproduce_conftest():
    spec = importlib.util.spec_from_file_location("qwim_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    rng = np.random.default_rng(conftest.SEED)
    for segs in workloads.conftest_stacks():
        pot = conftest._random_stack(rng)
        rng.uniform(0.05, 8.0, size=10)
        assert [(s.x_start, s.x_end, s.u) for s in pot.segments] == segs
    assert workloads.CONFTEST_SEED == conftest.SEED


@pytest.mark.parametrize("depth,width", workloads.conftest_wells()[:6] + [(5000.0, 2.0)])
def test_oscillation_count_matches_square_well_oracle(depth, width):
    energies = reference.bound_energies((0.0, [(0.0, width, -depth)], 0.0))
    expected = qwim.square_well_eigenvalues(depth, width)
    assert len(energies) == qwim.square_well_state_count(depth, width) == len(expected)
    assert np.allclose(energies, expected, rtol=0.0, atol=1e-9 * depth)


def test_oscillation_count_matches_finite_differences():
    double_well = (0.0, [(0.0, 2.0, -500.0), (2.0, 3.0, 0.0), (3.0, 5.0, -500.0)], 0.0)
    assert len(reference.bound_energies(double_well)) == 42
    assert len(reference.fd_levels(double_well, 0.002, 6.0)) == 42


def test_symmetric_resonances_are_full_transmission():
    segs = [(0.0, 1.0, 10.0), (1.0, 3.0, 0.0), (3.0, 4.0, 10.0)]
    energies = reference.symmetric_resonances((0.0, segs, 0.0), 1.0, 13.0)
    assert len(energies) == 3 and abs(energies[0] - 3.22052) < 1e-5
    pot = qwim.PiecewisePotential(0.0, tuple(qwim.PotentialSegment(*s) for s in segs), 0.0)
    for e in energies:
        assert qwim.transfer_matrix_solve(pot, e).big_r < 1e-12


def test_field_matches_scattering_amplitude():
    segs = [(0.0, 1.0, 2.0), (1.0, 2.5, -1.0), (2.5, 3.0, 0.5)]
    pot = qwim.PiecewisePotential(0.0, tuple(qwim.PotentialSegment(*s) for s in segs), 0.3)
    for e in (0.2, 1.5, 3.0):
        _, _, r = reference.field((0.0, segs, 0.3), e, [0.0])
        assert abs(r - qwim.solve_scattering(pot, e).r) < 1e-12


def test_bare_directory_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "spectra", "--seed", "1"]) == 2
