"""The four benchmark workloads: inputs from a seed, the timed call, the check.

Every workload yields an endless, deterministic stream of ``Op``s.  The
same seed gives the same stream, op for op.  ``Op.run`` is the only call
that is timed.  ``Op.check`` compares its answer with a reference that
does not go through qwim's impedance path.  It runs outside the timed
region and returns None or the reason the op failed.

Fixed inputs do not depend on the seed: the random stacks and wells of
``tests/conftest.py`` (rebuilt here from their seeds, without importing
the tests), the two ``docs/`` examples, the three incomplete spectra of
ROADMAP item 2, and every input that some op fails on today (the
reconstructions of ``smooth_riccati`` and the multi-segment spectra of
``spectra`` and ``cli_cold``, drawn once from fixed seeds).  The seed
draws everything else: energy grids, incidence sides, deep stacks,
sampled potentials, CLI energies and the order of the ops.

A stream comes in blocks of ``block`` ops.  The fixed inputs come in the
same order for every seed, the same number in each block, so a run of a
fixed number of whole blocks meets the same fixed inputs whatever the
seed, and fails the same ops.

qwim is imported inside the workload constructors, not at module level,
so that a ``cli_cold`` set-up probe never pays for an import its user
would not pay for.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import reference

# tests/conftest.py: SEED for the random stacks, SEED + 1 for the wells.
CONFTEST_SEED = 20260823
# Agreement bound of ``qwim validate`` (cli.VALIDATE_DELTA_TOL): |dR|, |dT|
# against the transfer matrix, and |R + T - 1|.
TOL_RT = 1e-8
# ``qwim validate``'s bound on the Schrodinger residual of a reconstruction.
TOL_RESIDUAL = 1e-6
# A resonance must have R below this from the transfer matrix (as
# find_resonances itself requires).
TOL_RESONANCE_R = 1e-8
# Spectral energies agree with their reference to this share of the
# search window; both sides refine to near float resolution.
TOL_SPECTRUM = 1e-9
# Profiles agree with the exact field to this share of their largest value:
# the bound ``qwim validate`` puts on a numeric reconstruction (the Riccati
# stepper's global error at its default tolerances reaches a few 1e-7).
TOL_PROFILE = TOL_RESIDUAL


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``energies`` counts the scattering energies the op solves (0 where
    the op is not an energy solve).  ``states`` gives the reference
    number of states or resonances of a spectral op.  ``inprocess`` is
    the in-process equivalent of a subprocess op, used by the traced run.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    energies: int = 0
    states: "Callable[[], int] | None" = None
    inprocess: "Callable[[], Any] | None" = None


class Shortfall(str):
    """A failure reason for an op that gave no wrong answer.

    The op raised, reported its own failure (an exit code, an energy
    point error, a Schrodinger residual over its bound), or returned only
    true states but not all of them, the known incomplete-spectrum
    defect of ROADMAP item 2.  A plain ``str`` reason means the
    reference contradicts an answer the op returned as valid.
    """


# ---------------------------------------------------------------- inputs

def conftest_stacks() -> list[list[tuple[float, float, float]]]:
    """The 50 random stacks of tests/conftest.py, segment for segment."""
    rng = np.random.default_rng(CONFTEST_SEED)
    out = []
    for _ in range(50):
        n = int(rng.integers(1, 9))
        x = 0.0
        segs = []
        for _ in range(n):
            length = float(rng.uniform(0.1, 3.0))
            segs.append((x, x + length, float(rng.uniform(-3.0, 3.0))))
            x += length
        rng.uniform(0.05, 8.0, size=10)  # conftest draws each stack's energies here
        out.append(segs)
    return out


def conftest_wells() -> list[tuple[float, float]]:
    """The 20 random (depth, width) square wells of tests/conftest.py."""
    rng = np.random.default_rng(CONFTEST_SEED + 1)
    return [(float(rng.uniform(0.3, 30.0)), float(rng.uniform(0.4, 4.0)))
            for _ in range(20)]


def _random_segments(rng, n, length_range, level_range):
    x = 0.0
    segs = []
    for _ in range(n):
        length = float(rng.uniform(*length_range))
        segs.append((x, x + length, float(rng.uniform(*level_range))))
        x += length
    return segs


def _symmetric_segments(half):
    """Mirror a list of (length, level) about the end of the last entry."""
    x = 0.0
    segs = []
    for length, u in list(half) + list(reversed(half)):
        segs.append((x, x + length, u))
        x += length
    return segs


def _gaussian_samples(rng, amplitude, q):
    """Gaussian on 21..201 samples (by quantile q) across a random span."""
    n = 21 + int(181 * q)
    span = float(rng.uniform(4.0, 8.0))
    sigma = float(rng.uniform(0.5, 1.5))
    xs = np.linspace(-0.5 * span, 0.5 * span, n)
    us = amplitude * np.exp(-xs * xs / (2.0 * sigma * sigma))
    return xs, us, f"n={n} span={span:.4g} sigma={sigma:.4g}"


def _piecewise(left, segs, right):
    """qwim potential for plain (x_start, x_end, u) segment data."""
    from qwim import PiecewisePotential, PotentialSegment

    return PiecewisePotential(left, tuple(PotentialSegment(*s) for s in segs), right)


def _describe(segs) -> str:
    return "[" + ", ".join(f"({x0:.4g},{x1:.4g},{u:.4g})" for x0, x1, u in segs) + "]"


# energies x (layers + 2) per stack_sweep op, before the stratified factor
SWEEP_WORK = 2000


def _energy_grid(rng, q, layers, lo_range, hi_range):
    """Uniform grid whose size gives every op about the same work.

    The size is SWEEP_WORK / (layers + 2), times a factor log-spaced in
    [1/2, 2] at quantile q: about 10-1300 energies.  Equal work per op
    keeps the latency percentiles from hanging on which stack drew which
    grid size.
    """
    size = max(10, int(round(SWEEP_WORK / (layers + 2) * 4.0 ** (q - 0.5))))
    return np.linspace(rng.uniform(*lo_range), rng.uniform(*hi_range), size)


def _strata(rng, k) -> np.ndarray:
    """k numbers in [0, 1), one in each of k equal bins, in random order.

    Drawing the inputs that set an op's cost this way keeps every run's
    cost mix the same whatever the seed, which keeps the metrics steady.
    """
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _rotation(rng, n) -> Iterator[int]:
    """Endless indices into n items, each pass a fresh permutation."""
    while True:
        yield from (int(i) for i in rng.permutation(n))


# ---------------------------------------------------------------- checks

def _unitarity_failure(e, big_r, big_t) -> "str | None":
    if not abs(big_r + big_t - 1.0) <= TOL_RT:
        return f"E={e!r}: R + T - 1 = {big_r + big_t - 1.0!r}"
    return None


def _tm_failure(tm, e, big_r, big_t, evanescent=None) -> "str | None":
    """R and T at one energy against the transfer-matrix result ``tm``.

    Also compares the evanescent-tail flag when given, and checks
    R + T = 1 wherever the far lead propagates.
    """
    if not (abs(big_r - tm.big_r) <= TOL_RT and abs(big_t - tm.big_t) <= TOL_RT):
        return f"E={e!r}: R={big_r!r} T={big_t!r}, transfer matrix R={tm.big_r!r} T={tm.big_t!r}"
    if evanescent is not None and evanescent != tm.evanescent_tail:
        return f"E={e!r}: evanescent_tail={evanescent}, transfer matrix says {tm.evanescent_tail}"
    return None if tm.evanescent_tail else _unitarity_failure(e, big_r, big_t)


def spectrum_failure(found, expected, scale) -> "str | None":
    """Compare energies with a reference list (both ascending).

    Each found energy must match its own reference energy within
    TOL_SPECTRUM * scale.  Missing energies alone give a ``Shortfall``;
    an unmatched found energy is a wrong answer.
    """
    tol = TOL_SPECTRUM * max(1.0, scale)
    unmatched = list(expected)
    for e in found:
        j = min(range(len(unmatched)), key=lambda i: abs(unmatched[i] - e), default=None)
        if j is None or abs(unmatched[j] - e) > tol:
            return f"E={e!r} matches no reference energy (reference {list(expected)})"
        unmatched.pop(j)
    if unmatched:
        return Shortfall(f"incomplete: found {len(found)} of {len(expected)}; missing {unmatched}")
    return None


# ------------------------------------------------------------- workloads

class StackSweep:
    """Each op: one ``energy_sweep`` of one piecewise stack over one grid."""

    name = "stack_sweep"
    block = 10

    def __init__(self, seed: int):
        import qwim
        from qwim import xcheck

        # functions are looked up at call time so that traced runs see the wrappers
        self.q, self.xcheck = qwim, xcheck
        self.seed = seed
        self.stacks = [(_piecewise(0.0, s, 0.0), _describe(s)) for s in conftest_stacks()]
        rng = np.random.default_rng([seed, 1])
        # about 100 thin layers; the raised right lead gives evanescent tails
        self.deep = []
        for _ in range(8):
            segs = _random_segments(rng, 100, (0.02, 0.08), (-3.0, 3.0))
            self.deep.append((_piecewise(0.0, segs, 1.5), f"deep stack {len(self.deep)} (seed {seed})"))

    def ops(self) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, 2])
        Side = self.q.Side
        stacks, deep = _rotation(rng, len(self.stacks)), _rotation(rng, len(self.deep))
        while True:
            # a block: 8 conftest stacks and 2 deep stacks, each side 5 times
            picks = [self.stacks[next(stacks)] + (False, q) for q in _strata(rng, 8)]
            picks += [self.deep[next(deep)] + (True, q) for q in _strata(rng, 2)]
            sides = [Side.LEFT] * 5 + [Side.RIGHT] * 5
            for j, side_j in zip(rng.permutation(len(picks)), rng.permutation(len(sides))):
                pot, desc, is_deep, q = picks[j]
                side = sides[side_j]
                layers = len(pot.segments)
                if is_deep and side is Side.LEFT:
                    grid = _energy_grid(rng, q, layers, (0.05, 0.5), (3.0, 5.0))
                elif is_deep:
                    grid = _energy_grid(rng, q, layers, (1.55, 2.0), (4.0, 6.0))
                else:
                    grid = _energy_grid(rng, q, layers, (0.05, 1.0), (4.0, 8.0))
                yield self._op(pot, desc, grid, side)

    def _op(self, pot, desc, grid, side) -> Op:
        label = (f"sweep {desc} side={side.value} E=[{grid[0]!r}, {grid[-1]!r}] "
                 f"points={len(grid)}")

        def check(results):
            for e, r in zip(grid, results):
                if not hasattr(r, "big_r"):
                    return Shortfall(f"error: E={float(e)!r}: {r.code}: {r.message}")
                e = float(e)
                why = _tm_failure(self.xcheck.transfer_matrix_solve(pot, e, side), e,
                                  r.big_r, r.big_t, r.evanescent_tail)
                if why:
                    return why
            return None

        return Op(label, lambda: self.q.energy_sweep(pot, grid, side), check, energies=len(grid))


class SmoothRiccati:
    """Each op: one Riccati solve, from a fixed mix of four kinds.

    (a) scattering on a sampled Gaussian bump or well, running integral
        tracked;
    (b) bound-mode impedance mismatch on a sampled well below the leads,
        where the trajectories cross nodes and the W = 1/Z switch runs;
    (c) numeric scattering (force_numeric) on a conftest stack;
    (d) a validate-style reconstruction: z_minus on a forced grid, then
        reconstruct_wavefunction and schrodinger_residual.

    The (d) inputs do not follow the seed: a reconstruction's residual
    can land just over its bound, so seeded energies would make the
    failed count follow the seed.  They are a fixed list, taken in order:
    first the reconstruction known to fail today, then each conftest
    stack once at an energy from a fixed stratified draw.
    """

    name = "smooth_riccati"
    # kinds per block of 20 ops, shuffled within the block
    MIX = "a" * 8 + "b" * 5 + "c" * 3 + "d" * 4
    block = len(MIX)
    # conftest stack 30 at this energy leaves a residual of 1.35e-6
    KNOWN_INACCURATE = (30, 1.0875)

    def __init__(self, seed: int):
        import qwim
        from qwim import xcheck

        self.q, self.xcheck = qwim, xcheck
        self.seed = seed
        self.stacks = [(_piecewise(0.0, segs, 0.0), segs) for segs in conftest_stacks()]
        self.numeric = qwim.IntegrationConfig(force_numeric=True)
        fixed = np.random.default_rng([CONFTEST_SEED, 3])
        energies = 0.3 + 2.7 * _strata(fixed, len(self.stacks))
        self.reconstructions = [self.KNOWN_INACCURATE] + [
            (int(i), float(energies[i])) for i in fixed.permutation(len(self.stacks))]

    def ops(self) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, 3])
        stacks = _rotation(rng, len(self.stacks))
        reconstructions = itertools.cycle(self.reconstructions)
        while True:
            # two independent strata per kind: a Latin square over two inputs
            strata = {k: iter(zip(_strata(rng, n), _strata(rng, n)))
                      for k, n in ((k, self.MIX.count(k)) for k in "abc")}
            for j in rng.permutation(len(self.MIX)):
                kind = self.MIX[j]
                if kind == "d":
                    yield self._op_d(*next(reconstructions))
                else:
                    yield getattr(self, "_op_" + kind)(rng, *next(strata[kind]), next(stacks))

    def _sampled(self, xs, us):
        return self.q.SampledPotential(tuple(xs), tuple(us), 0.0, 0.0)

    def _op_a(self, rng, u, v, _) -> Op:
        xs, us, desc = _gaussian_samples(rng, float(rng.uniform(-3.0, 3.0)), u)
        q = self.q
        pot = self._sampled(xs, us)
        e = 0.2 + 4.8 * v
        side = q.Side.LEFT if rng.random() < 0.5 else q.Side.RIGHT
        label = f"(a) sampled gaussian A={us.max() if us.max() > 0 else us.min():.4g} {desc} E={e!r} side={side.value}"
        return Op(label, lambda: q.solve_scattering(pot, e, side),
                  lambda r: _unitarity_failure(e, r.big_r, r.big_t), energies=1)

    def _op_b(self, rng, u, v, _) -> Op:
        depth = float(rng.uniform(2.0, 10.0))
        xs, us, desc = _gaussian_samples(rng, -depth, u)
        q = self.q
        pot = self._sampled(xs, us)
        e = -(0.05 + 0.85 * v) * depth
        probe = float(rng.uniform(-0.2, 0.2) * (xs[-1] - xs[0]))
        label = f"(b) bound mismatch, sampled well depth={depth:.4g} {desc} E={e!r} probe={probe!r}"

        def check(d):
            if not (math.isfinite(d.imag) and abs(d.real) <= 1e-12 * max(1.0, abs(d))):
                return f"mismatch {d!r} is not purely imaginary"
            return None

        return Op(label, lambda: q.impedance_mismatch(pot, e, probe), check, energies=1)

    def _op_c(self, rng, u, _, stack) -> Op:
        q = self.q
        pot, segs = self.stacks[stack]
        e = 0.05 + 2.95 * u
        side = q.Side.LEFT if rng.random() < 0.5 else q.Side.RIGHT
        label = f"(c) force_numeric {_describe(segs)} E={e!r} side={side.value}"
        return Op(label, lambda: q.solve_scattering(pot, e, side, self.numeric),
                  lambda r: _tm_failure(self.xcheck.transfer_matrix_solve(pot, e, side), e,
                                        r.big_r, r.big_t, r.evanescent_tail),
                  energies=1)

    def _op_d(self, stack, e) -> Op:
        q, xc = self.q, self.xcheck
        pot, segs = self.stacks[stack]
        k_max = math.sqrt(2.0 * (e - min(0.0, min(u for _, _, u in segs))))
        # five-point stencil truncation ~ (k h)^4: k h = 0.02 keeps it ~1e-8
        points = int(min(max(math.ceil((pot.b - pot.a) * k_max / 0.02) + 1, 101), 4001))
        grid = np.linspace(pot.a, pot.b, points)
        label = f"(d) reconstruction conftest stack {stack} {_describe(segs)} E={e!r} points={points}"

        def run():
            traj = q.z_minus(pot, e, grid=grid, track_integral=True)
            prof = xc.reconstruct_wavefunction(traj)
            idx = np.clip(np.searchsorted(traj.xs, grid), 0, len(traj.xs) - 1)
            uniform = xc.WavefunctionProfile(xs=prof.xs[idx], psi=prof.psi[idx],
                                             normalization=prof.normalization)
            return xc.schrodinger_residual(uniform, pot, e)

        def check(residual):
            if not residual < TOL_RESIDUAL:
                return Shortfall(f"inaccurate: Schrodinger residual {residual!r} >= {TOL_RESIDUAL}")
            return None

        return Op(label, run, check, energies=1)


class Spectra:
    """Each op: one find_bound_states or find_resonances call.

    The pool does not depend on the seed, which only orders each pass
    over it: a block is one pass.  Reference answers are computed once
    per input.
    """

    name = "spectra"

    def __init__(self, seed: int):
        import qwim
        from qwim import xcheck

        self.q, self.xcheck, self.seed = qwim, xcheck, seed
        self.pool = []  # (label, run, check, reference energies)
        for depth, width in conftest_wells():
            self._add_bound(f"conftest well depth={depth!r} width={width!r}",
                            [(0.0, width, -depth)], square=(depth, width))
        self._add_bound("docs/well.json", [(0.0, 2.0, -5.0)], square=(5.0, 2.0))
        self._add_res("docs/barrier.json window 1..13", [(0.0, 2.0, 1.0)], 1.0, 13.0)
        # ROADMAP item 2: three spectra the scan-grid search gets wrong
        self._add_bound("ROADMAP well depth=5000 width=2", [(0.0, 2.0, -5000.0)],
                        square=(5000.0, 2.0))
        self._add_bound("ROADMAP double well depth=500 widths=2 gap=1",
                        [(0.0, 2.0, -500.0), (2.0, 3.0, 0.0), (3.0, 5.0, -500.0)])
        self._add_res("ROADMAP double barrier height=10 width=1 gap=2 window 1..13",
                      [(0.0, 1.0, 10.0), (1.0, 3.0, 0.0), (3.0, 4.0, 10.0)], 1.0, 13.0)
        # random multi-segment inputs, drawn once from a fixed seed: many
        # come back incomplete (ROADMAP item 2), so seeded ones would make
        # the failed count follow the seed
        rng = np.random.default_rng([CONFTEST_SEED, 4])
        for i in range(16):
            segs = _random_segments(rng, 2 + i % 4, (0.3, 1.5), (-20.0, 2.0))
            self._add_bound(f"random well {i} {_describe(segs)}", segs)
        for i in range(8):
            half = [(float(rng.uniform(0.3, 1.2)), float(rng.uniform(-2.0, 6.0)))
                    for _ in range(1 + i % 3)]
            segs = _symmetric_segments(half)
            self._add_res(f"random symmetric stack {i} {_describe(segs)} window 0.5..12",
                          segs, 0.5, 12.0)
        self.block = len(self.pool)

    def _add_bound(self, label, segs, square=None):
        pot = _piecewise(0.0, segs, 0.0)
        cache = {}

        def expected():
            if "e" not in cache:
                cache["e"] = (self.xcheck.square_well_eigenvalues(*square) if square
                              else reference.bound_energies((0.0, segs, 0.0)))
            return cache["e"]

        scale = -min(u for _, _, u in segs)

        def check(result):
            return spectrum_failure(result.energies, expected(), scale)

        self.pool.append((f"bound {label}", lambda: self.q.find_bound_states(pot),
                          check, expected))

    def _add_res(self, label, segs, e_min, e_max):
        pot = _piecewise(0.0, segs, 0.0)
        cache = {}

        def expected():
            if "e" not in cache:
                cache["e"] = reference.symmetric_resonances((0.0, segs, 0.0), e_min, e_max)
            return cache["e"]

        def check(result):
            for e in result.energies:
                big_r = self.xcheck.transfer_matrix_solve(pot, e).big_r
                if not big_r < TOL_RESONANCE_R:
                    return f"reported resonance E={e!r} has transfer-matrix R={big_r!r}"
            return spectrum_failure(result.energies, expected(), e_max)

        self.pool.append((f"resonances {label}",
                          lambda: self.q.find_resonances(pot, e_min, e_max), check, expected))

    def ops(self) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, 5])
        while True:
            for j in rng.permutation(len(self.pool)):
                label, run, check, expected = self.pool[j]
                yield Op(label, run, check, states=lambda expected=expected: len(expected()))


# ``python -m qwim`` preceded by the calibration kernel, see qwim_cli.py
CLI_LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "qwim_cli.py")


@dataclass
class CliResult:
    """Exit code and output of one command; ``kernel_s`` is the calibration
    kernel's time in the command's own process (None in-process)."""

    code: int
    stdout: str
    stderr: str
    kernel_s: "float | None" = None


def _rows(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines()[1:] if line]


class CliCold:
    """Each op: one ``python -m qwim <verb>`` subprocess on a generated spec.

    The subprocess runs through ``qwim_cli.py``, which times the
    calibration kernel in the same process before running qwim's
    ``__main__`` as ``-m`` does.

    The spec files live in a private directory under the benchmark's
    ``out/`` directory, removed by ``close``.  The traced run calls
    ``qwim.cli.main`` in-process on the same arguments instead.
    """

    name = "cli_cold"

    def __init__(self, seed: int, root: str, out_dir: str):
        self.root, self.seed = root, seed
        os.makedirs(out_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        rng = np.random.default_rng([seed, 6])
        stacks = conftest_stacks()
        self.specs = {}
        self._references = {}
        # fixed sizes, so that the seed moves energies and shapes but not cost
        self._write("stack", 0.0, stacks[7], 0.0)
        xs, us, _ = _gaussian_samples(rng, 2.0, 0.5)
        self._write_sampled("sampled", xs, us)
        # spectra drawn once from a fixed seed, like those of ``Spectra``
        fixed = np.random.default_rng([CONFTEST_SEED, 6])
        depth, width = float(fixed.uniform(0.3, 30.0)), float(fixed.uniform(0.4, 4.0))
        self._write("square", 0.0, [(0.0, width, -depth)], 0.0)
        self.square = (depth, width)
        self._write("well", 0.0, _random_segments(fixed, 3, (0.3, 1.5), (-20.0, 2.0)), 0.0)
        half = [(float(fixed.uniform(0.3, 1.2)), float(fixed.uniform(-2.0, 6.0))) for _ in range(2)]
        self._write("symmetric", 0.0, _symmetric_segments(half), 0.0)
        self._write("barrier", 0.0, [(0.0, 2.0, 1.0)], 0.0)
        f = lambda lo, hi: repr(float(rng.uniform(lo, hi)))
        self.argvs = [
            ["scatter", "stack", "--energy", f(0.05, 4.0)],
            ["scatter", "stack", "--energy", f(0.05, 4.0), "--side", "right"],
            ["scatter", "sampled", "--energy", f(0.2, 5.0)],
            ["sweep", "stack", "--emin", f(0.05, 1.0), "--emax", f(4.0, 8.0), "--points", "200"],
            ["sweep", "sampled", "--emin", f(0.2, 1.0), "--emax", f(3.0, 5.0), "--points", "5"],
            ["bound", "square"],
            ["bound", "well"],
            ["resonances", "symmetric", "--emin", "0.5", "--emax", "12.0"],
            ["resonances", "barrier", "--emin", "1.0", "--emax", "13.0"],
            ["profile", "stack", "--energy", f(0.05, 4.0), "--mode", "impedance"],
            ["profile", "stack", "--energy", f(0.05, 4.0), "--mode", "wavefunction"],
            ["validate", "stack", "--energy", f(0.3, 3.0)],
        ]
        self.block = len(self.argvs)

    def _write(self, key, left, segs, right):
        self.specs[key] = ((left, segs, right), os.path.join(self.dir, key + ".json"))
        doc = {"potential": {"kind": "piecewise", "left_level": left, "right_level": right,
                             "segments": [{"x_start": a, "x_end": b, "u": u} for a, b, u in segs]}}
        with open(self.specs[key][1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _write_sampled(self, key, xs, us):
        self.specs[key] = (None, os.path.join(self.dir, key + ".json"))
        doc = {"potential": {"kind": "sampled", "left_level": 0.0, "right_level": 0.0,
                             "samples": [[float(x), float(u)] for x, u in zip(xs, us)]}}
        with open(self.specs[key][1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def ops(self) -> Iterator[Op]:
        rng = np.random.default_rng([self.seed, 7])
        while True:
            for j in rng.permutation(len(self.argvs)):
                yield self._op(self.argvs[j])

    def _op(self, template) -> Op:
        verb, key, rest = template[0], template[1], template[2:]
        argv = [verb, "--spec", self.specs[key][1]] + rest
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

        def run():
            proc = subprocess.run([sys.executable, CLI_LAUNCHER] + argv, cwd=self.root, env=env,
                                  capture_output=True, text=True, timeout=120)
            err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
            if not last.startswith("calibration\t"):  # the launcher itself failed
                return CliResult(proc.returncode, proc.stdout, proc.stderr)
            return CliResult(proc.returncode, proc.stdout, err, float(last.split("\t")[1]))

        def inprocess():
            import contextlib
            import io

            from qwim import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return CliResult(code, out.getvalue(), err.getvalue())

        label = "qwim " + " ".join([verb, key + ".json"] + rest)
        states = (lambda: len(self._expected(template))) if verb in ("bound", "resonances") else None
        return Op(label, run, lambda res: self._check(template, res), states=states,
                  inprocess=inprocess)

    def _expected(self, template) -> list[float]:
        """Reference energies of a bound or resonances op, computed once."""
        key = tuple(template)
        if key not in self._references:
            from qwim.xcheck import square_well_eigenvalues

            verb, spec, rest = template[0], template[1], template[2:]
            data = self.specs[spec][0]
            if verb == "bound" and spec == "square":
                ref = square_well_eigenvalues(*self.square)
            elif verb == "bound":
                ref = reference.bound_energies(data)
            else:
                opts = dict(zip(rest[::2], rest[1::2]))
                ref = reference.symmetric_resonances(data, float(opts["--emin"]),
                                                     float(opts["--emax"]))
            self._references[key] = ref
        return self._references[key]

    def _check(self, template, res) -> "str | None":
        from qwim import Side
        from qwim.xcheck import transfer_matrix_solve

        code, stdout, stderr = res.code, res.stdout, res.stderr
        if code != 0:
            return Shortfall(f"error: exit code {code}: {stderr.strip()[:300]}")
        verb, key, rest = template[0], template[1], template[2:]
        data = self.specs[key][0]
        opts = dict(zip(rest[::2], rest[1::2]))
        pot = None if data is None else _piecewise(*data)
        rows = _rows(stdout)
        if verb in ("scatter", "sweep"):
            side = Side(opts.get("--side", "left"))
            if verb == "sweep" and len(rows) != int(opts["--points"]):
                return f"{len(rows)} rows for {opts['--points']} points"
            for row in rows:
                if verb == "sweep" and row[7] != "-":
                    return Shortfall(f"error: E={row[0]}: point error {row[7]}")
                e, big_r, big_t = float(row[0]), float(row[5]), float(row[6])
                why = (_unitarity_failure(e, big_r, big_t) if pot is None
                       else _tm_failure(transfer_matrix_solve(pot, e, side), e, big_r, big_t))
                if why:
                    return why
            return None if rows else "empty table"
        if verb == "bound":
            found = [float(r[1]) for r in rows]
            return spectrum_failure(found, self._expected(template),
                                    -min(u for _, _, u in data[1]))
        if verb == "resonances":
            found = [float(r[1]) for r in rows]
            for e in found:
                if not transfer_matrix_solve(pot, e).big_r < TOL_RESONANCE_R:
                    return f"reported resonance E={e!r} has transfer-matrix R >= {TOL_RESONANCE_R}"
            return spectrum_failure(found, self._expected(template), float(opts["--emax"]))
        if verb == "profile":
            e = float(opts["--energy"])
            xs = np.array([float(r[0]) for r in rows])
            got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
            psi, dpsi, _ = reference.field(data, e, xs)
            want = dpsi / (1j * psi) if opts["--mode"] == "impedance" else psi
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            if not err <= TOL_PROFILE:
                return f"{opts['--mode']} profile off the exact field by {err!r} (relative)"
            return None
        if verb == "validate":
            bad = [r for r in rows if r[3] != "ok" or not float(r[1]) < float(r[2])]
            return f"validate rows failed: {bad}" if bad or len(rows) != 3 else None
        raise ValueError(verb)


WORKLOADS = {cls.name: cls for cls in (StackSweep, SmoothRiccati, Spectra, CliCold)}
