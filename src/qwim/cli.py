"""Command-line interface.

Verbs: scatter, sweep, bound, resonances, profile, validate.  All read
the potential from a JSON specification file (see docs/spec_format.md)
and write tab-separated tables with a header row to standard output at
full round-trip precision.  Errors go to standard error as single-line
records ``error<TAB>code<TAB>message``; the exit status is 0 on success,
2 for input problems and 3 for solver failures.

Each verb imports the layers it runs (the spectral searches, the
Riccati stepper, the cross-checks) when it runs: ``scatter`` and
``bound`` on a piecewise potential load no numpy.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import replace

from .errors import PotentialInputError, SolverError
from .model import IntegrationConfig, PiecewisePotential, Side
from .scattering import (
    EnergyPointError,
    ScatteringResult,
    _Incidence,
    energy_sweep,
    solve_scattering,
)
from .specfile import ProblemSpec, load_spec

# validate: agreement bounds between the two solver paths
VALIDATE_DELTA_TOL = 1e-8
VALIDATE_RESIDUAL_TOL = 1e-6


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _print_table(header: list[str], rows) -> None:
    out = sys.stdout
    out.write("\t".join(header) + "\n")
    for row in rows:
        out.write("\t".join(row) + "\n")


def _emit_error(code: str, message: str) -> None:
    flat = " ".join(str(message).split())
    sys.stderr.write(f"error\t{code}\t{flat}\n")


def _emit_note(kind: str, message: str) -> None:
    sys.stderr.write(f"note\t{kind}\t{message}\n")


def _linspace(lo: float, hi: float, points: int):
    """``points`` evenly spaced values from lo to hi; a count whose array
    numpy refuses to allocate is an input error, not a traceback."""
    import numpy as np

    try:
        return np.linspace(lo, hi, points)
    except MemoryError as exc:
        raise ValueError(f"--points {points}: too many points to allocate") from exc


def _side(args) -> Side:
    return Side.RIGHT if getattr(args, "side", "left") == "right" else Side.LEFT


def _config(args, spec: ProblemSpec) -> IntegrationConfig:
    """Start from the spec file's defaults block, apply flag overrides."""
    overrides = {}
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        overrides["abs_tol"] = args.abs_tol
    if args.force_numeric:
        overrides["force_numeric"] = True
    return replace(spec.defaults, **overrides) if overrides else spec.defaults


_SCATTER_HEADER = ["E", "re_r", "im_r", "re_t", "im_t", "R", "T"]


def _scatter_row(res: ScatteringResult) -> list[str]:
    return [
        _fmt(res.e),
        _fmt(res.r.real),
        _fmt(res.r.imag),
        _fmt(res.t.real),
        _fmt(res.t.imag),
        _fmt(res.big_r),
        _fmt(res.big_t),
    ]


def cmd_scatter(args) -> int:
    spec = load_spec(args.spec)
    cfg = _config(args, spec)
    res = solve_scattering(spec.potential, args.energy, _side(args), cfg, spec.params)
    if res.evanescent_tail:
        _emit_note("evanescent-tail",
                   "far lead is evanescent at this energy; t is the tail amplitude")
    _print_table(_SCATTER_HEADER, [_scatter_row(res)])
    return 0


def cmd_sweep(args) -> int:
    spec = load_spec(args.spec)
    cfg = _config(args, spec)
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if not args.emin < args.emax:
        raise ValueError("--emin must be below --emax")
    energies = _linspace(args.emin, args.emax, args.points)
    records = energy_sweep(spec.potential, energies, _side(args), cfg, spec.params)
    rows = []
    for rec in records:
        if isinstance(rec, EnergyPointError):
            rows.append([_fmt(rec.e)] + ["nan"] * 6 + [rec.code])
        else:
            rows.append(_scatter_row(rec) + ["-"])
    _print_table(_SCATTER_HEADER + ["error"], rows)
    return 0


def cmd_bound(args) -> int:
    from .spectral import find_bound_states

    spec = load_spec(args.spec)
    cfg = _config(args, spec)
    result = find_bound_states(
        spec.potential, cfg, spec.params, probe_x=args.probe_x
    )
    rows = [
        [str(i + 1), _fmt(e), _fmt(res)]
        for i, (e, res) in enumerate(zip(result.energies, result.residuals))
    ]
    _print_table(["index", "E", "residual"], rows)
    return 0


def cmd_resonances(args) -> int:
    from .spectral import find_resonances

    spec = load_spec(args.spec)
    cfg = _config(args, spec)
    if not args.emin < args.emax:
        raise ValueError("--emin must be below --emax")
    result = find_resonances(
        spec.potential,
        args.emin,
        args.emax,
        _side(args),
        cfg,
        spec.params,
    )
    if result.transparent:
        _emit_note("transparent", "no reflection anywhere in the window; "
                   "the whole band transmits fully")
    rows = [
        [str(i + 1), _fmt(e), _fmt(res)]
        for i, (e, res) in enumerate(zip(result.energies, result.residuals))
    ]
    _print_table(["index", "E", "residual"], rows)
    return 0


def _profile_trajectory(walk, e, points):
    """The Riccati trajectory of the scattering solve's incidence walk
    (``scattering._Incidence``), in the potential's own frame, forced
    through ``points`` evenly spaced grid points on [a, b], and the index
    of each grid point's sample."""
    import numpy as np

    pot = walk.pot
    grid = _linspace(pot.a, pot.b, points)
    traj = walk.trajectory(e, grid=grid)
    return traj, np.clip(np.searchsorted(traj.xs, grid), 0, len(traj.xs) - 1)


def cmd_profile(args) -> int:
    spec = load_spec(args.spec)
    cfg = _config(args, spec)
    if args.points < 5:
        raise ValueError("--points must be at least 5")
    side = _side(args)
    pot, params, e = spec.potential, spec.params, args.energy
    if not pot.a < pot.b:
        raise ValueError("a bare step has no interior to profile")
    walk = _Incidence(pot, side, cfg, params)
    traj, idx = _profile_trajectory(walk, e, args.points)

    if args.mode == "impedance":
        rows = [
            [_fmt(x), _fmt(z.real), _fmt(z.imag)] for x, z in zip(traj.xs[idx], traj.zs[idx])
        ]
        _print_table(["x", "re_Z", "im_Z"], rows)
        return 0

    # wavefunction mode: scattering solution, unit incident amplitude,
    # psi at the entry edge (1 + r) times the incident wave there
    import numpy as np

    from ._arrays import _bridge
    from .errors import QuadratureDivergenceError
    from .xcheck import reconstruct_wavefunction

    res = solve_scattering(pot, e, side, cfg, params)
    k1 = math.sqrt(2.0 * params.mass * (e - walk.u_in)) / params.hbar
    psi_in = (1.0 + res.r) * cmath.exp(1j * k1 * walk.x_in)
    if side is Side.LEFT:
        psi = reconstruct_wavefunction(traj, psi_in).psi
    else:
        # the walk from a ends at the entry edge b: psi(x_i) is psi(b)
        # over the product of the interval ratios from x_i to b
        with np.errstate(all="ignore"):
            psi = psi_in / np.cumprod(np.concatenate(([1.0], _bridge(traj)[::-1])))[::-1]
        if not np.isfinite(psi).all():
            raise QuadratureDivergenceError("reconstructed psi is not finite")
    rows = [
        [_fmt(x), _fmt(p.real), _fmt(p.imag), _fmt(abs(p) ** 2)]
        for x, p in zip(traj.xs[idx], psi[idx])
    ]
    _print_table(["x", "re_psi", "im_psi", "abs2_psi"], rows)
    return 0


def cmd_validate(args) -> int:
    from .xcheck import (
        WavefunctionProfile,
        reconstruct_wavefunction,
        schrodinger_residual,
        transfer_matrix_solve,
    )

    spec = load_spec(args.spec)
    cfg = _config(args, spec)
    pot, params = spec.potential, spec.params
    e = args.energy
    if not isinstance(pot, PiecewisePotential):
        raise ValueError(
            "validate needs a piecewise potential; the transfer-matrix "
            "comparison is defined for constant segments only"
        )

    imp = solve_scattering(pot, e, Side.LEFT, cfg, params)
    tm = transfer_matrix_solve(pot, e, Side.LEFT, params)
    checks = [
        ("delta_R", abs(imp.big_r - tm.big_r), VALIDATE_DELTA_TOL),
        ("delta_T", abs(imp.big_t - tm.big_t), VALIDATE_DELTA_TOL),
    ]
    # a bare step has no interior, so no wavefunction to rebuild there
    if pot.a < pot.b:
        # reconstruction residual on a grid fine enough that the stencil
        # truncation error sits safely under the tolerance
        u_min = min(pot.left_level, pot.right_level, *(s.u for s in pot.segments))
        k_max = math.sqrt(2.0 * params.mass * max(e - u_min, 1.0)) / params.hbar
        # five-point stencil sweet spot: h^4 truncation ~ roundoff / h^2
        h = (480.0 * 2.3e-16) ** (1.0 / 6.0) / k_max
        points = int(min(max(math.ceil((pot.b - pot.a) / h) + 1, 801), 200001))
        num_cfg = replace(cfg, force_numeric=True)
        traj, idx = _profile_trajectory(_Incidence(pot, Side.LEFT, num_cfg, params), e, points)
        k1 = math.sqrt(2.0 * params.mass * (e - pot.left_level)) / params.hbar
        psi_a = (1.0 + imp.r) * cmath.exp(1j * k1 * pot.a)
        profile = reconstruct_wavefunction(traj, psi_a)
        # finite differences want the uniform grid subset: adaptive
        # samples wedged between forced stops would degrade the stencil
        # to first order
        uniform = WavefunctionProfile(
            xs=profile.xs[idx], psi=profile.psi[idx],
            normalization=profile.normalization,
        )
        residual = schrodinger_residual(uniform, pot, e, params)
        checks.append(("residual", residual, VALIDATE_RESIDUAL_TOL))

    rows = [
        [name, _fmt(value), _fmt(tol), "ok" if value < tol else "fail"]
        for name, value, tol in checks
    ]
    _print_table(["check", "value", "tolerance", "status"], rows)
    return 0 if all(value < tol for _, value, tol in checks) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwim",
        description="1D quantum scattering, bound states and resonances "
                    "via the wave-impedance method",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="potential spec file (JSON)")
        p.add_argument("--force-numeric", action="store_true",
                       help="integrate the Riccati equation even for "
                            "piecewise potentials")
        p.add_argument("--rel-tol", type=float, default=None,
                       help="ODE relative tolerance override")
        p.add_argument("--abs-tol", type=float, default=None,
                       help="ODE absolute tolerance override")

    def add_side(p):
        p.add_argument("--side", choices=["left", "right"], default="left",
                       help="incidence side")

    p = sub.add_parser("scatter", help="amplitudes at one energy")
    add_common(p)
    p.add_argument("--energy", type=float, required=True)
    add_side(p)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("sweep", help="amplitudes on a uniform energy grid")
    add_common(p)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    add_side(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound", help="bound-state spectrum")
    add_common(p)
    p.add_argument("--probe-x", type=float, default=None,
                   help="Wronskian matching point (default: the interval midpoint)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("resonances", help="full-transmission energies")
    add_common(p)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    add_side(p)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("profile", help="impedance or wavefunction along x")
    add_common(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--mode", choices=["impedance", "wavefunction"],
                   default="impedance")
    p.add_argument("--points", type=int, default=401)
    add_side(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("validate", help="cross-check the two solver paths")
    add_common(p)
    p.add_argument("--energy", type=float, required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PotentialInputError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except SolverError as exc:
        _emit_error(exc.code, str(exc))
        return 3
    except ValueError as exc:
        _emit_error("Input", str(exc))
        return 2
    except OSError as exc:
        _emit_error("Input", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
