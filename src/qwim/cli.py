"""Command-line interface.

Verbs: scatter, sweep, bound, resonances, profile, validate.  All read
the potential from a JSON specification file (see docs/spec_format.md)
and write tab-separated tables with a header row to standard output at
full round-trip precision.  Errors go to standard error as single-line
records ``error<TAB>code<TAB>message``; the exit status is 0 on success,
2 for input problems and 3 for solver failures.

Each verb imports the layers it runs (the spectral searches, the
Riccati stepper, the cross-checks) when it runs.  Work at one energy
loads no numpy: ``scatter``, ``profile`` and ``validate``, on either
kind of potential, with ``--force-numeric`` or not, walk in plain
Python (the chain's steps, a sampled potential's sub-slab maps by their
plain-Python twin, the Riccati stepper's lists, the psi bridge of
``analytic._bridge`` one interval at a time: its array pass runs only
where numpy is loaded already), and grids are Python lists.  On a piecewise
potential ``sweep``, ``bound`` and ``resonances`` walk their energies
one at a time too and load none; on a sampled one they load numpy at
set-up for its array series (``analytic._array_pass``).  ``validate``
checks the impedance path's R and T against the transfer-matrix
oracle's, and the psi the Riccati stepper rebuilds against the exact
chain's at the stepper's own samples, all to one bound.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from bisect import bisect_left
from dataclasses import replace

from .analytic import _bridge
from .errors import (
    InsufficientSamplesError,
    PotentialInputError,
    QuadratureDivergenceError,
    SolverError,
)
from .model import IntegrationConfig, PiecewisePotential, Side, _linspace, require_finite
from .scattering import (
    EnergyPointError,
    ScatteringResult,
    _Incidence,
    energy_sweep,
    solve_scattering,
)
from .specfile import ProblemSpec, load_spec

# validate: agreement bound between the two solver paths
VALIDATE_DELTA_TOL = 1e-8


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


def _points(lo: float, hi: float, points: int) -> list[float]:
    """``points`` evenly spaced values from lo to hi, as numpy.linspace
    gives them (``model._linspace``); a count whose list cannot be
    allocated is an input error, not a traceback."""
    try:
        return _linspace(lo, hi, points)
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


def cmd_scatter(args, spec: ProblemSpec, cfg: IntegrationConfig) -> int:
    res = solve_scattering(spec.potential, args.energy, _side(args), cfg, spec.params)
    if res.evanescent_tail:
        _emit_note("evanescent-tail",
                   "far lead is evanescent at this energy; t is the tail amplitude")
    _print_table(_SCATTER_HEADER, [_scatter_row(res)])
    return 0


def cmd_sweep(args, spec: ProblemSpec, cfg: IntegrationConfig) -> int:
    require_finite("window bounds", args.emin, args.emax)
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if not args.emin < args.emax:
        raise ValueError("--emin must be below --emax")
    energies = _points(args.emin, args.emax, args.points)
    records = energy_sweep(spec.potential, energies, _side(args), cfg, spec.params)
    rows = []
    for rec in records:
        if isinstance(rec, EnergyPointError):
            rows.append([_fmt(rec.e)] + ["nan"] * 6 + [rec.code])
        else:
            rows.append(_scatter_row(rec) + ["-"])
    _print_table(_SCATTER_HEADER + ["error"], rows)
    return 0


def _print_spectrum(result) -> None:
    rows = [
        [str(i + 1), _fmt(e), _fmt(res)]
        for i, (e, res) in enumerate(zip(result.energies, result.residuals))
    ]
    _print_table(["index", "E", "residual"], rows)


def cmd_bound(args, spec: ProblemSpec, cfg: IntegrationConfig) -> int:
    from .spectral import find_bound_states

    _print_spectrum(find_bound_states(spec.potential, cfg, spec.params, probe_x=args.probe_x))
    return 0


def cmd_resonances(args, spec: ProblemSpec, cfg: IntegrationConfig) -> int:
    from .spectral import find_resonances

    require_finite("window bounds", args.emin, args.emax)
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
    _print_spectrum(result)
    return 0


def _trajectory_psi(walk: _Incidence, e: float, xs: list[float], zs: list[complex],
                    psi_in: complex) -> list[complex]:
    """psi at every sample (xs, zs) of a trajectory of ``walk``, from
    psi_in at the entry edge and the exact psi ratios across its
    intervals (``analytic._bridge``)."""
    ratios = _bridge(walk.pot, e, xs, zs, walk.params)
    if walk.right:
        # the walk from a ends at the entry edge b: psi(x_i) is psi(b) over
        # the product of the interval ratios from x_i to b
        products = [1.0 + 0j]
        for q in reversed(ratios):
            products.append(products[-1] * q)
        psi = [psi_in / p if p else complex(math.inf) for p in reversed(products)]
    else:
        psi = [psi_in]
        for q in ratios:
            psi.append(psi[-1] * q)
    if not all(map(cmath.isfinite, psi)):
        raise QuadratureDivergenceError("reconstructed psi is not finite")
    return psi


def cmd_profile(args, spec: ProblemSpec, cfg: IntegrationConfig) -> int:
    if args.points < 5:
        raise ValueError("--points must be at least 5")
    side = _side(args)
    pot, params, e = spec.potential, spec.params, args.energy
    if not pot.a < pot.b:
        raise ValueError("a bare step has no interior to profile")
    walk = _Incidence(pot, side, cfg, params)
    xs = _points(pot.a, pot.b, args.points)
    # the exact chain cut at the grid points, or with --force-numeric the
    # Riccati trajectory forced through them, read at each grid point's
    # sample
    if cfg.force_numeric:
        traj_xs, traj_zs = walk.trajectory(e, grid=xs)
        last = len(traj_xs) - 1
        idx = [min(bisect_left(traj_xs, x), last) for x in xs]
        xs, zs = [traj_xs[i] for i in idx], [traj_zs[i] for i in idx]
    else:
        zs, psi = walk.profile(e, xs)

    if args.mode == "impedance":
        rows = [[_fmt(x), _fmt(z.real), _fmt(z.imag)] for x, z in zip(xs, zs)]
        _print_table(["x", "re_Z", "im_Z"], rows)
        return 0

    # wavefunction mode: scattering solution, unit incident amplitude,
    # psi at the entry edge (1 + r) times the incident wave there
    res = solve_scattering(pot, e, side, cfg, params)
    k1 = math.sqrt(2.0 * params.mass * (e - walk.u_in)) / params.hbar
    psi_in = (1.0 + res.r) * cmath.exp(1j * k1 * walk.x_in)
    if cfg.force_numeric:
        psi = _trajectory_psi(walk, e, traj_xs, traj_zs, psi_in)
        psi = [psi[i] for i in idx]
    else:
        psi = [psi_in * p for p in psi]
    rows = [
        [_fmt(x), _fmt(p.real), _fmt(p.imag), _fmt(abs(p) ** 2)]
        for x, p in zip(xs, psi)
    ]
    _print_table(["x", "re_psi", "im_psi", "abs2_psi"], rows)
    return 0


def cmd_validate(args, spec: ProblemSpec, cfg: IntegrationConfig) -> int:
    from .xcheck import transfer_matrix_solve

    pot, params = spec.potential, spec.params
    e = args.energy
    if not isinstance(pot, PiecewisePotential):
        raise ValueError(
            "validate needs a piecewise potential; the transfer-matrix "
            "comparison is defined for constant segments only"
        )

    imp = solve_scattering(pot, e, Side.LEFT, cfg, params)
    tm = transfer_matrix_solve(pot, e, Side.LEFT, params)
    checks = [("delta_R", abs(imp.big_r - tm.big_r)), ("delta_T", abs(imp.big_t - tm.big_t))]
    # a bare step has no interior, so no wavefunction to rebuild there
    if pot.a < pot.b:
        # the stepper's psi against the exact chain's at the stepper's own
        # samples, both per unit psi(a), relative to the chain's largest
        walk = _Incidence(pot, Side.LEFT, cfg, params)
        xs, zs = walk.trajectory(e)
        if len(xs) < 2:
            # a psi row over one sample would check nothing
            raise InsufficientSamplesError(
                "the trajectory has one sample, no interval to rebuild psi on"
            )
        exact = walk.profile(e, xs)[1]
        psi = _trajectory_psi(walk, e, xs, zs, 1.0 + 0j)
        error = max(abs(p - q) for p, q in zip(psi, exact)) / max(map(abs, exact))
        checks.append(("psi_error", error))

    tol = VALIDATE_DELTA_TOL
    rows = [
        [name, _fmt(value), _fmt(tol), "ok" if value < tol else "fail"]
        for name, value in checks
    ]
    _print_table(["check", "value", "tolerance", "status"], rows)
    return 0 if all(value < tol for _, value in checks) else 3


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
        spec = load_spec(args.spec)
        return args.func(args, spec, _config(args, spec))
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
