"""Run one qwim benchmark workload and print its metrics.

    python3 bench/run.py --workload stack_sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; the benchmark finds the package in ``src/`` next to
its own directory and refuses to run without it.  Workloads and the
reasons for them are in ``BENCHMARK.json`` and ``bench/README.md``.

Untraced (``--trace 0``): a run measures the first ops of the seed's
stream, a fixed number of whole blocks (see ``workloads.py``): the
fewest that take ``--seconds`` of normalised op time on the reference
host, by ``BLOCK_SECONDS``, and at least ``MIN_BLOCKS``.  The count
depends on the workload and ``--seconds`` alone, so every run of a
workload attempts the same number of ops and meets the same fixed
inputs, whatever the seed or the host's speed.  The run starts
``WORKERS`` fresh worker processes, one after another.  Each builds the
inputs and runs the stream's first op to warm up; the time from its
spawn to the end of that op is one ``setup_s`` sample.  It then runs its
share of the ops (every WORKERS-th op) closed-loop, each op starting
when the previous one returns, and checks each answer outside the timed
region.  The ops of all workers are pooled for the end-to-end metrics.

Two things on a shared host move timings that have nothing to do with
qwim, and the run corrects for both:

* Python's hash seed sets memory layouts that shift one process's speed
  by about 10 %.  Each worker gets its own ``PYTHONHASHSEED``, derived
  from ``--seed``, so a run averages over several layouts.
* The host's speed drifts by 10-40 % over seconds.  A fixed pure-Python
  calibration kernel (``calibration.py``) is timed between consecutive
  ops, and inside each ``cli_cold`` command's own process.
  Every reported time is the measured time times ``K_REF`` over the
  kernel's time around it: the time the op would take on a host where
  the kernel takes ``K_REF``.  The record prints the raw figures too.

Traced (``--trace 1``): in this process, a fixed list of ops runs once
to warm up, once plain and once with every layer wrapped in spans (see
``tracer.py``).  Prints the per-layer metrics and the tracing overhead,
and writes the spans to ``bench/out/``.

Before its result, the run prints a record: machine, versions, seed,
sample counts, every metric with its unit, and each failed op by input.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts ops that raised or failed their check.  ``correct`` is
false when any op returned an answer that its reference contradicts.
An op that raised, reported its own failure, or returned a spectrum
whose states are all true but incomplete (the known defect of ROADMAP
item 2) is failed without being wrong; see ``workloads.Shortfall``.
"""

from __future__ import annotations

import os

# one process, no extra threads: the host has two shared cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib.metadata
import importlib.util
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibration import K_REF, kernel_seconds
from workloads import WORKLOADS, Shortfall

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# worker processes per untraced run; also the setup_s samples per run
WORKERS = 4
# normalised op time (s) of one block of each workload on the reference
# host, measured at the commit that defined the benchmark
BLOCK_SECONDS = {"stack_sweep": 0.17, "smooth_riccati": 0.8, "spectra": 0.63, "cli_cold": 8.5}
# fewest blocks per untraced run: cli_cold's commands take about a second
# each, and its op_p90_ms needs more than two samples beyond it
MIN_BLOCKS = {"cli_cold": 3}
# fresh interpreters timed per traced run for cli.import_ms
IMPORT_PROBES = 3
# ops in the traced run: fixed, so the counts repeat exactly for a seed
TRACE_OPS = {"stack_sweep": 40, "smooth_riccati": 40, "spectra": 49, "cli_cold": 12}


def _child_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _make(name: str, seed: int):
    cls = WORKLOADS[name]
    return cls(seed, ROOT, OUT) if name == "cli_cold" else cls(seed)


def run_blocks(name: str, seconds: float) -> int:
    """Whole blocks an untraced run measures: at least ``seconds`` of
    normalised op time on the reference host."""
    return max(MIN_BLOCKS.get(name, 1), math.ceil(seconds / BLOCK_SECONDS[name] - 1e-9))


class Clock:
    """Times calls between two runs of the calibration kernel."""

    def __init__(self):
        self.kernel = []  # every calibration time, for the record
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        k = kernel_seconds()
        self.kernel.append(k)
        return k

    def call(self, fn):
        """Run ``fn``; returns (result or raised exception, raw s, normalised s).

        An op that raises is a failed op, whatever it raised.
        """
        before = self._last
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # recorded and reported as a failed op
            out = exc
        raw = time.perf_counter() - t0
        self._last = self._calibrate()
        # a subprocess op reports the kernel time of its own process
        speed = getattr(out, "kernel_s", None) or 0.5 * (before + self._last)
        return out, raw, raw * K_REF / speed


class Tally:
    """Attempted ops, their normalised and raw latencies, the failed ones."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.energies = 0
        self.failures: list[tuple[str, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wrong(self) -> int:
        return sum(1 for _, why in self.failures if _is_wrong(why))

    def record(self, op, outcome, raw=0.0, seconds=0.0):
        """``outcome`` is the op's result, or the exception it raised."""
        self.latencies.append(seconds)
        self.raw.append(raw)
        self.energies += op.energies
        if isinstance(outcome, BaseException):
            why = Shortfall(f"error: {type(outcome).__name__}: {outcome}")
        else:
            why = op.check(outcome)
        if why:
            self.failures.append((op.label, why))


def worker(args) -> int:
    """One measuring process; prints its tally as one JSON line."""
    wl = _make(args.workload, args.seed)
    try:
        clock = Clock()
        todo = list(itertools.islice(wl.ops(), run_blocks(args.workload, args.seconds) * wl.block))
        clock.call(todo[0].run)  # warm-up: set-up ends when it returns
        setup = time.monotonic() - args.t0
        tally = Tally()
        for op in todo[args.worker::WORKERS]:
            out, raw, norm = clock.call(op.run)
            tally.record(op, out, raw, norm)
    finally:
        getattr(wl, "close", lambda: None)()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    print(json.dumps({
        "setup_s": setup,
        "kernel_s": statistics.median(clock.kernel),
        "rss_kb": resource.getrusage(who).ru_maxrss,
        "ops": [tally.latencies, tally.raw],
        "energies": tally.energies,
        "failures": [(label, str(why), not _is_wrong(why)) for label, why in tally.failures],
    }))
    return 0


def _is_wrong(why) -> bool:
    return not isinstance(why, Shortfall)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args) -> tuple[Tally, dict, dict]:
    tally = Tally()
    setups, setups_raw, kernels, rss = [], [], [], []
    for k in range(WORKERS):
        env = _child_env(PYTHONHASHSEED=str((args.seed * WORKERS + k) % 2**32))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--worker", str(k), "--t0", repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        setups_raw.append(rec["setup_s"])
        setups.append(rec["setup_s"] * K_REF / rec["kernel_s"])
        kernels.append(rec["kernel_s"])
        rss.append(rec["rss_kb"])
        tally.latencies += rec["ops"][0]
        tally.raw += rec["ops"][1]
        tally.energies += rec["energies"]
        tally.failures += [(label, Shortfall(why) if short else why)
                           for label, why, short in rec["failures"]]
    busy = sum(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (tally.attempted / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(tally.latencies), "ms"),
        "op_p90_ms": (1e3 * _percentile(tally.latencies, 90), "ms"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    extra = {"failed_frac": (len(tally.failures) / tally.attempted, "1")}
    if tally.energies:
        extra["energies_per_s"] = (tally.energies / busy, "1/s")
    extra.update({
        "raw.setup_s": (statistics.median(setups_raw), "s"),
        "raw.ops_per_s": (tally.attempted / sum(tally.raw), "1/s"),
        "raw.op_p50_ms": (1e3 * statistics.median(tally.raw), "ms"),
        "raw.op_p90_ms": (1e3 * _percentile(tally.raw, 90), "ms"),
        "raw.kernel_ms": (1e3 * statistics.median(kernels), "ms"),
    })
    samples = {"ops": tally.attempted,
               "blocks": run_blocks(args.workload, args.seconds),
               "workers (setup_s samples)": WORKERS,
               "ops_beyond_p90": sum(1 for v in tally.latencies
                                     if 1e3 * v > metrics["op_p90_ms"][0])}
    return tally, metrics, {"extra": extra, "samples": samples}


def _fresh(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=170, check=True)


def _import_costs() -> dict:
    """cli.import_ms and the share of ``import qwim`` spent in scipy.optimize."""
    def wall(code):
        t0 = time.perf_counter()
        _fresh(["-c", code])
        return time.perf_counter() - t0

    bare = statistics.median(wall("pass") for _ in range(IMPORT_PROBES))
    full = statistics.median(wall("import qwim") for _ in range(IMPORT_PROBES))
    cumulative = {}
    for line in _fresh(["-X", "importtime", "-c", "import qwim"]).stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    share = 100.0 * cumulative.get("scipy.optimize", 0) / cumulative["qwim"]
    return {"cli.import_ms": (1e3 * (full - bare), "ms"),
            "cli.import_scipy_optimize_pct": (share, "%")}


def traced(args) -> tuple[Tally, dict, dict]:
    from tracer import Tracer, leftover_wrappers

    wl = _make(args.workload, args.seed)
    try:
        clock = Clock()
        ops = wl.ops()
        todo = [next(ops) for _ in range(TRACE_OPS[args.workload])]
        runner = lambda op: op.inprocess or op.run
        for op in todo:  # warm-up: first in-process runs pay one-off costs
            clock.call(runner(op))
        plain = sum(clock.call(runner(op))[2] for op in todo)

        tr = Tracer()
        tally = Tally()
        expected = 0
        tr.install()
        try:
            for i, op in enumerate(todo, 1):
                tr.phase = "op"
                out, raw, norm = clock.call(lambda: tr.run_op(i, runner(op)))
                tr.phase = "check"
                tally.record(op, out, raw, norm)
                expected += op.states() if op.states else 0
        finally:
            tr.restore()
    finally:
        getattr(wl, "close", lambda: None)()
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv")
    tr.write(spans_path)

    op_stats, check_stats = tr.stats["op"], tr.stats["check"]
    get = op_stats.get
    calls = lambda name: get(name).calls if get(name) else 0
    op_total = get("bench.op").total

    def self_pct(prefix):
        s = sum(st.self for name, st in op_stats.items()
                if name == prefix or name.startswith(prefix + ".")
                and not (prefix == "spectral" and name.startswith("spectral.optimizer")))
        return (100.0 * s / op_total, "%")

    ric = get("riccati.integrate_impedance")
    samples = ric.items if ric else 0
    sampled = ric.sampled_items if ric else 0
    ric_self_ms = 1e3 * sum(st.self for n, st in op_stats.items() if n.startswith("riccati."))
    found = sum(get(n).items for n in ("spectral.find_bound_states", "spectral.find_resonances")
                if get(n))
    sweep = get("scattering.energy_sweep")
    tm = [t["xcheck.transfer_matrix_solve"] for t in (op_stats, check_stats)
          if "xcheck.transfer_matrix_solve" in t]
    count = lambda v: (v, "count")
    metrics = {
        "analytic.region_constants.calls": count(calls("analytic.region_constants")),
        "analytic.layer_transform.calls": count(calls("analytic.layer_transform")),
        "analytic.propagate_impedance.calls": count(calls("analytic.propagate_impedance")),
        "analytic.psi_growth_factor.calls": count(calls("analytic.psi_growth_factor")),
        "analytic.self_pct": self_pct("analytic"),
        "scattering.solve_scattering.calls": count(calls("scattering.solve_scattering")),
        "scattering.point_errors": count(sweep.items if sweep else 0),
        "scattering.self_pct": self_pct("scattering"),
        "riccati.integrate_impedance.calls": count(calls("riccati.integrate_impedance")),
        "riccati.samples": count(samples),
        "riccati.self_pct": self_pct("riccati"),
        "riccati.samples_per_ms": (samples / ric_self_ms if ric_self_ms else 0.0, "1/ms"),
        "riccati.rhs_per_sample": (calls("model.u_at") / sampled if sampled else 0.0, "ratio"),
        "model.u_at.calls": count(calls("model.u_at")),
        "model.u_at.self_pct": self_pct("model.u_at"),
        "spectral.impedance_mismatch.calls": count(calls("spectral.impedance_mismatch")),
        "spectral.mismatch_per_state": (
            calls("spectral.impedance_mismatch") / found if found else 0.0, "ratio"),
        "spectral.optimizer_self_pct": self_pct("spectral.optimizer"),
        "spectral.self_pct": self_pct("spectral"),
        "spectral.states_found": count(found),
        "spectral.states_expected": count(expected),
        "xcheck.reconstruct_wavefunction.self_pct": self_pct("xcheck.reconstruct_wavefunction"),
        "xcheck.schrodinger_residual.self_pct": self_pct("xcheck.schrodinger_residual"),
        "xcheck.transfer_matrix_solve.calls": count(sum(st.calls for st in tm)),
        "xcheck.transfer_matrix_solve.self_ms": (1e3 * sum(st.self for st in tm), "ms"),
        "specfile.load_spec.self_pct": self_pct("specfile.load_spec"),
        "cli.main.self_pct": self_pct("cli.main"),
        **_import_costs(),
        "trace.ops": count(len(todo)),
        "trace.op_ms": (1e3 * sum(tally.latencies), "ms"),
        "trace.overhead_pct": (100.0 * (sum(tally.latencies) - plain) / plain, "%"),
    }
    samples_rec = {"traced_ops": len(todo), "plain_op_ms": 1e3 * plain,
                   "stored_spans": len(tr.spans) // 6,
                   "spans_file": os.path.relpath(spans_path, ROOT)}
    return tally, metrics, {"extra": {}, "samples": samples_rec}


def print_record(args, tally, metrics, info):
    version = importlib.metadata.version
    print(f"workload        {args.workload}")
    print(f"seed            {args.seed}")
    print(f"mode            {'traced' if args.trace else 'untraced'}, {args.seconds} s")
    print(f"nproc           {os.cpu_count()}")
    print(f"python          {platform.python_version()} ({platform.machine()})")
    print(f"numpy / scipy   {version('numpy')} / {version('scipy')}")
    print("threads         one thread per process, one process at a time "
          f"(OMP/OPENBLAS/MKL_NUM_THREADS={os.environ['OMP_NUM_THREADS']})")
    for key, val in info["samples"].items():
        print(f"samples         {key} = {val}")
    for name, (value, unit) in {**metrics, **info["extra"]}.items():
        print(f"metric          {name} = {value!r} {unit}")
    print(f"failed ops      {len(tally.failures)} of {tally.attempted} "
          f"({tally.wrong} with a wrong answer)")
    seen = set()
    for label, why in tally.failures:
        if label not in seen:
            seen.add(label)
            kind = "WRONG ANSWER" if _is_wrong(why) else "shortfall"
            print(f"  failed [{kind}] {label}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = None
    if os.path.isfile(os.path.join(SRC, "qwim", "__init__.py")):
        sys.path.insert(0, SRC)
        spec = importlib.util.find_spec("qwim")
    if spec is None or os.path.dirname(os.path.abspath(spec.origin)) != os.path.join(SRC, "qwim"):
        print(f"error: qwim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args)
    tally, metrics, info = (traced if args.trace else end_to_end)(args)
    print_record(args, tally, metrics, info)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
