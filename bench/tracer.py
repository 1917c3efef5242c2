"""Span tracer around qwim's layers, installed from outside the package.

The package binds its functions by name (``from .analytic import
region_constants``), so a wrapper must replace the name in every module
that holds it: patching ``qwim.analytic`` alone would record nothing
that ``qwim.scattering`` calls.  ``install`` therefore swaps each target
in every qwim module whose namespace holds the original object, and
``restore`` puts every original back.  ``SampledPotential.u_at`` is
wrapped on the class.  The optimizer targets (``brentq``,
``minimize_scalar``) are swapped in ``qwim.spectral`` only, so the
oracle's own root finder in ``qwim.xcheck`` is not counted as search.

Each call becomes a span: name, start, end, parent span and op id.  A
span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out by ``write``.  The per-step
kernels (the slab algebra and ``u_at``) run millions of times, so they
are counted and timed but not stored one by one.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

MODULES = ("qwim", "qwim.model", "qwim.analytic", "qwim.riccati", "qwim.scattering",
           "qwim.spectral", "qwim.xcheck", "qwim.specfile", "qwim.cli")

# (span name, defining module, attribute, only these modules or None, store spans)
TARGETS = (
    ("analytic.region_constants", "qwim.analytic", "region_constants", None, False),
    ("analytic.layer_transform", "qwim.analytic", "layer_transform", None, False),
    ("analytic.propagate_impedance", "qwim.analytic", "propagate_impedance", None, False),
    ("analytic.psi_growth_factor", "qwim.analytic", "psi_growth_factor", None, False),
    ("analytic._psi_growth_entry", "qwim.analytic", "_psi_growth_entry", None, False),
    ("scattering.solve_scattering", "qwim.scattering", "solve_scattering", None, True),
    ("scattering.energy_sweep", "qwim.scattering", "energy_sweep", None, True),
    ("riccati.integrate_impedance", "qwim.riccati", "integrate_impedance", None, True),
    ("riccati.z_plus", "qwim.riccati", "z_plus", None, True),
    ("riccati.z_minus", "qwim.riccati", "z_minus", None, True),
    ("riccati.left_anchor", "qwim.riccati", "left_anchor", None, False),
    ("riccati.right_anchor", "qwim.riccati", "right_anchor", None, False),
    ("model.u_at", "qwim.model", "SampledPotential.u_at", None, False),
    ("spectral.find_bound_states", "qwim.spectral", "find_bound_states", None, True),
    ("spectral.find_resonances", "qwim.spectral", "find_resonances", None, True),
    ("spectral.impedance_mismatch", "qwim.spectral", "impedance_mismatch", None, True),
    ("spectral.optimizer.brentq", "qwim.spectral", "brentq", ("qwim.spectral",), True),
    ("spectral.optimizer.minimize_scalar", "qwim.spectral", "minimize_scalar",
     ("qwim.spectral",), True),
    ("xcheck.transfer_matrix_solve", "qwim.xcheck", "transfer_matrix_solve", None, True),
    ("xcheck.reconstruct_wavefunction", "qwim.xcheck", "reconstruct_wavefunction", None, True),
    ("xcheck.schrodinger_residual", "qwim.xcheck", "schrodinger_residual", None, True),
    ("specfile.load_spec", "qwim.specfile", "load_spec", None, True),
    ("cli.main", "qwim.cli", "main", None, True),
)

OP = "bench.op"


class Stat:
    """Totals for one span name in one phase."""

    __slots__ = ("calls", "total", "self", "items", "sampled_items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0  # samples returned, states found, point errors
        self.sampled_items = 0  # samples of trajectories on sampled potentials


def _items(name, args, result):
    """Work items a call returned, for the counters that need them."""
    if name == "riccati.integrate_impedance":
        return len(result.xs)
    if name in ("spectral.find_bound_states", "spectral.find_resonances"):
        return len(result.energies)
    if name == "scattering.energy_sweep":
        return sum(1 for r in result if not hasattr(r, "big_r"))
    return 0


class Tracer:
    """Collects spans for ops (phase "op") and for checks (phase "check")."""

    def __init__(self):
        self.stats = {"op": {}, "check": {}}
        self.phase = "op"
        self.op_id = 0
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans = array("d")  # op id, span id, parent id, name index, start, end
        self._stack = [[0.0, 0]]  # per open span: [child time, span id]
        self._next_id = 1
        self._patched = []  # (owner, attribute, original)

    def _stat(self, name) -> Stat:
        table = self.stats[self.phase]
        st = table.get(name)
        if st is None:
            st = table[name] = Stat()
        return st

    def wrap(self, name, fn, store=True):
        stack = self._stack
        spans = self.spans
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        index = float(self._index[name])
        counted = name in ("riccati.integrate_impedance", "spectral.find_bound_states",
                           "spectral.find_resonances", "scattering.energy_sweep")

        def wrapper(*args, **kwargs):
            frame = [0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                st = self._stat(name)
                st.calls += 1
                st.total += dur
                st.self += dur - frame[0]
                if store:
                    spans.extend((self.op_id, frame[1], parent, index, t0, t1))
            if counted:
                n = _items(name, args, result)
                st.items += n
                if name == "riccati.integrate_impedance" and type(args[0]).__name__ == "SampledPotential":
                    st.sampled_items += n
            return result

        wrapper.__wrapped__ = fn
        wrapper._bench_span = name
        return wrapper

    def run_op(self, op_id, fn):
        """Call ``fn`` as one op span; returns its result."""
        self.op_id = op_id
        return self.wrap(OP, fn)()

    def install(self):
        mods = {m: importlib.import_module(m) for m in MODULES}
        for name, home, attr, scope, store in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[home], cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, store))
                self._patched.append((cls, meth, original))
                continue
            original = getattr(mods[home], attr)
            wrapper = self.wrap(name, original, store)
            for mod_name in scope or MODULES:
                mod = mods[mod_name]
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            s = self.spans
            for i in range(0, len(s), 6):
                fh.write(f"{int(s[i])}\t{int(s[i + 1])}\t{int(s[i + 2])}\t"
                         f"{self.names[int(s[i + 3])]}\t{s[i + 4]!r}\t{s[i + 5]!r}\n")


def leftover_wrappers() -> list[str]:
    """Names in qwim's namespaces (and on SampledPotential) still wrapped."""
    found = []
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        for attr, val in vars(mod).items():
            if hasattr(val, "_bench_span"):
                found.append(f"{mod_name}.{attr}")
    sp = importlib.import_module("qwim.model").SampledPotential
    if hasattr(sp.__dict__["u_at"], "_bench_span"):
        found.append("qwim.model.SampledPotential.u_at")
    return found
