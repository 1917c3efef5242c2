"""The package namespace: what ``import qwim`` loads and exports."""

import ast
import hashlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import qwim
import qwim.errors
import qwim.riccati


def test_import_qwim_loads_no_numpy():
    code = (
        "import sys\n"
        "import qwim\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('qwim.')))\n"
        "print(qwim.xcheck.__name__, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "False ['qwim.analytic', 'qwim.errors', 'qwim.model', 'qwim.scattering', 'qwim.specfile']",
        "qwim.xcheck False",
    ]


def test_import_spectral_loads_no_numpy():
    # the resonance scan imports numpy when it runs; the bound search
    # never does
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qwim.spectral; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_one_mismatch_loads_no_numpy_where_a_bound_search_does():
    # on a sampled potential a search over many energies loads numpy at its
    # set-up for the array series; one impedance_mismatch walks one energy
    # by the plain-Python twin
    code = (
        "import sys\n"
        "from qwim import SampledPotential\n"
        "from qwim.spectral import find_bound_states, impedance_mismatch\n"
        "pot = SampledPotential((-3.0, 0.0, 3.0), (0.0, -2.0, 0.0), 0.0, 0.0)\n"
        "impedance_mismatch(pot, -0.5, 0.5)\n"
        "print('numpy' in sys.modules)\n"
        "find_bound_states(pot)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True"]


@pytest.mark.parametrize("over", [-1, 1], ids=["below", "above"])
def test_a_cold_sampled_sweep_loads_numpy_past_its_import_cost(over):
    # a cold sweep on a sampled potential loads numpy only where its walks
    # take more sub-slab maps than numpy's import costs: here one map a
    # walk, so a grid of _IMPORT_MAPS - 1 energies walks each by the twin,
    # as solve_scattering does, and one of _IMPORT_MAPS + 1 takes the
    # array pass, whose records are those of a sweep with numpy loaded
    from qwim import SampledPotential, energy_sweep
    from qwim.analytic import _IMPORT_MAPS, _split, _steps, _units

    pot = SampledPotential((0.0, 0.1), (0.0, 0.5), 0.0, 0.0)
    n = _IMPORT_MAPS + over
    grid = [0.5 + i / (n - 1) for i in range(n)]
    c = _units(qwim.ModelParams())[0]
    assert _split(_steps(pot, pot.a, pot.b), grid[0], grid[-1], c)[1] == 1
    code = (
        "import hashlib, sys\n"
        "from qwim import SampledPotential, energy_sweep, solve_scattering\n"
        "pot = SampledPotential((0.0, 0.1), (0.0, 0.5), 0.0, 0.0)\n"
        f"n = {n}\n"
        "grid = [0.5 + i / (n - 1) for i in range(n)]\n"
        "out = energy_sweep(pot, grid)\n"
        "print('numpy' in sys.modules, hashlib.sha256(repr(out).encode()).hexdigest())\n"
        f"if {over} < 0:\n"
        "    print(out == [solve_scattering(pot, e) for e in grid])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, digest, *pointwise = proc.stdout.split()
    if over < 0:
        assert (loaded, pointwise) == ("False", ["True"])
    else:
        warm = hashlib.sha256(repr(energy_sweep(pot, grid)).encode()).hexdigest()
        assert (loaded, digest) == ("True", warm)


def test_every_private_name_is_used():
    # a top-level private name that nothing in the package uses is dead
    # code.  _psi_growth_entry is the one exception: the benchmark's
    # tracer looks it up (bench/tracer.py's TARGETS), and it goes with
    # the change that may edit bench/ (ROADMAP item 23)
    allowed = {"_psi_growth_entry"}
    defined, used = set(), set()
    for path in Path(qwim.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            names = {n for n in names if n.startswith("_") and not n.startswith("__")}
            uses = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.add(node.id)
                elif isinstance(node, ast.Attribute):
                    uses.add(node.attr)
                elif isinstance(node, ast.alias):
                    uses.add(node.name)
            # a use inside a name's own definition (a recursion) is no use
            defined |= names
            used |= uses - names
    assert sorted(defined - used) == sorted(allowed)


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(qwim)
    for name in qwim.__all__:
        assert getattr(qwim, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from qwim import *", namespace)
    assert set(qwim.__all__) <= set(namespace)
    assert namespace["find_bound_states"] is qwim.spectral.find_bound_states
    # read through, never cached: a name patched in its home module (a
    # monkeypatch, a tracer) shows patched here, and unpatched after
    assert "find_bound_states" not in vars(qwim)
    with pytest.raises(AttributeError, match="no_such_name"):
        qwim.no_such_name


def test_integration_config_has_one_class():
    assert qwim.riccati.IntegrationConfig is qwim.IntegrationConfig
    assert qwim.model.IntegrationConfig is qwim.IntegrationConfig


def test_every_concrete_error_class_is_raised_and_exported():
    # a class nothing raises is a reserved name callers cannot meet; one
    # missing from __all__ cannot be caught by name from the package
    raised = set()
    for path in Path(qwim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "attr", None) or getattr(exc, "id", None))
    bases = {qwim.errors.QwimError, qwim.errors.PotentialInputError, qwim.errors.SolverError}
    concrete = [
        name for name, cls in inspect.getmembers(qwim.errors, inspect.isclass)
        if issubclass(cls, qwim.errors.QwimError) and cls not in bases
    ]
    assert concrete
    assert [name for name in concrete if name not in raised] == []
    assert [name for name in concrete if name not in qwim.__all__] == []


def test_only_the_cli_imports_the_cross_checks():
    # the solvers reach the psi bridges through _arrays, never through
    # the cross-check module; __init__ names it for lazy loading only
    importers = set()
    for path in Path(qwim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("xcheck" in name.split(".") for name in names):
                importers.add(path.stem)
    assert "cli" in importers
    assert importers <= {"cli", "__init__"}


def test_only_the_transfer_matrix_builds_a_mirror():
    # right incidence walks the potential's own slab list, on the chain and
    # on the stepper alike; only the transfer-matrix oracle solves on the
    # mirror image
    callers = set()
    for path in Path(qwim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "mirrored"
            ):
                callers.add(path.stem)
    assert callers == {"xcheck"}


def test_only_the_incidence_helper_leaves_scattering():
    # the solve, the sweep, the resonance search and the CLI's profiles
    # carry the far lead's wave through one helper; no other private
    # name of scattering is imported elsewhere
    private = {}
    for stem in ("spectral", "cli"):
        path = Path(qwim.__file__).parent / f"{stem}.py"
        private[stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "scattering":
                private[stem] |= {alias.name for alias in node.names if alias.name.startswith("_")}
    assert private == {"spectral": {"_Incidence"}, "cli": {"_Incidence"}}


def test_the_cli_imports_nothing_from_the_chain():
    # profile and validate ask the incidence helper for Z and psi, so the
    # engines' internals reach the CLI only through _Incidence
    path = Path(qwim.__file__).parent / "cli.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "analytic":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.endswith("analytic")}
    assert imported == set()


def test_bench_tracer_targets_resolve():
    # the benchmark's tracer wraps these names by lookup; one that a
    # change deletes or renames would make its traced runs raise
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.MODULES:
        importlib.import_module(name)
    missing = []
    for span, home, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(home)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(span)
    assert tracer.TARGETS
    assert missing == []


def test_units_are_read_once_at_the_edge():
    # results depend on hbar and m only through c = 2m/hbar^2 and
    # w = m/hbar, which analytic._units takes once at the edge of every
    # public solve: only it, the model and the spec reader that build the
    # units, and xcheck's independent oracles read .hbar or .mass, and no
    # private walker of analytic, _arrays or riccati takes ``params``
    oracles = {"_wavevector", "_slab", "_square_well_theta0", "square_well_eigenvalues",
               "schrodinger_residual"}
    readers = set()
    for path in Path(qwim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, ast.Attribute) and node.attr in ("hbar", "mass")
                       for node in ast.walk(func)):
                    readers.add((path.stem, func.name))
    readers = {(stem, name) for stem, name in readers if stem not in ("model", "specfile")}
    assert readers == {("analytic", "_units"), *(("xcheck", name) for name in oracles)}
    from qwim import _arrays, analytic, riccati

    walkers = {
        analytic: ["_constants", "_chain", "_real_walk", "_linear_twin", "_sub_slab_maps",
                   "_linear_walks", "_phase", "_bridge", "_bridged", "_read", "_walks", "_turned",
                   "_anchored"],
        riccati: ["_trajectory"],
        _arrays: ["_linear_maps", "_region_constants_many", "_chain_many", "_slabs_many",
                  "_anchored_many"],
    }
    for module, names in walkers.items():
        private = [name for name, f in vars(module).items()
                   if name.startswith("_") and inspect.isfunction(f) and f.__module__ == module.__name__]
        assert set(names) <= set(private)
        takes = [name for name in private if "params" in inspect.signature(getattr(module, name)).parameters]
        assert takes == (["_units"] if module is analytic else []), module.__name__


def test_one_array_pass_serves_bridges_and_reads():
    # the psi bridge and the grid read walk through one array pass
    # (_arrays._anchored_many) and one scalar tail (analytic._walks and
    # analytic._anchored): the slab pass has two users, the energy
    # grid's chain and that pass, and the cell search, Python's abs over
    # an array and Python's complex division over arrays one each.  The
    # sub-slab maps at one energy, numpy's or the twin's, have one scalar
    # source (_sub_slab_maps), which the chain walking a linear slab list
    # and the lists of several walks at once (_linear_walks) take; the
    # real walk takes those lists and makes no maps of its own.  The
    # bound search's ends are one class, its route an attribute, not a
    # subclass
    users = {}
    for path in Path(qwim.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                            else node.name if isinstance(node, ast.alias) else None)
                    if (name in ("_slabs_many", "_cells", "_size", "_quotient", "_linear_steps", "_linear_twin",
                                 "_sub_slab_maps")
                            and name != func.name):
                        users.setdefault(name, set()).add(func.name)
    assert users == {"_slabs_many": {"_chain_many", "_anchored_many"}, "_cells": {"_anchored_many"},
                     "_size": {"_larger"}, "_quotient": {"_quotients"},
                     "_linear_steps": {"_sub_slab_maps"}, "_linear_twin": {"_sub_slab_maps"},
                     "_sub_slab_maps": {"_chain", "_linear_walks"}}
    from qwim import spectral

    assert [name for name, cls in inspect.getmembers(spectral, inspect.isclass)
            if issubclass(cls, spectral._Ends) and cls is not spectral._Ends] == []


def test_both_series_run_a_fixed_number_of_terms():
    # numpy's sub-slab series and its plain-Python twin take the same
    # number of terms at every (a, b): no loop but a for loop over
    # something that a and b do not enter, no branch or comparison that
    # could stop a term early or drop one, so neither's term count can
    # depend on its block.  No cube root splits a slab either: numpy's
    # and Python's round apart
    from qwim import _arrays, analytic

    stops = (ast.While, ast.If, ast.IfExp, ast.Compare, ast.Break, ast.Continue)
    for module in (analytic, _arrays):
        func = ast.parse(inspect.getsource(module._series)).body[0]
        data = {arg.arg for arg in func.args.args}
        assert data == {"a", "b"}
        loops = [node for node in ast.walk(func) if isinstance(node, ast.For)]
        assert loops, module.__name__
        for node in ast.walk(func):
            assert not isinstance(node, stops), module.__name__
        for loop in loops:
            names = {n.id for n in ast.walk(loop.iter) if isinstance(n, ast.Name)}
            assert not names & data, module.__name__
    for path in Path(qwim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            assert name not in ("cbrt", "_cbrt"), path.name
