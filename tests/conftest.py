"""Shared fixtures: physical parameters and seeded random problem sets."""

import contextlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qwim import analytic
from qwim.model import ModelParams, PiecewisePotential, PotentialSegment
from qwim.scattering import solve_scattering

SEED = 20260823

# pytest's pythonpath setting reaches this process only: the CLI and
# import tests start `python -m qwim` children, which find the package
# through PYTHONPATH when it is not installed
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def params():
    return ModelParams()


def _random_stack(rng) -> PiecewisePotential:
    n = int(rng.integers(1, 9))
    x = 0.0
    segs = []
    for _ in range(n):
        length = float(rng.uniform(0.1, 3.0))
        segs.append(PotentialSegment(x, x + length, float(rng.uniform(-3.0, 3.0))))
        x += length
    return PiecewisePotential(0.0, tuple(segs), 0.0)


@pytest.fixture(scope="session")
def random_stack_instances():
    """50 random piecewise stacks, 10 scattering energies each."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(50):
        pot = _random_stack(rng)
        energies = np.sort(rng.uniform(0.05, 8.0, size=10))
        out.append((pot, energies))
    return out


@pytest.fixture(scope="session")
def stack_scatter_results(random_stack_instances):
    """solve_scattering on all 500 shared instances, computed once."""
    out = []
    for pot, energies in random_stack_instances:
        for e in energies:
            out.append((pot, float(e), solve_scattering(pot, float(e))))
    return out


@pytest.fixture(scope="session")
def random_wells():
    """20 random (depth, width) pairs for square-well spectra."""
    rng = np.random.default_rng(SEED + 1)
    return [
        (float(rng.uniform(0.3, 30.0)), float(rng.uniform(0.4, 4.0)))
        for _ in range(20)
    ]


@pytest.fixture
def no_numpy(monkeypatch):
    """A context manager under which ``qwim.analytic`` sees no numpy
    loaded: its walks take the routes of a process that has not imported
    numpy (the list routes of ``_bridge`` and ``_read``, the twin's
    sub-slab maps), though numpy stays loaded for the test itself."""
    @contextlib.contextmanager
    def hidden():
        with monkeypatch.context() as m:
            m.setattr(analytic, "sys", SimpleNamespace(modules={}, float_info=sys.float_info))
            yield

    return hidden
