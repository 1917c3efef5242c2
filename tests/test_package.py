"""The package namespace: what ``import qwim`` loads and exports."""

import subprocess
import sys

import pytest

import qwim
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
        "qwim.xcheck True",
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
