"""1D quantum scattering, bound states and resonances via wave impedances.

The impedance Z(x) = (hbar / i m) psi'(x)/psi(x) turns the Schrodinger
equation into a first-order Riccati equation.  Piecewise-constant
potentials solve exactly by chaining Moebius layer transforms; anything
else integrates the Riccati equation with an adaptive embedded
Runge-Kutta pair.  An independent transfer-matrix path cross-checks the
results.

Typical use::

    from qwim import PiecewisePotential, PotentialSegment, solve_scattering

    barrier = PiecewisePotential(0.0, (PotentialSegment(0.0, 2.0, 1.0),), 0.0)
    res = solve_scattering(barrier, 2.0)
    print(res.big_r, res.big_t)

``import qwim`` loads the numpy-free layers only: the errors, the
models, the closed-form slab algebra, scattering and spec files.  A
piecewise solve at one energy runs on them in plain complex arithmetic.
The array layer (``qwim._arrays``: energy sweeps, sampled potentials),
the Riccati stepper (``qwim.riccati``) and the cross-checks
(``qwim.xcheck``) load numpy.  The spectral searches (``qwim.spectral``)
load it only for the resonance scan: a bound search on a piecewise
potential runs without it.  These modules are imported when first used;
their names here resolve on first access.
"""

from importlib import import_module

from .errors import (
    BracketingExhaustedError,
    DegenerateEnergyError,
    EmptyDomainError,
    EmptyWindowError,
    EvanescentIncidenceError,
    GapBetweenSegmentsError,
    InsufficientSamplesError,
    NonFiniteInputError,
    NonFiniteStateError,
    OverlappingSegmentsError,
    PotentialInputError,
    QuadratureDivergenceError,
    QwimError,
    SolverError,
    SpecFileError,
    StepSizeUnderflowError,
    TransformPoleError,
)
from .model import (
    IntegrationConfig,
    ModelParams,
    PiecewisePotential,
    Potential,
    PotentialSegment,
    SampledPotential,
    Side,
)
from .analytic import (
    BarrierAmplitudes,
    RegionConstants,
    barrier_closed_forms,
    layer_transform,
    propagate_impedance,
    psi_growth_factor,
    region_constants,
)
from .scattering import (
    EnergyPointError,
    ScatteringResult,
    energy_sweep,
    solve_scattering,
)
from .specfile import ProblemSpec, load_spec, parse_spec

# The layers that load numpy, or may, and their public names, by home
# module; a module is imported when it or one of its names is first
# read, as ``qwim.xcheck`` or ``qwim.find_bound_states``.
_LAZY = {
    "riccati": "riccati",
    "spectral": "spectral",
    "xcheck": "xcheck",
    "ImpedanceTrajectory": "riccati",
    "integrate_impedance": "riccati",
    "z_minus": "riccati",
    "z_plus": "riccati",
    "SpectrumKind": "spectral",
    "SpectrumResult": "spectral",
    "find_bound_states": "spectral",
    "find_resonances": "spectral",
    "impedance_mismatch": "spectral",
    "Normalization": "xcheck",
    "TransferResult": "xcheck",
    "WavefunctionProfile": "xcheck",
    "reconstruct_wavefunction": "xcheck",
    "schrodinger_residual": "xcheck",
    "square_well_eigenvalues": "xcheck",
    "square_well_state_count": "xcheck",
    "transfer_matrix_solve": "xcheck",
}


def __getattr__(name: str):
    # read through on every access, never stored here: a name patched in
    # its home module (a test's monkeypatch, a tracer) is seen as patched
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "BarrierAmplitudes",
    "BracketingExhaustedError",
    "DegenerateEnergyError",
    "EmptyDomainError",
    "EmptyWindowError",
    "EnergyPointError",
    "EvanescentIncidenceError",
    "GapBetweenSegmentsError",
    "ImpedanceTrajectory",
    "InsufficientSamplesError",
    "IntegrationConfig",
    "ModelParams",
    "NonFiniteInputError",
    "NonFiniteStateError",
    "Normalization",
    "OverlappingSegmentsError",
    "PiecewisePotential",
    "Potential",
    "PotentialInputError",
    "PotentialSegment",
    "ProblemSpec",
    "QuadratureDivergenceError",
    "QwimError",
    "RegionConstants",
    "SampledPotential",
    "ScatteringResult",
    "Side",
    "SolverError",
    "SpecFileError",
    "SpectrumKind",
    "SpectrumResult",
    "StepSizeUnderflowError",
    "TransferResult",
    "TransformPoleError",
    "WavefunctionProfile",
    "barrier_closed_forms",
    "energy_sweep",
    "find_bound_states",
    "find_resonances",
    "impedance_mismatch",
    "integrate_impedance",
    "layer_transform",
    "load_spec",
    "parse_spec",
    "propagate_impedance",
    "psi_growth_factor",
    "reconstruct_wavefunction",
    "region_constants",
    "schrodinger_residual",
    "solve_scattering",
    "square_well_eigenvalues",
    "square_well_state_count",
    "transfer_matrix_solve",
    "z_minus",
    "z_plus",
]
