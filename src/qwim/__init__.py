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
"""

from .errors import (
    BracketingExhaustedError,
    DegenerateEnergyError,
    EmptyDomainError,
    EmptyWindowError,
    EvanescentIncidenceError,
    GapBetweenSegmentsError,
    NonFiniteInputError,
    NonFiniteStateError,
    NonPositiveRealPartError,
    OverlappingSegmentsError,
    PoleAtXError,
    PotentialInputError,
    QuadratureDivergenceError,
    QwimError,
    SolverError,
    SpecFileError,
    StepSizeUnderflowError,
    TransformPoleError,
)
from .model import (
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
    impedance_at,
    layer_transform,
    phase_from_impedance,
    propagate_impedance,
    psi_growth_factor,
    region_constants,
    step_reflection,
)
from .riccati import (
    ImpedanceTrajectory,
    IntegrationConfig,
    integrate_impedance,
    z_minus,
    z_plus,
)
from .scattering import (
    EnergyPointError,
    ScatteringResult,
    constant_current_diagnostic,
    current_profile,
    energy_sweep,
    solve_scattering,
)
from .spectral import (
    SpectrumKind,
    SpectrumResult,
    find_bound_states,
    find_resonances,
    impedance_mismatch,
)
from .specfile import ProblemSpec, load_spec, parse_spec, render_spec
from .xcheck import (
    Normalization,
    TransferResult,
    WavefunctionProfile,
    reconstruct_wavefunction,
    schrodinger_residual,
    square_well_eigenvalues,
    square_well_state_count,
    transfer_matrix_solve,
)

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
    "IntegrationConfig",
    "ModelParams",
    "NonFiniteInputError",
    "NonFiniteStateError",
    "NonPositiveRealPartError",
    "Normalization",
    "OverlappingSegmentsError",
    "PiecewisePotential",
    "PoleAtXError",
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
    "constant_current_diagnostic",
    "current_profile",
    "energy_sweep",
    "find_bound_states",
    "find_resonances",
    "impedance_at",
    "impedance_mismatch",
    "integrate_impedance",
    "layer_transform",
    "load_spec",
    "parse_spec",
    "phase_from_impedance",
    "propagate_impedance",
    "psi_growth_factor",
    "reconstruct_wavefunction",
    "region_constants",
    "render_spec",
    "schrodinger_residual",
    "solve_scattering",
    "square_well_eigenvalues",
    "square_well_state_count",
    "step_reflection",
    "transfer_matrix_solve",
    "z_minus",
    "z_plus",
]
