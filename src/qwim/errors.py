"""Exception hierarchy shared by every solver module.

Two broad families matter for callers (and for the CLI exit codes):

* ``PotentialInputError`` -- the problem statement itself is malformed
  (bad segment geometry, unusable spec file).
* ``SolverError`` -- the problem is well posed but cannot be solved as
  requested (degenerate energy, step-size underflow, empty spectral
  window, ...).

Every class carries a short ``code`` used in structured error records.
"""

from __future__ import annotations


class QwimError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class PotentialInputError(QwimError):
    """Malformed potential or input file; maps to CLI exit code 2."""


class GapBetweenSegmentsError(PotentialInputError):
    pass


class OverlappingSegmentsError(PotentialInputError):
    pass


class EmptyDomainError(PotentialInputError):
    """Empty segment list without an explicit step location."""


class SpecFileError(PotentialInputError):
    """Unparseable or invalid problem file; message carries the field path."""


class NonFiniteInputError(PotentialInputError):
    """A NaN or infinite energy, level, position or sample."""


class SolverError(QwimError):
    """Well-posed input that the solver cannot handle; CLI exit code 3."""


class DegenerateEnergyError(SolverError):
    """E coincides with a level whose z and gamma must not vanish: a lead
    (it carries no flux there), or a region handed to the closed forms.
    A slab of a layer chain takes the linear limit instead."""


class TransformPoleError(SolverError):
    """Layer transform denominator vanished (wavefunction node at the
    requested interface)."""


class EvanescentIncidenceError(SolverError):
    """Scattering requested with E at or below the incidence-side lead."""


class StepSizeUnderflowError(SolverError):
    """Adaptive integrator could not meet tolerances with a finite step."""


class NonFiniteStateError(SolverError):
    """A solver's state (Riccati integration state, transfer-matrix
    entries) left the finite complex plane."""


class EmptyWindowError(SolverError):
    """Spectral search window is empty (no interior region below the leads)."""


class BracketingExhaustedError(SolverError):
    """A bound-state search found fewer states than the Sturm node count
    of its potential gives: the refinement of some bracket found no root
    of W there.

    Carries every energy the search evaluated (``energies``, ascending)
    and W at each (``mismatches``, NaN where W could not be evaluated),
    for post-mortem inspection.
    """

    def __init__(self, message: str, energies=None, mismatches=None):
        super().__init__(message)
        self.energies = energies
        self.mismatches = mismatches


class InsufficientSamplesError(SolverError):
    """Too few samples for the requested finite-difference stencil."""
