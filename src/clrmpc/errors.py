"""Exception types shared across the toolkit.

The CLI maps a subset of these onto process exit codes, so raising the
right class matters more than the message text.
"""


class DimensionMismatch(ValueError):
    """Matrix or vector shapes are inconsistent with the declared sizes."""


class NotSymmetric(ValueError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NoConvergence(RuntimeError):
    """An iterative routine hit its iteration cap before its tolerance."""


class Unstabilizable(RuntimeError):
    """No stabilizing feedback exists for the given pair (a, b)."""


class SolverFailure(RuntimeError):
    """The QP/LP solver stalled or returned an unusable status."""


class EmptyPolytope(ValueError):
    """A polytope description is trivially empty (zero row, negative rhs)."""


class ModelFormatError(ValueError):
    """A model file is malformed: unknown key, missing key, or bad literal."""


class InfeasibleLmi(RuntimeError):
    """Terminal cost search could not reach the required matrix margin."""


class InitialGuessInfeasible(RuntimeError):
    """No feasible multipliers exist at the scaled initial tightening."""


class Infeasible(RuntimeError):
    """A convex subproblem of the offline synthesis has no solution."""


class NoProgress(RuntimeError):
    """The offline alternation could not complete a single improving step."""


class MpcInfeasible(RuntimeError):
    """The online QP is infeasible at the current state."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class FingerprintMismatch(RuntimeError):
    """Certificate was synthesized for a different model file."""


class MissingArtifacts(RuntimeError):
    """The report command could not find the expected output files."""
