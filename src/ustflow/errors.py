"""Error types raised across the library."""


class UstflowError(Exception):
    """Base class for all library errors."""


class DegenerateElement(UstflowError):
    """Element whose Jacobian determinant is below the degeneracy tolerance."""


class InvertedElement(UstflowError):
    """Extrusion produced a simplex with non-positive measure."""

    def __init__(self, message, element=None, level=None):
        super().__init__(message)
        self.element = element
        self.level = level


class MeshTopologyError(UstflowError):
    """Boundary or connectivity data inconsistent with the element set."""


class UnsupportedRule(UstflowError):
    """Requested quadrature dimension/degree combination is not available."""


class NonFiniteTau(UstflowError):
    """Stabilization parameter evaluated to zero or a non-finite value."""


class ZeroDenominator(UstflowError):
    """tau_MOM * (g.g) vanished while evaluating tau_CONT."""


class NonFiniteResidual(UstflowError):
    """Assembled residual contains NaN or Inf entries."""


class MissingPreviousState(UstflowError):
    """Jump term requested without an initial condition or previous slab trace."""


class ConfigurationError(UstflowError):
    """Scenario definition violates a contract (e.g. overlapping BC tags)."""


class NotConverged(UstflowError):
    """Newton stopped short of its tolerance where a converged run is needed."""


class LinearSolveFailure(UstflowError):
    """Linear solver did not produce a usable solution."""


class Stagnation(LinearSolveFailure):
    """GMRES failed to reach the requested tolerance within its budget."""


class Breakdown(LinearSolveFailure):
    """GMRES broke down (invalid input or numerical breakdown)."""


class EmptySlice(UstflowError):
    """Slice time lies outside the temporal extent of the mesh."""


class IoFailure(UstflowError):
    """File could not be written or read."""


class ParseError(UstflowError):
    """Malformed line in a mesh, scenario, or result file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownKey(ParseError):
    """Unrecognized key in a scenario configuration file."""
