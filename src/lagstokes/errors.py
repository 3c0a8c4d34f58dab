"""Exception hierarchy for lagstokes."""


class LagStokesError(Exception):
    """Base class for all lagstokes errors."""

    category = "generic"


class ParameterError(LagStokesError, ValueError):
    """Invalid construction or call parameters."""

    category = "parameter"


class ShapeError(LagStokesError, ValueError):
    """Array shape or mesh mismatch between operands."""

    category = "shape"


class FacetLookupError(LagStokesError, KeyError):
    """Unknown facet id."""

    category = "lookup"


class StateLookupError(LagStokesError, LookupError):
    """A trajectory state, or a series that needs every state, which the
    trajectory does not hold."""

    category = "lookup"


class DomainError(LagStokesError, ValueError):
    """Input outside the mathematical domain of the operation."""

    category = "domain"


class SingularityError(LagStokesError):
    """Singular per-node matrix; carries the offending node id."""

    category = "singularity"

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node


class ConvergenceError(LagStokesError):
    """An iterative process failed to reach its tolerance."""

    category = "convergence"


class NonContractionError(ConvergenceError):
    """Fixed-point map failed to contract; carries the measured factor."""

    category = "non-contraction"

    def __init__(self, msg, factor=None):
        super().__init__(msg)
        self.factor = factor


class GeometryError(LagStokesError):
    """Lagrangian geometry left its validity region (kappa too large,
    degenerate pushforward, zero-measure mesh)."""

    category = "geometry"


class SolverError(LagStokesError):
    """Linear solver failure (singular or badly scaled system)."""

    category = "solver"


class ResolventError(SolverError):
    """Near-singular resolvent solve; carries an estimated distance to the
    spectrum (1/||R(lambda)|| probe)."""

    category = "resolvent"

    def __init__(self, msg, distance_estimate=None):
        super().__init__(msg)
        self.distance_estimate = distance_estimate


class DataError(LagStokesError, ValueError):
    """Inconsistent problem data (e.g. divergence datum without a matching
    flux potential)."""

    category = "data"


class NumericError(LagStokesError):
    """Numerical analysis failure outside linear solves (eigen-solvers,
    fits on degenerate input)."""

    category = "numeric"


class ValidationError(LagStokesError, ValueError):
    """Configuration value rejected; names the offending field."""

    category = "validation"

    def __init__(self, msg, field=None):
        super().__init__(msg)
        self.field = field


class ConfigParseError(LagStokesError, ValueError):
    """Malformed configuration file; carries a line number when known."""

    category = "parse"

    def __init__(self, msg, line=None):
        super().__init__(msg)
        self.line = line
