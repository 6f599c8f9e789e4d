"""Exception taxonomy shared by all nctheta modules."""


class NCThetaError(Exception):
    """Base class for every error raised by this package."""


class SingularIntegerMatrix(NCThetaError):
    """The integer block of a lattice embedding is not invertible."""


class NonPositiveDeformation(NCThetaError):
    """A deformation parameter that must be strictly positive is not."""


class NotCoprime(NCThetaError):
    """A finite-group twist n_i shares a factor with its order m_i."""


class EmbeddingConditionViolated(NCThetaError):
    """A column of the embedding map violates the orthogonality condition.

    Carries the offending 1-based column index as ``column``.
    """

    def __init__(self, column: int, residual: float):
        self.column = column
        self.residual = residual
        super().__init__(
            f"embedding column condition violated at column {column}"
            f" (residual {residual:.3e})"
        )


class KindMismatch(NCThetaError):
    """Objects from the vector-space and lattice embeddings were mixed."""


class DegenerateTestVector(NCThetaError):
    """Every grid value fell below the magnitude threshold of a measurement."""


class DivergentSeries(NCThetaError):
    """A theta series that cannot be summed in double precision: parameters
    outside the convergence region (Im tau <= 0), or a term beyond the
    floating-point range."""


class DivergentIntegral(NCThetaError):
    """Integrand does not decay, the quadrature would not converge."""


class DegenerateTau(NCThetaError):
    """A zero entry of the complex-structure matrix makes the argument undefined."""


class NotPositive(NCThetaError):
    """Imaginary part of a complex structure is not positive (definite)."""


class ConsistencyViolated(NCThetaError):
    """Complex-structure entries violate the symmetry consistency relation."""


class InternalIdentityViolated(NCThetaError):
    """An identity that holds by construction failed numerically: a bug."""


class TruncationTooSmall(NCThetaError):
    """The requested check needs a larger series truncation radius."""


class UnsupportedVector(NCThetaError):
    """Closed-form evaluation is only available for canonical theta vectors."""


class ConfigSyntax(NCThetaError):
    """The configuration file is not valid JSON."""


class ConfigInvalid(NCThetaError):
    """The configuration violates the schema or embedding invariants.

    ``message`` is the bare description; ``json_path`` points at the
    offending field when known.
    """

    def __init__(self, message: str, json_path: str = "$"):
        self.message = message
        self.json_path = json_path
        super().__init__(f"{message} (at {json_path})")
