"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Vector or matrix shapes do not match the ground space; a ``ValueError``."""


class ContractError(ValueError):
    """A numerical contract was violated (bad spectrum, degenerate basis, ...); a ``ValueError``, exit code 3."""


class DegenerateBasisError(ContractError):
    """A spanning set is numerically rank deficient; a :class:`ContractError`."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"basis vector {index} is numerically dependent on its predecessors")


class AngleDegeneracyError(ContractError):
    """A deformation vector is too close to the current subspace; a :class:`ContractError`."""

    def __init__(self, index: int, angle: float, min_angle: float):
        self.index = index
        self.angle = angle
        self.min_angle = min_angle
        super().__init__(
            f"vector {index} makes angle {angle:.3e} rad with the current span, below the bound {min_angle:.3e}"
        )


class InducibilityError(ContractError):
    """The operator 1 + (g-1)P is not safely invertible; a :class:`ContractError`."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(f"conditioning margin 1 - ||sqrt(1-g)P|| = {margin:.3e} is not positive")


class ConditioningImpossibleError(ContractError):
    """The normalization constant of the reweighted process vanishes; a :class:`ContractError`."""


class EmptyWindowError(ValueError):
    """A window a computation needs holds no grid point; a ``ValueError``."""


class EnumerationSizeError(ValueError):
    """Ground space too large for exhaustive configuration enumeration; a ``ValueError``."""


class ConfigError(ValueError):
    """Experiment configuration failed schema validation; a ``ValueError``."""
