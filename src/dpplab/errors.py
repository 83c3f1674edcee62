"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Vector or matrix shapes do not match the ground space."""


class ContractError(ValueError):
    """A numerical contract was violated (non-projection input, bad spectrum, ...)."""


class DegenerateBasisError(ValueError):
    """A spanning set is numerically rank deficient."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"basis vector {index} is numerically dependent on its predecessors")


class AngleDegeneracyError(ValueError):
    """A deformation vector is too close to the current subspace."""

    def __init__(self, index: int, angle: float, min_angle: float):
        self.index = index
        self.angle = angle
        self.min_angle = min_angle
        super().__init__(
            f"vector {index} makes angle {angle:.3e} rad with the current span, below the bound {min_angle:.3e}"
        )


class InducibilityError(ValueError):
    """The operator 1 + (g-1)P is not safely invertible."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(f"conditioning margin 1 - ||sqrt(1-g)P|| = {margin:.3e} is not positive")


class ConditioningImpossibleError(ValueError):
    """The normalization constant of the reweighted process vanishes."""


class SpecialFunctionRangeError(ValueError):
    """A special function was asked for a value outside the range its evaluation is validated on."""

    def __init__(self, function: str, order: float, x: float, error_bound: float):
        self.order = order
        self.x = x
        self.error_bound = error_bound
        super().__init__(
            f"{function}({order:g}, {x:g}) cannot be evaluated reliably: rounding error bound "
            f"{error_bound:.1e} exceeds the tolerance"
        )


class EnumerationSizeError(ValueError):
    """Ground space too large for exhaustive configuration enumeration."""


class ConfigError(ValueError):
    """Experiment configuration failed schema validation."""
