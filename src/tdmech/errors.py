"""Exception types shared across the package."""


class MechanicsError(Exception):
    """Base class for every error raised by this package."""


class InputError(MechanicsError):
    """Invalid argument, dimension mismatch, or out-of-contract value."""


class ParseError(MechanicsError):
    """Source text does not match the expression grammar."""

    def __init__(self, message: str, offset: int, expected: str):
        super().__init__(f"{message} at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected


class UnboundVariableError(MechanicsError):
    """An expression was evaluated without a value for one of its variables."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(MechanicsError):
    """Evaluation left the domain of an operation (log, sqrt, division, power)."""

    def __init__(self, message: str, node_source: str):
        super().__init__(f"{message} in '{node_source}'")
        self.node_source = node_source


class SingularMatrix(MechanicsError):
    """A matrix that must be invertible is numerically singular."""


class SingularLagrangian(SingularMatrix):
    """The velocity Hessian of the Lagrangian is singular (degenerate system)."""


class NoConvergence(MechanicsError):
    """An iterative solver exhausted its iteration budget."""


class IntegrationBlowup(MechanicsError):
    """The integrated state became non-finite or left the domain of the flow."""

    def __init__(self, last_t: float):
        super().__init__(f"state became non-finite after t={last_t!r}")
        self.last_t = last_t


class OffShellTrajectory(MechanicsError):
    """A trajectory violates its equations of motion beyond tolerance."""


class ChartBoundary(MechanicsError):
    """The chart transform has a vanishing time component at this jet."""


class AtInfinity(MechanicsError):
    """A tangent vector with vanishing time component has no finite velocity."""


class SpacelikeDirection(MechanicsError):
    """The requested direction is not timelike for the given metric."""


class ConfigError(InputError):
    """A configuration file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
