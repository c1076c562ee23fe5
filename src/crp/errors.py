"""Exception types shared across the library."""


class CrpError(Exception):
    """Base class for all library errors."""


class InvalidGrid(CrpError):
    pass


class LiftFailure(CrpError):
    pass


class OffGrid(CrpError):
    pass


class GridMismatch(CrpError):
    pass


class ShapeError(CrpError):
    pass


class Explosion(CrpError):
    """Raised when a solution exceeds the configured ambient bound.

    Carries the last time at which the solution was still valid.
    """

    def __init__(self, time, message=None):
        self.time = float(time)
        super().__init__(message or f"solution exploded after t={self.time!r}")


class ChartExit(CrpError):
    def __init__(self, time=None, message=None):
        self.time = time
        super().__init__(message or f"trajectory left the chart domain at t={time!r}")


class LogFailure(CrpError):
    pass


class NearCutLocus(CrpError):
    pass


class ChartSingular(CrpError):
    pass


class DomainError(CrpError):
    pass


class GaugeMismatch(CrpError):
    pass


class NotOnManifold(DomainError):
    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"sample {index} is not on the manifold")


class AtlasGap(DomainError):
    """No chart of the atlas contains the point."""


class NotRelated(CrpError):
    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"fields are not related (worst residual {residual:.3e})")


class InsufficientLevels(CrpError):
    pass


class ConfigError(CrpError):
    pass
