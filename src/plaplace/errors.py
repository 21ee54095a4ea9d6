"""Exception types shared across the package."""


class PlaplaceError(Exception):
    """Base class for all package-specific errors."""


class EstimationError(PlaplaceError):
    """Raised when the dense reference cannot be formed: every sample was singular."""


class TrainingDivergedError(PlaplaceError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training loss became non-finite at epoch {epoch}: {loss}")


class SamplingError(PlaplaceError):
    """Raised when reverse-time integration produces a non-finite state."""


class ConfigError(PlaplaceError):
    """Raised when an experiment config file fails schema validation."""
