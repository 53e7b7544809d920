"""Exception types shared across the simulator."""


class FedMetaSimError(Exception):
    """Base class for all simulator errors."""


class ContractViolation(FedMetaSimError):
    """An operation was called outside its documented preconditions."""


class NumericError(FedMetaSimError):
    """A computation produced non-finite values."""


class DivergenceError(NumericError):
    """Local optimization left the finite range.

    Carries the step index (and, when raised by the round driver, the
    client and round) at which parameters stopped being finite. Raised by
    ``model.sgd_trajectory``, ``client_id`` is the position of the diverging
    trajectory among its schedules.
    """

    def __init__(self, message, step_index=None, client_id=None, round_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.client_id = client_id
        self.round_index = round_index


class CapacityError(FedMetaSimError):
    """Problem size exceeds a hard implementation cap."""


class ParseError(FedMetaSimError):
    """Malformed input file content."""


class SchemaError(FedMetaSimError):
    """Input file content violates the declared schema."""


class CheckpointError(FedMetaSimError):
    """Checkpoint file is malformed or does not match the model spec."""


class ConfigError(FedMetaSimError):
    """Experiment configuration is invalid."""
