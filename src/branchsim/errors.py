"""Exception types shared across the package."""


class BranchsimError(Exception):
    """Base class for package-specific failures."""


class ConfigError(BranchsimError):
    """Raised when a scenario config or model object fails validation."""


class NumericFailure(BranchsimError):
    """Raised when an iterative solver does not converge."""


class PopulationOverflow(BranchsimError):
    """Raised when a population count exceeds the configured cap."""


class InvalidRuleError(BranchsimError):
    """Raised when a custom absorbing rule returns an out-of-range count."""


class BudgetExceedsMass(BranchsimError):
    """Raised when the budget is at least the total expected claim mass.

    The threshold equation has no finite root in this regime and the
    stopping-time bound degenerates to the population size.
    """


class BatchTrialError(BranchsimError):
    """Wraps a failure inside one Monte Carlo trial with its trial index."""

    def __init__(self, trial_index, cause):
        super().__init__(f"trial {trial_index} failed: {cause!r}")
        self.trial_index = trial_index
        self.cause = cause
