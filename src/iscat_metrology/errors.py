"""Exception types shared across the package, each a ValueError: the CLI
exits 3 on a NotEstimableError (subclasses included) and 2 on any other."""


class EnergyBudgetError(ValueError):
    """An arm amplitude exceeds the photon budget of the input field."""


class NotEstimableError(ValueError):
    """The configuration carries no information about the requested parameter."""


class VacuumPhaseError(NotEstimableError):
    """The detector field vanishes; its phase (and the CFI) is undefined."""


class BracketError(NotEstimableError):
    """A likelihood maximum could not be located inside the search bracket."""


class DegenerateFieldError(ValueError):
    """A signal-to-noise denominator vanishes (total destructive interference)."""
