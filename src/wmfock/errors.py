"""Error types shared across the package."""


class FuelError(RuntimeError):
    """Rewriting exceeded its step budget."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree disagreed (canonical map vs evaluation)."""


class SizeLimitError(ValueError):
    """A truncated space would exceed the configured dimension cap."""


class WindowError(ValueError):
    """A generator index falls outside the space's index window."""


class FinitenessError(ValueError):
    """An Exel-Laca support set is infinite for the requested (X, Y)."""
