"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 1,
numerical failures with 2.
"""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, malformed config files,
    or arguments outside an operation's domain."""


class NumericalError(RuntimeError):
    """Evolution produced unusable numbers; ``row`` is the first bad row of
    a failed stack, or None."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class CutoffError(NumericalError):
    """Amplitude reached photon states that couple past the truncation,
    so the truncated dynamics can no longer be trusted."""


def _first_row(bad, item_ndim: int) -> int | None:
    """First row of a stacked ``bad`` that holds a True; None for one ``item_ndim``-D item."""
    return int(bad.reshape(len(bad), -1).any(axis=1).argmax()) if bad.ndim > item_ndim else None


def _refuse_bools(name: str, values) -> None:
    """The rule on every number: ``values``, one or a sequence or array of
    them, holds no bool (Python's or numpy's), which would load as 1 or 0."""
    items = values if isinstance(values, (list, tuple)) else [values]
    if any(isinstance(v, (bool, np.bool_)) or getattr(v, "dtype", None) == bool for v in items):
        raise ConfigError(f"{name} must be a number, not a bool, got {values}")
