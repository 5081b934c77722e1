"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 1,
numerical failures with 2.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, broken coupling ratios,
    malformed config files, or arguments outside an operation's domain."""


class NumericalError(RuntimeError):
    """Evolution produced unusable numbers; ``row`` is a failed stack's first bad row, or None."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class CutoffError(NumericalError):
    """Amplitude reached photon states that couple past the truncation,
    so the truncated dynamics can no longer be trusted."""


def _first_row(bad, item_ndim: int) -> int | None:
    """First row of a stacked ``bad`` that holds a True; None for one ``item_ndim``-D item."""
    return int(bad.reshape(len(bad), -1).any(axis=1).argmax()) if bad.ndim > item_ndim else None
