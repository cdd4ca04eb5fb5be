"""Exception types shared across the package.

The CLI maps these onto exit codes (usage errors are argparse's own):
DataError -> 3, StageOrderError -> 4.
"""


class DataError(ValueError):
    """Malformed or inconsistent input data (files, manifests, shapes)."""


class StageOrderError(RuntimeError):
    """A training stage was requested before its prerequisites exist."""
