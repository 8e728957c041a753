"""Shared exception types.

Exit-code mapping in the CLI: InputError (and subclasses) -> 1,
InvariantViolation -> 2.
"""


class InputError(Exception):
    """Bad user input: config values, flags, malformed dataset files."""


class DatasetFormatError(InputError):
    """A dataset file failed to parse; message carries file and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")


class InvariantViolation(RuntimeError):
    """An internal contract that should be unbreakable was broken."""


class TrainingDiverged(InputError):
    """Training produced a value that is not finite, for example after a
    learning rate, alpha or eta too large for float64; the message names the
    fold and the epoch or pass."""
