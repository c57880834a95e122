"""The error every module raises when one of its own invariants fails."""


class InternalError(RuntimeError):
    """A result failed the program's own check: a bug, never bad input.

    Deliberately not a ``ValueError``, so no input-error handler can
    report it as a problem with the user's files."""
