"""The two kinds of error the command line tells apart: the input's fault
(exit 2) and the program's own (exit 3)."""


class InputError(ValueError):
    """The input is wrong: a file, a formula, a model, an assessment, a
    game or an identification request the program cannot take.  Each
    module raises its own subclass."""


class InternalError(RuntimeError):
    """A result failed the program's own check: a bug, never bad input.

    Deliberately not a ``ValueError``, so no input-error handler can
    report it as a problem with the user's files."""
