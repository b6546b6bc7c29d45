"""Exception types shared across the package.

Two failure families matter to callers: data that violates a structural
invariant (bad densities, mismatched dimensions, malformed configs), and
numerical breakdown inside an otherwise well-posed computation (overflow,
vanishing projector overlap, non-convergent eigensolver).  The CLI maps the
former to exit code 1 and the latter to exit code 2.
"""


class InvariantError(ValueError):
    """Input violates a documented structural invariant."""


class ConfigError(InvariantError):
    """A config, inline source or state/channel file failed its key rules.

    ``pointer`` holds the JSON pointer of the offending element, after
    ``<path>#`` in a file.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"config error at {pointer or '/'}: {message}")


class NumericalError(RuntimeError):
    """A numerical routine left its domain of validity."""
