"""Exception types shared across the package."""


class TsplabError(Exception):
    """Base class for all package-specific errors.

    exit_code is the CLI's exit status for the error: 1 for bad input,
    2 for generation or oracle infeasibility."""

    exit_code = 1


class TooSmallError(TsplabError):
    """Instance has fewer than three points."""


class DuplicatePointError(TsplabError):
    """Two points share the same coordinates."""

    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} coincide")
        self.labels = (i, j)


class CollinearTripleError(TsplabError):
    """Three points lie on a common line."""

    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"points {i}, {j}, {k} are collinear")
        self.labels = (i, j, k)


class GenerationExhaustedError(TsplabError):
    """Rejection sampling hit its retry budget; parameters too dense."""

    exit_code = 2


class TooLargeError(TsplabError):
    """Instance exceeds an exact oracle's size budget."""

    exit_code = 2


class ParseError(TsplabError):
    """Malformed instance, tour, or config file."""
