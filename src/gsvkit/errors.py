"""Exception types shared across the library."""


class GsvkitError(Exception):
    """Base class for all errors raised by gsvkit."""


class PolynomialSyntaxError(GsvkitError):
    """Malformed polynomial text.  ``offset`` is the 0-based UTF-8 byte
    offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownVariableError(GsvkitError):
    """An identifier in polynomial text is not in the declared variable list."""

    def __init__(self, name, offset):
        super().__init__(f"unknown variable {name!r} (byte offset {offset})")
        self.name = name
        self.offset = offset


class VariableMismatchError(GsvkitError):
    """Two polynomials with different variable lists were combined."""


class IterationLimitError(GsvkitError):
    """A division or completion loop used up the library's fixed budget of
    reduction steps, or reached a degree past its packed exponent fields."""


class InfiniteDimensionError(GsvkitError):
    """A quotient expected to be a finite-dimensional vector space is not.

    ``step`` is set when the failure happened at a specific stage of a
    chain computation (1-based), so the caller can permute generators.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NotMemberError(GsvkitError):
    """The element does not belong to the ideal in the local ring.

    ``index`` is the 0-based position of that element among the targets
    that were tested together.
    """

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class NotInvariantError(GsvkitError):
    """The vector field is not tangent to the curve germ.

    ``row`` is the 0-based index of the equation whose derivative along
    the field failed the ideal-membership test.
    """

    def __init__(self, row):
        super().__init__(f"df_{row + 1}(v) is not in the ideal of the curve: "
                         "the germ is not invariant")
        self.row = row


class DuplicatePointError(GsvkitError):
    """Two supplied chart points name the same projective point."""


class PointNotOnCurveError(GsvkitError):
    """A supplied point does not satisfy the curve equations."""


class InternalCheckError(GsvkitError):
    """An internal exact-arithmetic consistency check failed (library defect)."""
