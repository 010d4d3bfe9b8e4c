"""Exception types shared across the package."""


class NotDivisible(ArithmeticError):
    """Exact division failed: the quotient is not integral.

    Raised by Laurent-polynomial division and by divided powers when a
    matrix entry does not divide exactly.  This is never caught and
    ignored internally; it signals a wrong convention somewhere.
    """


class CertificateError(ArithmeticError):
    """An exact certificate failed: a generator of the model does not
    commute with the Hecke action on words, so an operator would not be
    fixed by its images of the ordered words."""


class SizeLimit(RuntimeError):
    """The requested tensor model would exceed the word-count cap."""


class BadWeight(ValueError):
    """A weight vector has the wrong length, a negative part, or a bad sum."""


class NotInSpan(ValueError):
    """An operator has no (unique) expansion in the given family."""


class HypothesisError(ValueError):
    """A precondition on (n, d) is violated, e.g. n < d for Hecke truncation."""
