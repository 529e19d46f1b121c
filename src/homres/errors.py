"""Exception hierarchy shared by all homres modules."""


class HomresError(Exception):
    """Base class for all homres errors."""


class InvalidInput(HomresError, ValueError):
    """Malformed or mismatched input data (wrong shapes, wrong algebra, ...)."""


class UnsupportedField(HomresError):
    """A computation needs data the algebra does not carry: the minimal cover
    needs primitive idempotents, which table algebras lack.

    Raised instead of returning a possibly-wrong answer.
    """


class NotFiniteDimensional(HomresError):
    """A quiver presentation admits infinitely many nonzero paths."""


class NotAGenerator(HomresError):
    """An add(M)-approximation step was not surjective, so M cannot be a generator."""


class NeedsFiniteInjdim(HomresError):
    """An operation requires a finite injective-dimension witness that was not supplied."""


class HypothesesNotSatisfied(HomresError):
    """A verifier's stated preconditions failed; the verdict is withheld."""


class SearchExhausted(HomresError):
    """A bounded exhaustive/randomized search ended without a decision."""


class InternalError(HomresError):
    """An invariant the theory guarantees failed to hold; indicates a bug."""
