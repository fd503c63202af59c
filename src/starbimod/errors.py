"""Exception types shared across the library."""


class StarBimodError(Exception):
    """Base class for all library errors."""


class ParseError(StarBimodError):
    """Raised on malformed expression input.

    Carries the offset of the offending token, an index into the source
    string (a code point, not a byte: the tokenizer reads decimal digits
    of any script), and the set of token kinds that would have been
    accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset
        self.expected = frozenset(expected)

    def __reduce__(self):
        # Exception's own reduce replays only the formatted message
        return type(self), (self.message, self.offset, self.expected)


class TagMismatchError(StarBimodError):
    """Two bimodule elements with different generators were combined."""


class NotHermitianError(StarBimodError):
    """An element required to be hermitian is not."""


class DimensionMismatchError(StarBimodError):
    """Matrix or form dimensions do not agree."""


class MomentOutOfRangeError(StarBimodError):
    """A moment beyond the stored truncation was requested."""


class NotPositiveError(StarBimodError):
    """A matrix or moment sequence failed the positivity gate."""


class VariantMismatchError(StarBimodError):
    """A functional variant was applied to an incompatible element or measure."""


class UnsupportedVariantError(StarBimodError):
    """The requested operation is not defined for this functional variant."""


class MomentMismatchError(StarBimodError):
    """Two measures expected to share moments do not."""


class SingularGramError(StarBimodError):
    """The Gram matrix has no positive part left after kernel projection."""


class DoubleRangeError(StarBimodError):
    """A probe's scaled pencil has an entry beyond the double range."""
