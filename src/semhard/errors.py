"""Exception types shared across the package."""


class SemhardError(Exception):
    """Base class for all package-specific errors."""


class KTooLarge(SemhardError):
    """The truncation rank is outside 1..min(n, w) - 1."""


class ConvergenceFailure(SemhardError):
    """The truncated SVD did not converge: the subspace iteration's singular
    values did not settle within its iteration cap, or ARPACK gave up or failed."""


class ShapeMismatch(SemhardError):
    """Matrix shapes are inconsistent with the operation's contract."""


class EmptySequence(SemhardError):
    """A token sequence was empty where a non-empty one is required."""


class NonFiniteGradient(SemhardError):
    """Training diverged: NumPy's traps caught its first NaN or infinity where it was made."""


class MissingImageId(SemhardError):
    """A caption references an image id that does not exist."""


class UncaptionedImage(SemhardError):
    """An image of the features file has no caption in the captions file."""


class DimensionMismatch(SemhardError):
    """A feature row's dimension disagrees with the declared d_img."""


class TruncatedFile(SemhardError):
    """A file ends before the rows or bytes its header declares."""


class BadCheckpoint(SemhardError, ValueError):
    """A binary matrix file (a checkpoint or a semantics export) has the wrong
    magic, an unsupported version, extra bytes, NaN or inf, or unfit shapes,
    or a checkpoint's embeddings of the data are not finite."""


class MalformedLine(SemhardError):
    """A line of an input file does not follow the file's format."""


class DuplicateDescriptionId(SemhardError):
    """Two captions carry the same description id."""


class EmptyDataset(SemhardError):
    """The dataset holds no items, or a corpus has too few captions for TF-IDF
    or too few terms for the SVD."""


class BeforeFirstValidation(SemhardError):
    """A training run would finish without ever validating, or the validation
    split holds no caption to validate or evaluate on."""


class UnknownConfigKey(SemhardError):
    """A config file or override used a key that is not recognised."""


class BadConfigValue(SemhardError):
    """A config file or override gave a value of the wrong type, or out of range, for its key."""
