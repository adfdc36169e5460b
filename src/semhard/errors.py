"""Exception types shared across the package."""


class SemhardError(Exception):
    """Base class for all package-specific errors."""


class AllDocumentsEmpty(SemhardError):
    """Every document in the corpus was empty after preprocessing."""


class KTooLarge(SemhardError):
    """Requested truncation rank exceeds min(n_rows, n_cols)."""


class ConvergenceFailure(SemhardError):
    """The iterative SVD solver did not meet its residual bound."""


class ShapeMismatch(SemhardError):
    """Matrix shapes are inconsistent with the operation's contract."""


class ZeroNormEmbedding(SemhardError):
    """An embedding projected to the zero vector and cannot be normalized."""


class EmptySequence(SemhardError):
    """A token sequence was empty where a non-empty one is required."""


class NonFiniteGradient(SemhardError):
    """A gradient contained NaN or infinity."""


class SemanticRowMisalignment(SemhardError):
    """Reduced semantic rows do not align with the dataset description order."""


class EmptyBatch(SemhardError):
    """A mini-batch was empty or too small for the loss to be defined."""


class MissingImageId(SemhardError):
    """A caption references an image id that does not exist."""


class DimensionMismatch(SemhardError):
    """A feature row's dimension disagrees with the declared d_img."""


class TruncatedFile(SemhardError):
    """A file ends before the rows or bytes its header declares."""


class DuplicateDescriptionId(SemhardError):
    """Two captions carry the same description id."""


class EmptyDataset(SemhardError):
    """The dataset holds no items."""


class BeforeFirstValidation(SemhardError):
    """A training run finished without ever validating."""


class UnknownConfigKey(SemhardError):
    """A config file or override used a key that is not recognised."""
