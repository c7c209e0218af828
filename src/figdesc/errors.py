"""Exception types shared across the package.

Grouped by contract: input parsing, schema/alignment, ontology integrity,
resource lookup, numeric calibration, and configuration. The CLI maps these
onto exit codes (usage/config -> 1, data -> 2, internal -> 3).
"""


class FigdescError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FigdescError):
    """Invalid configuration value (bad lambda, fold count, flag combination)."""


class ArticleParseError(FigdescError):
    """Unparseable input bytes (malformed JSON or XML, or not UTF-8); names the offset."""


class SchemaError(FigdescError):
    """Structurally valid input that violates the expected schema; names the field."""


class AlignmentError(FigdescError):
    """Sidecar parses or gold labels that do not line up with the corpus."""


class PreconditionError(FigdescError):
    """An operation was called on input that violates its stated precondition."""


class OntologyError(FigdescError):
    """Base for ontology load/validation failures."""


class CycleError(OntologyError):
    """IS-A parent links form a cycle; message lists the cycle."""


class IntegrityError(OntologyError):
    """Dangling reference, reserved-name clash, or domain violation in the ontology."""


class CompletionError(OntologyError):
    """A property path could not be completed against the graph."""


class OovError(FigdescError):
    """Word absent from the embedding vocabulary."""


class EmbeddingFormatError(FigdescError):
    """Malformed embedding text file; message carries the line number."""


class CalibrationError(FigdescError):
    """Calibration called with unusable input (e.g. an empty corpus)."""


class DegenerateTableError(CalibrationError):
    """Calibration produced no weighable elements at all."""


class DivergenceError(FigdescError):
    """Gradient descent produced a non-finite loss; message carries the epoch."""
