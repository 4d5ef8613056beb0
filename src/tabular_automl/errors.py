"""Exception and warning types shared across the engine."""


class AutomlError(Exception):
    """Base class for all engine errors."""


# --- data loading / analysis ---

class MissingTarget(AutomlError):
    """Target column name not present in the CSV header."""


class MalformedCsv(AutomlError):
    """Ragged rows, unterminated quotes, or otherwise unparseable CSV."""


class EmptyData(AutomlError):
    """CSV contains a header but no data rows."""


class DegenerateTarget(AutomlError):
    """Target column has a single unique value."""


class TooFewRows(AutomlError):
    """Not enough rows to split."""


class WrongProblemType(AutomlError):
    """Operation requires a different problem type."""


class AllColumnsIgnored(AutomlError):
    """No feature column received a usable type."""


# --- transforms / learners ---

class EmptySelection(AutomlError):
    """Transformer selected zero columns."""


class ArityMismatch(AutomlError):
    """Column or feature count differs from fit time."""


class UnparseableRegressionTarget(AutomlError):
    """Regression target value does not parse as a number."""


class NonFiniteInput(AutomlError):
    """Training matrix contains NaN or Inf."""


class SingleClass(AutomlError):
    """Classification labels are constant."""


# --- strategy / definitions ---

class NoApplicableStrategy(AutomlError):
    """Every portfolio strategy was gated out for this dataset."""


class RealizationMismatch(AutomlError):
    """Strategy rule references a column type absent from the schema."""


class _LocatedError(AutomlError):
    """An error whose message starts with the file and line it points at."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = f"{path or '<input>'}:{line}" if line is not None else str(path or "<input>")
        super().__init__(f"{loc}: {message}")


class ParseError(_LocatedError):
    """Definition file syntax error."""


class ValidationError(_LocatedError):
    """Definition file parsed but violates a domain constraint."""


# --- zeroshot / tuner ---

class OptionOutOfRange(AutomlError, ValueError):
    """A config value outside its range, rejected as the config is built."""


class TooLarge(AutomlError):
    """Exact portfolio enumeration guard exceeded."""


class Exhausted(AutomlError):
    """Trial budget or wall clock spent."""


class UnknownTrial(AutomlError):
    """Reported trial id was never issued."""


class DoubleReport(AutomlError):
    """Trial outcome reported twice."""


class AllTrialsFailed(AutomlError):
    """Every issued trial failed; no leaderboard can be produced."""


class DegenerateHistory(AutomlError):
    """Surrogate model cannot be fit (all observed losses identical)."""


# --- warnings ---

class ClassTooSmallWarning(UserWarning):
    """A class with a single member was forced into the train split."""


class DegenerateFitWarning(UserWarning):
    """A transformer saw only missing values and fit a constant."""


class ClampedInputWarning(UserWarning):
    """Negative inputs to the log transform were clamped at zero."""


class OverCapacityWarning(UserWarning):
    """Memory estimate exceeds every catalog entry."""
