"""Exception hierarchy and process exit codes.

Exit codes are part of the CLI contract: 0 success, 2 configuration
problem, 3 data problem (missing/malformed inputs), 4 numeric failure
(non-finite values during training or evaluation).
"""


class GpgaitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(GpgaitError):
    """Bad configuration: unknown key, invalid value, preset mismatch."""

    exit_code = 2


class DataError(GpgaitError):
    """Bad input data: missing files, malformed records, wrong shapes."""

    exit_code = 3


class RecordError(DataError):
    """A malformed record inside a sequence file; carries file and line."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class EmptySequenceError(GpgaitError):
    """Every frame of a sequence was dropped during normalization."""

    exit_code = 3


class NumericError(GpgaitError):
    """Non-finite value encountered in training or evaluation."""

    exit_code = 4
