"""Exception hierarchy shared across the package."""


class SqlkbError(Exception):
    """Base class for all package errors."""


# --- dataset / storage ---

class ParseError(SqlkbError):
    """A file could not be parsed into the expected structure."""


class SchemaRefError(SqlkbError):
    """A record references a database id that is not part of the dataset."""


class UnsupportedEngineError(SqlkbError):
    """The database file is not a supported single-file engine."""


class DatabaseFileError(SqlkbError):
    """The database file exists but could not be read."""


# --- knowledge base ---

class InsufficientExamplesError(SqlkbError):
    """Not enough candidate examples to satisfy a selection request."""


# --- retriever ---

class ProviderError(SqlkbError):
    """The embedding provider failed to produce vectors."""


class EmptyKbError(SqlkbError):
    """An index cannot be built over an empty knowledge base."""


class DimensionMismatchError(SqlkbError):
    """Vectors of incompatible dimensionality were combined."""


class ConfigError(SqlkbError):
    """A configuration value or command-line argument is invalid."""


class UnknownEntryError(SqlkbError):
    """A labeled relevant entry id is not present in the index."""


# --- llm client ---

class LlmError(SqlkbError):
    """A completion call failed."""


class MockMissError(SqlkbError):
    """The mock backend has no canned completion for this prompt.

    Not an LlmError: a replay fixture that lacks a prompt is a fault of the
    fixture, not a failed generation, so it ends the command.
    """


class ContextOverflowError(LlmError):
    """The prompt exceeds the configured context limit."""


class ReplayDriftError(SqlkbError):
    """A replay fixture record's hash does not match its stored prompt."""


# --- pipeline ---

class BudgetError(SqlkbError):
    """A prompt cannot fit the character budget even after trimming."""


class EmptySqlError(SqlkbError):
    """Post-processing an LLM completion yielded no SQL text."""


# --- evaluation ---

class EmptySetError(SqlkbError):
    """A metric was requested over an empty collection."""


class NonPositiveTimeError(SqlkbError):
    """A matched query has a non-positive execution time."""


class AlignmentError(SqlkbError):
    """Pipeline outputs do not align with the evaluation records."""


class LineageError(SqlkbError):
    """Artifacts built under different run configurations were mixed."""
