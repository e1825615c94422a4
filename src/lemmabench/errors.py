"""Exception hierarchy shared across the toolkit."""


class LemmabenchError(Exception):
    """Base class for all toolkit errors."""


class FileFormatError(LemmabenchError):
    """A file violates its format; carries path and 1-based line number
    (None when the fault is the file as a whole)."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        where = self.path if line_no is None else f"{self.path}:{line_no}"
        super().__init__(f"{where}: {message}")


class CorpusFormatError(FileFormatError):
    """A corpus file violates its format."""


class InventoryFormatError(FileFormatError):
    """An induce-stage artifact violates its format or disagrees with its inventory."""


class ModelFormatError(FileFormatError):
    """A baseline model file violates its format."""


class EmptyCorpusError(LemmabenchError):
    """A corpus file contained no sentences."""


class SplitError(LemmabenchError):
    """Requested split sizes are infeasible for the corpus."""


class InapplicableScriptError(LemmabenchError):
    """An edit script's deletion counts exceed the wordform length."""


class MissingLemmaError(LemmabenchError):
    """A token required a gold lemma but has none."""


class PromptError(LemmabenchError):
    """Prompt construction failed (shot mismatch, pool too small, no diagnostics)."""


class TransportError(LemmabenchError):
    """A live LLM request failed; retryable marks rate limits and 5xx."""

    def __init__(self, message, retryable=False):
        self.retryable = retryable
        super().__init__(message)


class CacheMissError(LemmabenchError):
    """Replay-only mode found no cached response for a fingerprint."""


class CacheFormatError(LemmabenchError):
    """A response-cache log is malformed or was written in another format
    (message names the file and byte offset)."""


class ScoringError(LemmabenchError):
    """Prediction set and gold corpus disagree (missing sentences, length mismatch)."""


class ConfigError(LemmabenchError):
    """Experiment configuration is invalid or incomplete."""
