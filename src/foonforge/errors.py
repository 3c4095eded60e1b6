"""Exception types shared across the toolkit."""

from __future__ import annotations


class FoonForgeError(Exception):
    """Base class for every error raised by this package."""


class InvalidNodeError(FoonForgeError):
    """A node or unit was constructed from malformed values.

    ``pointer`` names the refused field, relative to the value being
    built, where the constructor knows it, as :class:`DishSpec` does.
    """

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(message)


class FoonSyntaxError(FoonForgeError):
    """The FOON text format could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class TaskTreeError(FoonForgeError):
    """Base class for task-tree JSON parsing failures.

    The three subclasses are deliberately distinct because downstream
    fallback handling records which category of failure occurred.
    """


class TaskTreeJsonError(TaskTreeError):
    """The source text is not valid JSON at all."""


class TaskTreeSchemaError(TaskTreeError):
    """The JSON is well formed but does not have the task-tree shape."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


class TaskTreeStructureError(TaskTreeError):
    """The tree parsed but violates graph-level invariants."""

    def __init__(self, message: str, violations=()):
        self.violations = tuple(violations)
        super().__init__(message)


class RetrievalError(FoonForgeError):
    """The requested goal object is not a node of the graph."""


class PromptError(FoonForgeError):
    """A prompt could not be rendered from the given inputs."""


class ManifestError(FoonForgeError):
    """The input manifest is missing, malformed, or inconsistent."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


class ClientError(FoonForgeError):
    """Base class for text-generation client failures."""


class AuthError(ClientError):
    """No usable API key is configured for the live backend."""


class FixtureMissError(ClientError):
    """A replay lookup found no entry for the prompt hash."""

    def __init__(self, context_hash: str):
        self.context_hash = context_hash
        super().__init__(f"fixture miss: no canned response for hash {context_hash}")


class TransportError(ClientError):
    """An HTTP request to the provider failed."""


class RequestTimeoutError(TransportError):
    """The provider did not answer within ``client.REQUEST_TIMEOUT`` seconds."""


class RateLimitedError(TransportError):
    """Still rate limited after the configured retries."""


class ProviderError(TransportError):
    """The provider returned a non-retryable error status."""

    def __init__(self, status: int, detail: str = ""):
        self.status = status
        super().__init__(f"provider returned HTTP {status}" + (f": {detail}" if detail else ""))


class MalformedResponseError(ClientError):
    """The provider payload could not be interpreted."""
