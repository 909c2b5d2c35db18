"""Exception hierarchy with stable machine-readable error codes.

Every error the CLI can surface carries a ``code`` string that stays stable
across releases; the CLI serializes it into the single-line JSON it prints on
stderr. ``exit_code`` separates usage/validation failures (2) from runtime
failures (1).
"""

from __future__ import annotations


class BenchtopError(Exception):
    code = "error"
    exit_code = 1

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__name__)


class UsageError(BenchtopError):
    """Invalid arguments or configuration supplied by the caller."""

    code = "usage"
    exit_code = 2


# ---- catalog ---------------------------------------------------------------


class MalformedCatalog(BenchtopError):
    code = "malformed_catalog"


class DuplicateId(BenchtopError):
    code = "duplicate_id"


class EmptyFilteredSet(BenchtopError):
    code = "empty_filtered_set"


# ---- scene -----------------------------------------------------------------


class PlacementExhausted(BenchtopError):
    code = "placement_exhausted"


class SchemaViolation(BenchtopError):
    """A JSON document does not match its schema; ``path`` is a JSON path."""

    code = "schema_violation"

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownModel(BenchtopError):
    code = "unknown_model"


class InvalidConfig(BenchtopError):
    code = "invalid_config"


# ---- generation ------------------------------------------------------------


class NoJsonFound(BenchtopError):
    code = "no_json_found"


class CountMismatch(BenchtopError):
    code = "count_mismatch"


class UnresolvableMention(BenchtopError):
    code = "unresolvable_mention"


class DescriptionParseError(UsageError):
    code = "description_parse_error"


class ValidationFailed(BenchtopError):
    code = "validation_failed"


# ---- provider --------------------------------------------------------------


class ProviderError(BenchtopError):
    code = "provider_error"


class HttpStatusError(ProviderError):
    code = "http_status"

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"HTTP status {status}")
        self.status = status


class MissingFixture(ProviderError):
    code = "missing_fixture"


class RetriesExhausted(ProviderError):
    code = "retries_exhausted"


class MalformedResponse(ProviderError):
    code = "malformed_response"


# ---- batch -----------------------------------------------------------------


class PartialPlanFailure(BenchtopError):
    code = "partial_plan_failure"


# ---- sim / runner ----------------------------------------------------------


class PolicyTimeout(BenchtopError):
    code = "policy_timeout"


class PolicyProtocolError(BenchtopError):
    code = "policy_protocol_error"


# ---- report ----------------------------------------------------------------


class EmptyResults(BenchtopError):
    code = "empty_results"
