"""Object model catalog: load, mention resolution, source filtering.

A catalog is immutable after load. Mention resolution is a pure function and
runs in three stages: exact display-name match, exact alias match, then
token-subset match (every token of the mention appears among the model's
name and alias tokens). Ties at any stage break toward the smallest id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import (
    DuplicateId,
    EmptyFilteredSet,
    MalformedCatalog,
    SchemaViolation,
    UsageError,
)
from .jsonio import loads

_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_CATALOG_RESOURCE = "default_catalog.json"


class Source(str, Enum):
    SEEN_SET = "seen_set"
    UNSEEN_SET = "unseen_set"


class Shape(str, Enum):
    BOX = "box"
    CYLINDER = "cylinder"
    SPHERE = "sphere"


def tokenize(text: str) -> tuple[str, ...]:
    return tuple(_TOKEN_RE.findall(text.lower()))


@dataclass(frozen=True)
class ObjectModel:
    id: str
    display_name: str
    aliases: tuple[str, ...]
    source: Source
    shape: Shape
    dimensions_m: tuple[float, float, float]
    graspable: bool
    container: bool
    support_surface: bool

    def token_set(self) -> frozenset[str]:
        toks: set[str] = set(tokenize(self.display_name))
        for alias in self.aliases:
            toks.update(tokenize(alias))
        return frozenset(toks)


@dataclass(frozen=True)
class Catalog:
    models: tuple[ObjectModel, ...]
    version: str = "0"
    _by_id: dict = field(init=False, repr=False, compare=False)
    _tokens: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id: dict[str, ObjectModel] = {}
        for model in self.models:
            if model.id in by_id:
                raise DuplicateId(f"duplicate model id: {model.id!r}")
            if not model.id:
                raise MalformedCatalog("model id must be nonempty")
            if any(d <= 0 for d in model.dimensions_m):
                raise MalformedCatalog(
                    f"model {model.id!r} has non-positive dimensions"
                )
            by_id[model.id] = model
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_tokens", {m.id: m.token_set() for m in self.models}
        )

    def __len__(self) -> int:
        return len(self.models)

    def get(self, model_id: str) -> ObjectModel | None:
        return self._by_id.get(model_id)

    def resolve(self, mention: str) -> ObjectModel | None:
        """Resolve a natural-language mention to a model, or None (no match).

        An empty mention is a caller error, not a failed lookup.
        """
        if not mention or not mention.strip():
            raise UsageError("mention must be a nonempty string")
        low = " ".join(mention.lower().split())

        hits = [m for m in self.models if m.display_name.lower() == low]
        if hits:
            return min(hits, key=lambda m: m.id)

        hits = [
            m
            for m in self.models
            if any(alias.lower() == low for alias in m.aliases)
        ]
        if hits:
            return min(hits, key=lambda m: m.id)

        mention_tokens = set(tokenize(low))
        if not mention_tokens:
            return None
        hits = [
            m for m in self.models if mention_tokens <= self._tokens[m.id]
        ]
        if hits:
            return min(hits, key=lambda m: m.id)
        return None

    def filtered(self, source: Source) -> "Catalog":
        pool = tuple(m for m in self.models if m.source is source)
        if not pool:
            raise EmptyFilteredSet(f"no models with source {source}")
        return Catalog(models=pool, version=self.version)


def parse_catalog(text: str | bytes) -> Catalog:
    """The catalog in a JSON text or its UTF-8 bytes."""
    try:
        return loads(Catalog, text)
    except SchemaViolation as exc:
        raise MalformedCatalog(str(exc)) from exc


def load_catalog(path: str | Path) -> Catalog:
    return parse_catalog(Path(path).read_bytes())


def load_default_catalog() -> Catalog:
    resource = resources.files("benchtop.data").joinpath(DEFAULT_CATALOG_RESOURCE)
    return parse_catalog(resource.read_bytes())
