"""Instruction paraphrase generation and embedding-based validation.

Candidates (asked of a chat provider, or taken from the builtin template
list) are filtered by cosine similarity against the original instruction.
The bundled embedder, the only one, is deliberately simple and
dependency-free: a 512-dimension bag-of-words histogram where each token's
bin is its FNV-1a 64-bit hash mod 512. Providers only chat; a learned
sentence encoder would replace ``baseline_embed`` once a model or an
embeddings service is part of the program.

An ``EmbeddingVector`` holds one read-only float64 array, converted once,
and ``cosine_similarity`` works on the arrays as they are. For the bundled
embedder this is exact: every component is a small whole-number count, so
the dot product and both squared norms are whole numbers far below 2**53,
which float64 holds exactly whatever the order of summation. The square
roots and the final division are single correctly rounded operations, so
similarities come out bit for bit as a pure-Python count would give them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .catalog import tokenize
from .errors import DimensionMismatch, NoJsonFound, ZeroVector
from .jsonio import first_json, quantize
from .providers import ChatRequest

EMBED_DIM = 512

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

DEFAULT_SIMILARITY_THRESHOLD = 0.80

PARAPHRASE_TEMPLATES: tuple[str, ...] = (
    "please {}",
    "{} please",
    "now {}",
    "{} now",
    "just {}",
    "{} quickly",
    "kindly {}",
    "{} carefully",
    "go {}",
    "{} today",
    "simply {}",
    "{} gently",
)


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """One embedding, kept as a read-only 1-D float64 array.

    ``values`` may be any sequence of numbers; it is copied into the array
    once. Two vectors are equal when their values are.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"an embedding is 1-D, got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    __hash__ = None

    @property
    def dim(self) -> int:
        return len(self.values)


@functools.lru_cache(maxsize=4096)
def _token_bin(token: str) -> int:
    return fnv1a_64(token.encode("utf-8")) % EMBED_DIM


def baseline_embed(text: str) -> EmbeddingVector:
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("cannot embed blank text")
    bins = [_token_bin(tok) for tok in tokens]
    return EmbeddingVector(np.bincount(bins, minlength=EMBED_DIM))


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")
    va, vb = a.values, b.values
    na = math.sqrt(np.dot(va, va))
    nb = math.sqrt(np.dot(vb, vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    return float(np.dot(va, vb) / (na * nb))


def _normalize(text: str) -> str:
    return " ".join(text.split()).lower()


@dataclass(frozen=True)
class Candidate:
    text: str
    similarity: float
    valid: bool


@dataclass(frozen=True)
class InstructionSet:
    original: str
    candidates: tuple[Candidate, ...]
    k_requested: int
    threshold: float

    @property
    def valid_texts(self) -> tuple[str, ...]:
        return tuple(c.text for c in self.candidates if c.valid)


def builtin_paraphrases(original: str, k: int) -> list[str]:
    """Template rewrites that preserve the token bag almost entirely."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return [t.format(original) for t in PARAPHRASE_TEMPLATES[:k]]


def parse_paraphrase_reply(text: str) -> list[str]:
    """Pull the first JSON array of strings out of an LLM reply."""
    return first_json(text, "[", _is_string_array, "array of strings")


def _is_string_array(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def generate_paraphrases(original: str, k: int, provider) -> list[str]:
    """Ask a chat provider for k distinct paraphrases.

    Re-prompts up to 3 times if the reply is unparseable or comes back
    short after dedup; returns what was collected either way.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return []
    seen = {_normalize(original)}
    collected: list[str] = []
    prompt = (
        f"Rewrite the instruction below in {k} different ways. Keep the "
        "meaning identical and mention the same objects. Reply with a JSON "
        "array of strings and nothing else.\n\n"
        f"Instruction: {original}"
    )
    for _ in range(3):
        reply = provider.chat(
            ChatRequest(
                system="You rewrite robot manipulation instructions.",
                few_shot=(),
                user=prompt,
            )
        )
        try:
            items = parse_paraphrase_reply(reply)
        except NoJsonFound:
            continue
        for item in items:
            norm = _normalize(item)
            if not norm or norm in seen:
                continue
            seen.add(norm)
            collected.append(" ".join(item.split()))
            if len(collected) >= k:
                return collected
        if len(collected) >= k:
            break
        prompt = (
            f"Need {k - len(collected)} more distinct rewrites of: {original}\n"
            "Reply with a JSON array of strings only."
        )
    return collected


def check_paraphrase_args(k: int, threshold: float) -> None:
    """Raise ``ValueError`` unless ``k >= 0`` and ``0 < threshold <= 1``."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if k < 0:
        raise ValueError("k must be non-negative")


def validate_candidates(
    original: str,
    candidates: Sequence[str],
    k: int,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> InstructionSet:
    """Score candidates against the original and mark which pass.

    Dedup is case- and whitespace-insensitive and drops echoes of the
    original; at most k survivors are scored. Similarities are quantized
    before the threshold comparison so a round-tripped instruction set
    re-checks to exactly the same flags.
    """
    check_paraphrase_args(k, threshold)
    ref = baseline_embed(original)
    seen = {_normalize(original)}
    scored: list[Candidate] = []
    for cand in candidates:
        if len(scored) >= k:
            break
        cleaned = " ".join(cand.split())
        norm = cleaned.lower()
        if not norm or norm in seen:
            continue
        seen.add(norm)
        try:
            sim = quantize(cosine_similarity(ref, baseline_embed(cleaned)))
        except (ValueError, ZeroVector):
            sim = 0.0
        scored.append(Candidate(text=cleaned, similarity=sim, valid=sim >= threshold))
    return InstructionSet(
        original=original,
        candidates=tuple(scored),
        k_requested=k,
        threshold=quantize(threshold),
    )
