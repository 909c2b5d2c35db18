"""Instruction paraphrase generation and embedding-based validation.

Candidates (asked of a chat provider, or taken from the builtin template
list) are filtered by cosine similarity against the original instruction.
The bundled embedder, the only one, is deliberately simple and
dependency-free: a 512-dimension bag-of-words histogram where each token's
bin is its FNV-1a 64-bit hash mod 512. Providers only chat; a learned
sentence encoder would replace ``baseline_embed`` once a model or an
embeddings service is part of the program.

``baseline_embed`` returns a ``Counter`` from each bin to its token count,
and ``cosine_similarity`` sums integer products over the bins both counters
share. The dot product and both squared norms are therefore exact Python
integers, far below 2**53 so each converts to float64 without loss. The two
square roots, their product and the final division are the only rounded
operations, always in that order, so a similarity depends only on the two
token bags and never on token order or summation order.

A bag of words cannot tell "put the bowl inside the apple" or "do not put
the apple inside the bowl" from the instruction, so a campaign planned
through a provider asks it for slot templates instead of texts: rewrites
of the task's slot form, such as ``put the {a} inside the {b}``.
``keeps_slots`` drops a template unless each slot the form uses appears
exactly once, in the form's order, beside no other brace, and the template
adds no negation token. ``fill_slots`` then puts a scene's object names in
with ``str.replace`` (never ``str.format`` on provider text), and the
filled texts are scored as any candidate is. The templates are asked once
per campaign, so paraphrase j is the same wording in every scene. That
loses per-scene variety, but it gives a cleaner paraphrase factor, and it
keeps record and replay consistent: identical payloads share one fixture
key, so a per-scene ask of the same prompt could not replay as it ran.
One blind spot remains: a changed relation keeps both slots in order, so
"put the apple next to the bowl" still scores 0.825 against "put the
apple inside the bowl" and passes the default threshold.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .catalog import tokenize
from .errors import NoJsonFound, UsageError
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


# tokens as ``tokenize`` splits them: "don't" is "don", "t"
_NEGATION_TOKENS = frozenset({"not", "no", "never", "don", "without"})


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=4096)
def _token_bin(token: str) -> int:
    return fnv1a_64(token.encode("utf-8")) % EMBED_DIM


def baseline_embed(text: str) -> Counter[int]:
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("cannot embed blank text")
    return Counter(_token_bin(tok) for tok in tokens)


def cosine_similarity(a: Counter[int], b: Counter[int]) -> float:
    dot = sum(n * b[k] for k, n in a.items())
    na = math.sqrt(sum(n * n for n in a.values()))
    nb = math.sqrt(sum(n * n for n in b.values()))
    return dot / (na * nb)


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
    return [t.format(original) for t in PARAPHRASE_TEMPLATES[:k]]


def parse_paraphrase_reply(text: str) -> list[str]:
    """Pull the first JSON array of strings out of an LLM reply."""
    return first_json(text, "[", _is_string_array, "array of strings")


def _is_string_array(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def keeps_slots(template: str, slot_form: str) -> bool:
    """Whether ``template`` is a rewrite of ``slot_form`` that keeps its task.

    Each of ``{a}`` and ``{b}`` that the slot form uses appears exactly
    once, ``{a}`` before ``{b}``, with no other brace; and the template
    holds no negation token that the slot form lacks. The order rule also
    drops some true rewrites ("into the {b}, put the {a}"), which costs a
    shortfall, where keeping a swap would cost a false trial.
    """
    slots = [slot for slot in ("{a}", "{b}") if slot in slot_form]
    if any(template.count(slot) != 1 for slot in slots):
        return False
    rest = template
    for slot in slots:
        rest = rest.replace(slot, "")
    if "{" in rest or "}" in rest:
        return False
    positions = [template.index(slot) for slot in slots]
    if positions != sorted(positions):
        return False
    added = set(tokenize(template)) - set(tokenize(slot_form))
    return _NEGATION_TOKENS.isdisjoint(added)


def fill_slots(template: str, a: str, b: str | None = None) -> str:
    """``template`` with ``{a}`` and ``{b}`` replaced by the names ``a`` and
    ``b``; a name put in is never searched for a slot."""
    parts = template.split("{a}")
    if b is not None:
        parts = [part.replace("{b}", b) for part in parts]
    return a.join(parts)


def generate_paraphrases(
    original: str, k: int, provider, keep: Callable[[str], bool] | None = None
) -> list[str]:
    """Ask a chat provider for k distinct paraphrases.

    Re-prompts up to 3 times if the reply is unparseable or comes back
    short after dedup; returns what was collected either way. A rewrite
    that ``keep`` rejects is dropped as a duplicate is.
    """
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
            cleaned = " ".join(item.split())
            if keep is not None and not keep(cleaned):
                continue
            collected.append(cleaned)
            if len(collected) >= k:
                return collected
        prompt = (
            f"Need {k - len(collected)} more distinct rewrites of: {original}\n"
            "Reply with a JSON array of strings only."
        )
    return collected


def check_paraphrase_args(original: str, k: int, threshold: float) -> None:
    """Raise ``UsageError`` unless ``original`` has a word to embed, ``k >= 0``
    and ``0 < threshold <= 1``."""
    if not tokenize(original):
        raise UsageError(f"instruction has no words to embed: {original!r}")
    if not 0.0 < threshold <= 1.0:
        raise UsageError(f"threshold must be in (0, 1], got {threshold}")
    if k < 0:
        raise UsageError("k must be non-negative")


def validate_candidates(
    original: str,
    candidates: Sequence[str],
    k: int,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> InstructionSet:
    """Score candidates against the original and mark which pass.

    Dedup is case- and whitespace-insensitive and drops echoes of the
    original; at most k survivors are scored. Similarities and the
    threshold are quantized before they are compared, so a round-tripped
    instruction set re-checks to exactly the same flags.
    """
    check_paraphrase_args(original, k, threshold)
    threshold = quantize(threshold)
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
        sim = 0.0  # a candidate with no words shares none
        if tokenize(cleaned):
            sim = quantize(cosine_similarity(ref, baseline_embed(cleaned)))
        scored.append(Candidate(text=cleaned, similarity=sim, valid=sim >= threshold))
    return InstructionSet(
        original=original,
        candidates=tuple(scored),
        k_requested=k,
        threshold=threshold,
    )
