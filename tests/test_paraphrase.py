import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import ScriptedChatProvider

from benchtop.campaign import INSTRUCTION_TEMPLATES
from benchtop.catalog import load_default_catalog, tokenize
from benchtop.errors import NoJsonFound, UsageError
from benchtop.jsonio import dumps, loads, quantize
from benchtop.paraphrase import (
    EMBED_DIM,
    PARAPHRASE_TEMPLATES,
    InstructionSet,
    baseline_embed,
    builtin_paraphrases,
    cosine_similarity,
    fill_slots,
    fnv1a_64,
    generate_paraphrases,
    keeps_slots,
    parse_paraphrase_reply,
    validate_candidates,
)
from benchtop.sim import Task

# published reference digests for FNV-1a (64-bit)
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


def _fnv_oracle(data: bytes) -> int:
    h = 14695981039346656037
    for b in data:
        h = (h ^ b) * 1099511628211 % (2**64)
    return h


def test_fnv_published_vectors():
    for data, digest in FNV_VECTORS.items():
        assert fnv1a_64(data) == digest


@given(st.binary(max_size=64))
def test_fnv_matches_oracle(data):
    assert fnv1a_64(data) == _fnv_oracle(data)


def test_embedding_is_a_token_histogram():
    vec = baseline_embed("pick up the red mug the")
    assert sum(vec.values()) == 6 and len(vec) == 5
    assert all(0 <= b < EMBED_DIM for b in vec)
    assert vec[fnv1a_64(b"the") % EMBED_DIM] == 2
    # same bag of tokens embeds identically regardless of order
    assert baseline_embed("the mug red the up pick") == vec
    # tokens that share a bin add up in it
    assert baseline_embed("ba qx bc qz") == Counter(
        {fnv1a_64(b"ba") % EMBED_DIM: 2, fnv1a_64(b"bc") % EMBED_DIM: 2}
    )


def test_blank_text_cannot_embed():
    with pytest.raises(ValueError):
        baseline_embed("   !!! ")


def test_cosine_self_similarity_is_one():
    vec = baseline_embed("move the sponge near the plate")
    assert cosine_similarity(vec, vec) == pytest.approx(1.0, abs=1e-9)


def _count_cosine(a: str, b: str) -> float:
    """Cosine over plain integer token counts, divided as the module divides."""
    def counts(text):
        return Counter(fnv1a_64(t.encode("utf-8")) % EMBED_DIM for t in tokenize(text))

    ca, cb = counts(a), counts(b)
    dot = sum(n * cb[k] for k, n in ca.items())
    na = math.sqrt(sum(n * n for n in ca.values()))
    nb = math.sqrt(sum(n * n for n in cb.values()))
    return dot / (na * nb)


def _catalog_instructions():
    names = [m.display_name for m in load_default_catalog().models]
    for a, b in zip(names, names[1:] + names[:1]):
        for template in INSTRUCTION_TEMPLATES.values():
            yield template.format(a=a, b=b)


def test_similarities_equal_an_integer_count_reference_exactly():
    k = len(PARAPHRASE_TEMPLATES)
    checked = 0
    for original in _catalog_instructions():
        result = validate_candidates(original, builtin_paraphrases(original, k), k)
        assert len(result.candidates) == k
        for cand in result.candidates:
            exact = _count_cosine(original, cand.text)
            embedded = (baseline_embed(original), baseline_embed(cand.text))
            assert cosine_similarity(*embedded) == exact
            assert cand.similarity == quantize(exact)
            checked += 1
    assert checked == len(load_default_catalog().models) * len(INSTRUCTION_TEMPLATES) * k


# few tokens, so draws repeat them; "ba"/"qx" and "bc"/"qz" share a bin
_SMALL_ALPHABET = ("a", "b", "c", "ba", "qx", "bc", "qz")
_token_lists = st.lists(st.sampled_from(_SMALL_ALPHABET), min_size=1, max_size=12)


@settings(max_examples=300)
@given(_token_lists, _token_lists, st.randoms(use_true_random=False))
def test_similarities_of_repeated_tokens_are_exact_and_symmetric(xs, ys, rng):
    a, b = " ".join(xs), " ".join(ys)
    ea, eb = baseline_embed(a), baseline_embed(b)
    assert cosine_similarity(ea, eb) == _count_cosine(a, b)
    assert cosine_similarity(ea, eb) == cosine_similarity(eb, ea)
    shuffled = list(xs)
    rng.shuffle(shuffled)
    # a permuted copy scores exactly as the original against itself; that is
    # 1.0 once quantized, and within a few ulps of it before (sqrt(2) ** 2 > 2)
    same = cosine_similarity(ea, baseline_embed(" ".join(shuffled)))
    assert same == cosine_similarity(ea, ea) == _count_cosine(a, a)
    assert quantize(same) == 1.0
    assert same == pytest.approx(1.0, rel=1e-15)


# ---- candidate validation -------------------------------------------------


def test_template_paraphrases_pass_validation():
    original = "pick up the apple"
    candidates = builtin_paraphrases(original, 5)
    assert len(candidates) == 5
    result = validate_candidates(original, candidates, 5, threshold=0.8)
    assert all(c.valid for c in result.candidates)
    assert result.valid_texts == tuple(candidates)


def test_templates_are_distinct():
    assert len(set(PARAPHRASE_TEMPLATES)) == len(PARAPHRASE_TEMPLATES)
    rendered = builtin_paraphrases("put the cup on the plate", len(PARAPHRASE_TEMPLATES))
    assert len(set(rendered)) == len(rendered)


def test_dedup_is_case_and_whitespace_insensitive():
    original = "pick up the apple"
    candidates = [
        "please pick up the apple",
        "Please  pick up   the apple",
        "PICK UP THE APPLE",
        "pick up the apple now",
    ]
    result = validate_candidates(original, candidates, 10)
    texts = [c.text for c in result.candidates]
    assert texts == ["please pick up the apple", "pick up the apple now"]


def test_truncates_to_k():
    original = "pick up the apple"
    candidates = builtin_paraphrases(original, 8)
    result = validate_candidates(original, candidates, 3)
    assert len(result.candidates) == 3
    assert result.k_requested == 3


def test_k_zero_is_allowed():
    result = validate_candidates("x y", ["please x y"], 0)
    assert result.candidates == ()


def test_threshold_domain():
    with pytest.raises(UsageError):
        validate_candidates("a b", [], 1, threshold=0.0)
    with pytest.raises(UsageError):
        validate_candidates("a b", [], 1, threshold=1.5)
    validate_candidates("a b", [], 1, threshold=1.0)


def test_dissimilar_candidate_marked_invalid():
    result = validate_candidates(
        "pick up the apple", ["weather is lovely today"], 1, threshold=0.8
    )
    assert len(result.candidates) == 1
    assert not result.candidates[0].valid


def test_similarity_survives_round_trip_exactly():
    """Stored flags must re-derive bit-for-bit from stored similarities."""
    original = "put the sponge inside the basket"
    candidates = builtin_paraphrases(original, 6) + ["unrelated chatter entirely"]
    result = validate_candidates(original, candidates, 7, threshold=0.85)
    back = loads(InstructionSet, dumps(result))
    assert back == result
    for cand in back.candidates:
        sim = quantize(
            cosine_similarity(
                baseline_embed(back.original), baseline_embed(cand.text)
            )
        )
        assert sim == cand.similarity
        assert cand.valid == (sim >= back.threshold)


@settings(max_examples=50)
@given(st.text(alphabet="abcdef ", min_size=1, max_size=30))
def test_any_tokenizable_original_is_self_valid(text):
    if not any(ch.isalnum() for ch in text):
        return
    result = validate_candidates(text, ["please " + text], 1, threshold=0.5)
    assert len(result.candidates) == 1


# ---- provider-backed generation ------------------------------------------


def test_parse_reply_extracts_first_string_array():
    reply = 'Sure! Here you go:\n["grab the can", "lift the can"] hope it helps'
    assert parse_paraphrase_reply(reply) == ["grab the can", "lift the can"]


def test_parse_reply_skips_non_string_arrays():
    reply = "[1, 2] then [\"real one\"]"
    assert parse_paraphrase_reply(reply) == ["real one"]


def test_parse_reply_without_array_raises():
    with pytest.raises(NoJsonFound):
        parse_paraphrase_reply("no lists here")


def test_generate_paraphrases_dedups_and_retries():
    provider = ScriptedChatProvider(
        replies=[
            '["grab the apple", "grab the apple", "pick up the apple"]',
            '["lift the apple"]',
        ]
    )
    out = generate_paraphrases("pick up the apple", 2, provider)
    assert out == ["grab the apple", "lift the apple"]
    assert len(provider.calls) == 2


def test_generate_paraphrases_gives_up_after_three_rounds():
    provider = ScriptedChatProvider(replies=["nope", "still nope", "nothing"])
    out = generate_paraphrases("pick up the apple", 2, provider)
    assert out == []
    assert len(provider.calls) == 3


def test_generate_paraphrases_k_zero():
    provider = ScriptedChatProvider(replies=[])
    assert generate_paraphrases("pick up the apple", 0, provider) == []
    assert provider.calls == []


PUT_ON = INSTRUCTION_TEMPLATES[Task.PUT_ON]  # "put the {a} on the {b}"
PICK_UP = INSTRUCTION_TEMPLATES[Task.PICK_UP]  # "pick up the {a}"


@pytest.mark.parametrize(
    "template, slot_form",
    [
        ("now {a}", "{a}"),
        ("now put the {a} on the {b}", PUT_ON),
        ("kindly put the {a} on the {b}", PUT_ON),
        ("put the {a} on the {b} carefully", PUT_ON),
        ("place the {a} onto the {b}", PUT_ON),
        ("grab the {a}", PICK_UP),
    ],
    ids=["now_slot", "now", "kindly", "carefully", "onto", "grab"],
)
def test_a_rewrite_that_keeps_the_slots_is_kept(template, slot_form):
    assert keeps_slots(template, slot_form)


@pytest.mark.parametrize(
    "template, slot_form",
    [
        ("put the {a} on it", PUT_ON),
        ("put the {a} on the {b} beside the {a}", PUT_ON),
        ("put the {b} on the {a}", PUT_ON),
        ("put the {a} on the {b} {a.__class__}", PUT_ON),
        ("put the {a} on the {b} }", PUT_ON),
        ("put the {a} on the {b}", PICK_UP),
        ("do not put the {a} on the {b}", PUT_ON),
        ("don't put the {a} on the {b}", PUT_ON),
        ("never pick up the {a}", PICK_UP),
        ("put the {a} on no {b}", PUT_ON),
        ("put the {a} on the {b} without care", PUT_ON),
    ],
    ids=["dropped_slot", "repeated_slot", "swapped_slots", "attribute_brace",
         "stray_brace", "slot_the_task_lacks", "not", "dont", "never", "no",
         "without"],
)
def test_a_rewrite_that_breaks_a_slot_rule_is_dropped(template, slot_form):
    assert not keeps_slots(template, slot_form)


def test_a_negation_the_slot_form_holds_is_not_added():
    assert keeps_slots("never let the {a} fall", "do not let the {a} fall, never")


def test_fill_slots_never_searches_a_name_it_put_in():
    assert fill_slots(PUT_ON, "apple", "bowl") == "put the apple on the bowl"
    assert fill_slots(PICK_UP, "apple") == "pick up the apple"
    assert fill_slots(PUT_ON, "{b}", "{a}") == "put the {b} on the {a}"


@pytest.mark.parametrize("task", list(Task), ids=lambda task: task.value)
@pytest.mark.parametrize("a, b", [("apple", "bowl"), ("x{a}y", "{b}"), ("{}", "}{")])
def test_a_builtin_template_commutes_with_filling_the_slots(task, a, b):
    # an offline plan fills the templates applied to the slot form, so each
    # text must equal the template applied to the filled basic instruction
    slot_form = INSTRUCTION_TEMPLATES[task]
    b = None if task is Task.PICK_UP else b
    basic = fill_slots(slot_form, a, b)
    for template in PARAPHRASE_TEMPLATES:
        assert fill_slots(template.format(slot_form), a, b) == template.format(basic)


def test_generate_paraphrases_drops_what_keep_rejects_and_asks_again():
    provider = ScriptedChatProvider(
        replies=[
            '["put the {b} on the {a}", "kindly put the {a} on the {b}"]',
            '["now put the {a} on the {b}"]',
        ]
    )
    out = generate_paraphrases(
        PUT_ON, 2, provider, keep=lambda t: keeps_slots(t, PUT_ON)
    )
    assert out == ["kindly put the {a} on the {b}", "now put the {a} on the {b}"]
    assert provider.calls[1].user.startswith("Need 1 more distinct rewrites")
