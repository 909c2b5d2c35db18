import json

import pytest

from benchtop.catalog import (
    Catalog,
    ObjectModel,
    Shape,
    Source,
    load_default_catalog,
    parse_catalog,
    tokenize,
)
from benchtop.errors import DuplicateId, EmptyFilteredSet, MalformedCatalog, UsageError


def _model(id="apple", **over):
    base = dict(
        id=id,
        display_name=id.replace("_", " "),
        aliases=(),
        source=Source.SEEN_SET,
        shape=Shape.BOX,
        dimensions_m=(0.05, 0.05, 0.05),
        graspable=True,
        container=False,
        support_surface=False,
    )
    base.update(over)
    return ObjectModel(**base)


def test_population_is_18_plus_65(catalog):
    assert len(catalog) == 83
    assert len(catalog.filtered(Source.SEEN_SET)) == 18
    assert len(catalog.filtered(Source.UNSEEN_SET)) == 65


def test_models_sorted_by_id(catalog):
    ids = [m.id for m in catalog.models]
    assert ids == sorted(ids)


def test_every_display_name_resolves_to_its_model(catalog):
    for model in catalog.models:
        assert catalog.resolve(model.display_name).id == model.id


def test_every_alias_resolves_to_its_model(catalog):
    for model in catalog.models:
        for alias in model.aliases:
            assert catalog.resolve(alias).id == model.id


def test_resolve_is_case_and_space_insensitive(catalog):
    assert catalog.resolve("  Coke   CAN ").id == "coke_can"


def test_resolve_by_token_subset(catalog):
    # "bottle" alone is ambiguous-or-partial; full phrase tokens match
    assert catalog.resolve("plastic bottle").id == "blue_plastic_bottle"


def test_resolve_no_match_returns_none(catalog):
    assert catalog.resolve("flux capacitor") is None


def test_resolve_blank_is_an_error(catalog):
    with pytest.raises(UsageError):
        catalog.resolve("   ")


def test_resolve_tie_breaks_to_smallest_id():
    cat = Catalog(
        models=(
            _model("b_widget", display_name="widget"),
            _model("a_widget", display_name="widget"),
        ),
        version="1",
    )
    assert cat.resolve("widget").id == "a_widget"


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        Catalog(models=(_model("x"), _model("x")), version="1")


def test_nonpositive_dimension_rejected():
    with pytest.raises(MalformedCatalog):
        Catalog(models=(_model(dimensions_m=(0.1, 0.0, 0.1)),), version="1")


def test_parse_catalog_missing_field():
    doc = {"version": "1", "models": [{"id": "a"}]}
    with pytest.raises(MalformedCatalog):
        parse_catalog(json.dumps(doc))


def test_parse_catalog_bad_json():
    with pytest.raises(MalformedCatalog):
        parse_catalog("{nope")


def test_filtered(catalog):
    seen = catalog.filtered(Source.SEEN_SET)
    assert len(seen) == 18
    assert all(m.source is Source.SEEN_SET for m in seen.models)
    assert seen.get("apple") is not None


def test_filtered_empty_pool():
    cat = Catalog(models=(_model(),), version="1")
    with pytest.raises(EmptyFilteredSet):
        cat.filtered(Source.UNSEEN_SET)


def test_tokenize():
    assert tokenize("Blue  plastic-bottle 7Up!") == ("blue", "plastic", "bottle", "7up")


def test_heights_are_plausible(catalog):
    for model in catalog.models:
        assert 0.0 < model.dimensions_m[2] <= 0.3


def test_containers_and_supports_exist_in_both_sets(catalog):
    for source in Source:
        pool = [m for m in catalog.models if m.source is source]
        assert any(m.container for m in pool)
        assert any(m.support_surface for m in pool)
        assert any(m.graspable for m in pool)
