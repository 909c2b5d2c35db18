"""The program runs on the standard library alone, HTTP included."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HTTP_STACK = ("requests", "urllib3", "certifi", "charset_normalizer", "idna")


def _modules_added_by_importing_the_cli() -> set[str]:
    """Top-level names of the modules a fresh ``import benchtop.cli`` adds.

    Only what the import adds counts: a site .pth file may load third-party
    modules before any program code runs.
    """
    code = (
        "import json, sys; before = set(sys.modules); import benchtop.cli; "
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    return set(json.loads(out))


def test_importing_the_cli_loads_no_third_party_http_stack():
    added = _modules_added_by_importing_the_cli()
    assert "benchtop" in added
    assert added.isdisjoint(HTTP_STACK)


def test_no_source_file_imports_an_http_library():
    pattern = re.compile(
        r"^\s*(import|from)\s+(" + "|".join(HTTP_STACK) + r")\b", re.MULTILINE
    )
    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_the_program_has_no_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_importing_the_cli_loads_only_the_standard_library():
    added = _modules_added_by_importing_the_cli()
    assert "benchtop" in added
    assert added - {"benchtop"} <= set(sys.stdlib_module_names)
