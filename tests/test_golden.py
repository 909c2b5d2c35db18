"""Byte-for-byte regression against artifacts committed under tests/golden.

The files were produced by the CLI before the artifact codec was rewritten,
and the random_target and instruction_brittle results before trials began to
share episodes; plan, run and report must keep reproducing them exactly.
"""

from pathlib import Path

from benchtop.cli import main

GOLDEN = Path(__file__).parent / "golden"

PLAN = [
    "plan", "--task", "put_on", "--n", "4", "--k", "3", "--camera-mutation",
    "--source", "unseen", "--object-count-range", "1", "2",
]


def _same_bytes(produced: Path, name: str) -> None:
    assert produced.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_plan_run_report_reproduce_golden_files(tmp_path):
    manifest = tmp_path / "manifest.json"
    assert main(PLAN + ["--out", str(manifest)]) == 0
    _same_bytes(manifest, "put_on.manifest.json")

    both = tmp_path / "both.results.jsonl"
    for policy in ("oracle", "random", "random_target", "instruction_brittle"):
        results = tmp_path / f"{policy}.results.jsonl"
        argv = ["run", "--manifest", str(manifest), "--policy", f"builtin:{policy}"]
        assert main(argv + ["--out", str(results)]) == 0
        _same_bytes(results, f"put_on.{policy}.results.jsonl")
        if policy in ("oracle", "random"):  # the policies the reports cover
            with both.open("ab") as fh:
                fh.write(results.read_bytes())

    for fmt, suffix in (("csv", "csv"), ("markdown", "md")):
        report = tmp_path / f"report.{suffix}"
        argv = ["report", "--results", str(both), "--group-by", "instruction_kind"]
        assert main(argv + ["--format", fmt, "--out", str(report)]) == 0
        _same_bytes(report, f"put_on.report.{suffix}")
