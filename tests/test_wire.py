"""The observe messages a wire policy receives, byte for byte.

``golden/put_on.wire.sha256`` holds, for each trial of the golden manifest
in manifest order, the sha256 of the observe lines the ``record`` stub
received in that trial, as ``<sha256>  <trial_seed>``. The file was written
before the episode loop reused observations and the encoder cached its
message prefix, and both must reproduce it. The encoder must also write
exactly what ``json.dumps`` writes for any instruction and raster.
"""

import base64
import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

from benchtop.campaign import load_manifest
from benchtop.cli import main
from benchtop.runner import _ObserveEncoder
from benchtop.sim import Observation

HERE = Path(__file__).parent
MANIFEST = HERE / "golden" / "put_on.manifest.json"
HASHES = HERE / "golden" / "put_on.wire.sha256"


def wire_hashes(workdir: Path) -> str:
    """Run the golden manifest against the ``record`` stub; one line per trial."""
    record = workdir / "observe.ndjson"
    command = shlex.join(
        [sys.executable, str(HERE / "stub_policies.py"), "record", str(record)]
    )
    argv = ["run", "--manifest", str(MANIFEST), "--policy", f"subprocess:{command}"]
    assert main(argv + ["--out", str(workdir / "results.jsonl")]) == 0
    streams: list[list[bytes]] = []
    for line in record.read_bytes().splitlines(keepends=True):
        if line == b'{"type":"reset"}\n':
            streams.append([])
        else:
            streams[-1].append(line)
    seeds = [trial.trial_seed for trial in load_manifest(MANIFEST).trials]
    assert len(streams) == len(seeds)
    return "".join(
        f"{hashlib.sha256(b''.join(lines)).hexdigest()}  {seed}\n"
        for lines, seed in zip(streams, seeds)
    )


def test_observe_lines_reproduce_recorded_hashes(tmp_path):
    assert wire_hashes(tmp_path) == HASHES.read_text(encoding="utf-8")


def reference(obs: Observation) -> str:
    raster = obs.raster
    payload = {
        "type": "observe",
        "instruction": obs.instruction,
        "raster_base64": base64.b64encode(
            raster if raster is not None else b""
        ).decode("ascii"),
        "step": obs.step_count,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


INSTRUCTIONS = [
    "put the cup on the plate",
    'put the "red" cup on the plate',
    "a back\\slash \\n that is not a newline",
    "tab\tnew line\ncarriage\rbell\x07nul\x00del\x7f",
    "stelle die Tasse auf den Teller \u2014 caf\u00e9 \u676f\u5b50 \U0001f37d",
    "",
]


@pytest.mark.parametrize("instruction", INSTRUCTIONS)
@pytest.mark.parametrize("with_raster", [True, False], ids=["raster", "no_raster"])
def test_encoder_writes_what_json_dumps_writes(instruction, with_raster):
    raster = bytes(range(256)) * 16 if with_raster else None
    encoder = _ObserveEncoder()
    for step in (0, 1, 9, 10, 199):
        obs = Observation(instruction, None, raster, step)
        assert encoder.encode(obs) == reference(obs)


def test_encoder_notices_a_new_raster_or_instruction():
    first = bytes(64 * 64)
    second = bytearray(first)
    second[3 * 64 + 5] = 200
    second = bytes(second)
    sequence = [
        Observation("pick up the cup", None, first, 0),
        Observation("pick up the cup", None, first, 1),
        Observation("pick up the cup", None, second, 2),
        Observation("lift the cup", None, second, 3),
        Observation("lift the cup", None, None, 4),
        Observation("lift the cup", None, first, 5),
    ]
    encoder = _ObserveEncoder()
    assert [encoder.encode(obs) for obs in sequence] == [
        reference(obs) for obs in sequence
    ]
