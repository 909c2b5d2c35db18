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
import itertools
import json
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from benchtop import runner
from benchtop.campaign import load_manifest
from benchtop.catalog import load_default_catalog
from benchtop.cli import main
from benchtop.errors import PolicyProtocolError
from benchtop.runner import _ObserveEncoder, parse_policy_endpoint, run_campaign
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


def test_each_episode_numbers_its_observes_from_zero(tmp_path, monkeypatch):
    """Two episodes on one client, a failed one that makes the runner start a
    new client, and one more on it: each counts 0, 1, 2... from its reset."""
    record = tmp_path / "observe.ndjson"
    command = shlex.join(
        [sys.executable, str(HERE / "stub_policies.py"), "record", str(record)]
    )
    manifest = load_manifest(MANIFEST)
    manifest = replace(manifest, trials=manifest.trials[:4])
    decoded = itertools.count()
    original = runner._decode_act

    def decode(line):
        if next(decoded) == 22:  # the third reply of the third episode
            raise PolicyProtocolError("dropped")
        return original(line)

    monkeypatch.setattr(runner, "_decode_act", decode)
    results = run_campaign(
        manifest, load_default_catalog(),
        parse_policy_endpoint(f"subprocess:{command}"), max_steps=10,
    )
    assert [r.error for r in results] == [
        None, None, "PolicyProtocolError: dropped", None
    ]
    streams: list[list[int]] = []
    for line in record.read_text(encoding="utf-8").splitlines():
        message = json.loads(line)
        if message["type"] == "reset":
            streams.append([])
        else:
            streams[-1].append(message["step"])
    assert streams == [list(range(n)) for n in (10, 10, 3, 10)]


def reference(obs: Observation, step: int) -> str:
    raster = obs.raster
    payload = {
        "type": "observe",
        "instruction": obs.instruction,
        "raster_base64": base64.b64encode(
            raster if raster is not None else b""
        ).decode("ascii"),
        "step": step,
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
    obs = Observation(instruction, None, raster)
    encoder = _ObserveEncoder()
    for step in range(200):
        assert encoder.encode(obs) == reference(obs, step)
    encoder.reset()
    assert encoder.encode(obs) == reference(obs, 0)


def test_encoder_notices_a_new_raster_or_instruction():
    first = bytes(64 * 64)
    second = bytearray(first)
    second[3 * 64 + 5] = 200
    second = bytes(second)
    sequence = [
        Observation("pick up the cup", None, first),
        Observation("pick up the cup", None, first),
        Observation("pick up the cup", None, second),
        Observation("lift the cup", None, second),
        Observation("lift the cup", None, None),
        Observation("lift the cup", None, first),
    ]
    encoder = _ObserveEncoder()
    assert [encoder.encode(obs) for obs in sequence] == [
        reference(obs, step) for step, obs in enumerate(sequence)
    ]
