#!/usr/bin/env python3
"""Stdio stub policies for wire-protocol tests.

Usage: stub_policies.py {conform|garbage|extra_field|sleep|quit|bad_utf8|nan|
                          split|stream}
       stub_policies.py record PATH

The conform stub is strict in both directions: if an incoming observe
message does not have exactly the documented fields it answers with a
deliberately broken reply, which shows up as a failed trial in the tests.
``bad_utf8`` answers with bytes that are not UTF-8; ``nan`` answers with a
``NaN`` delta, which Python's json module accepts but JSON has not; ``split``
answers like
``conform`` but writes each reply in two flushes with a pause between them.
``stream`` answers each observe by writing 64 KiB chunks with no newline for
3 s. ``record`` answers like ``conform`` and appends every line it receives,
exactly as received, to the file PATH.
"""
import json
import sys
import time

OBSERVE_FIELDS = {"type", "instruction", "raster_base64", "step"}


def main() -> int:
    behavior = sys.argv[1] if len(sys.argv) > 1 else "conform"
    record = None
    if behavior == "record":
        record = open(sys.argv[2], "a", encoding="utf-8", newline="", buffering=1)
    for line in sys.stdin:
        if record is not None:
            record.write(line)
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
        except ValueError:
            print('{"type":"error"}', flush=True)
            continue
        if msg.get("type") == "reset":
            if set(msg.keys()) != {"type"}:
                print('{"type":"error"}', flush=True)
            continue
        if behavior == "quit":
            return 0
        if behavior == "sleep":
            time.sleep(5.0)
        if behavior == "stream":
            end = time.monotonic() + 3.0
            while time.monotonic() < end:
                sys.stdout.write("x" * 65536)
                sys.stdout.flush()
            continue
        if behavior == "garbage":
            print("%%% this is not json", flush=True)
            continue
        if behavior == "bad_utf8":
            sys.stdout.buffer.write(
                b'\xff\xfe{"type":"act","delta_position":[0.0,0.0,0.0],'
                b'"gripper":"HOLD"}\n'
            )
            sys.stdout.buffer.flush()
            continue
        if behavior == "nan":
            print('{"type":"act","delta_position":[NaN,0.0,-0.05],'
                  '"gripper":"HOLD"}', flush=True)
            continue
        if behavior == "extra_field":
            reply = {
                "type": "act",
                "delta_position": [0.0, 0.0, 0.0],
                "gripper": "HOLD",
                "debug": "should not be here",
            }
            print(json.dumps(reply), flush=True)
            continue
        if set(msg.keys()) != OBSERVE_FIELDS:
            print('{"type":"error"}', flush=True)
            continue
        reply = {
            "type": "act",
            "delta_position": [0.01, 0.0, 0.0],
            "gripper": "HOLD",
        }
        text = json.dumps(reply)
        if behavior == "split":
            half = len(text) // 2
            print(text[:half], end="", flush=True)
            time.sleep(0.02)
            text = text[half:]
        print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
