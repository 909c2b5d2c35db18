#!/usr/bin/env python3
"""Strict stdio policy for the campaign-wire workload.

Usage: policy_stub.py DELAY_MS

It checks every message the runner sends. A reset must be exactly
``{"type": "reset"}`` and gets no reply. An observe message must have
exactly the fields type, instruction, raster_base64 and step; its raster
must decode to 64 x 64 bytes; and its step must count 0, 1, 2... from the
last reset. Any violation is answered with a reply the runner rejects, so
it shows up as an errored trial.

The policy never closes the gripper, so it cannot succeed at put_on. It
sleeps DELAY_MS before each reply in place of model inference; a fixed
delay keeps the wire workload's timing steady.
"""

import base64
import binascii
import json
import sys
import time

OBSERVE_FIELDS = {"type", "instruction", "raster_base64", "step"}
RASTER_BYTES = 64 * 64
BROKEN = b'{"type":"error"}\n'
ACT = b'{"type":"act","delta_position":[0.01,-0.005,0.0],"gripper":"HOLD"}\n'


def observe_ok(msg, expected_step):
    if set(msg) != OBSERVE_FIELDS or msg["type"] != "observe":
        return False
    if not isinstance(msg["instruction"], str) or not msg["instruction"]:
        return False
    if type(msg["step"]) is not int or msg["step"] != expected_step:
        return False
    try:
        raster = base64.b64decode(msg["raster_base64"], validate=True)
    except (binascii.Error, TypeError, ValueError):
        return False
    return len(raster) == RASTER_BYTES


def main():
    delay_s = float(sys.argv[1]) / 1000.0
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    expected_step = None
    for line in stdin:
        try:
            msg = json.loads(line)
        except ValueError:
            msg = None
        if isinstance(msg, dict) and msg.get("type") == "reset":
            expected_step = 0 if msg == {"type": "reset"} else None
            continue
        time.sleep(delay_s)
        if expected_step is not None and isinstance(msg, dict) and observe_ok(
            msg, expected_step
        ):
            expected_step += 1
            stdout.write(ACT)
        else:
            expected_step = None
            stdout.write(BROKEN)
        stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
