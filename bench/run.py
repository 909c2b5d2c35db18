#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid-oracle --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload drives ``benchtop.cli.main`` in-process, the way a user runs
``benchtop plan``, ``run`` and ``report`` on files, in whole rounds until
``--seconds`` are used up. Then it checks the last round's outputs (see
checks.py) and that every round wrote the same results and reports.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics:

- ``setup_s``: from starting a fresh interpreter until the first command
  can start (import benchtop, load the catalog); the median wall time of
  several starts.
- ``trials_per_cpu_s``: trials completed in a round over the CPU time this
  process spent in the round's plan, run and report commands, failed plans
  included; the median over rounds. CPU time is the program's own work:
  it leaves out the stubs' fixed waits in place of model inference, the
  policy processes, and the wake-ups that a host shared with other jobs
  delays by varying amounts.
- ``peak_rss_mb``: the peak resident memory of this process, which runs
  only this workload; policy processes are not included.

Both timings are scaled to a reference CPU speed by the median of the
probes (speed.py) timed between the starts and between the commands,
because on a host shared with other jobs the speed drifts by tens of
percent within minutes.

With ``--trace 1`` rounds alternate between untraced and traced, and the
last line holds the per-layer metrics (tracing.py), each the median over
the traced rounds, plus the tracing overhead. The spans go to
``bench/out/trace-<workload>-<seed>.jsonl``.

``--workload all`` runs every workload, each in its own process, and
prints their metrics in a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import speed
import tracing
import workloads
from chat_stub import ChatStub

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "import benchtop.cli\n"
    "benchtop.cli.load_default_catalog()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def import_program():
    """Import ``benchtop`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "benchtop", "cli.py")):
        _fail(f"no src/benchtop in {ROOT}; run from the root of a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    import benchtop.cli

    if not os.path.abspath(benchtop.cli.__file__).startswith(src + os.sep):
        _fail(f"benchtop was imported from {benchtop.cli.__file__}, not {src}")
    return benchtop.cli.main


def measure_setup(probes: list) -> float:
    """Median wall time from interpreter start until benchtop is ready.

    A probe is timed before each start and appended to ``probes``.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        probes.append(speed.probe())
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            _fail(f"setup failed: {err.decode(errors='replace')[-500:]}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _round_digest(rnd, with_manifests: bool) -> str:
    paths = [op.output for op in rnd.ops if op.exit_code == 0
             and (op.command != "plan" or with_manifests)]
    return _digest(paths)


def _manifest_stats(rnd) -> tuple[int, int]:
    scenes = size = 0
    for op in rnd.ops:
        if op.command == "plan" and op.exit_code == 0:
            size += os.path.getsize(op.output)
            with open(op.output, encoding="utf-8") as fh:
                scenes += len(json.load(fh)["scenes"])
    return scenes, size


class ChatCounter:
    """Counts ``HttpProvider.chat`` calls, to compare with the stub's count."""

    def __init__(self) -> None:
        self.calls = 0
        self.installed = False

    def install(self):
        from benchtop import providers

        owner = getattr(providers, "HttpProvider", None)
        original = getattr(owner, "chat", None)
        if original is None:
            return
        counter = self

        def chat(*args, **kwargs):
            counter.calls += 1
            return original(*args, **kwargs)

        owner.chat = chat
        self.installed = True


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``name`` for ``seconds`` and return its outcome (see ``main``)."""
    probes = []
    setup_s = None if trace else measure_setup(probes)
    cli_main = import_program()
    workload = workloads.build(name, seed)
    catalog = checks.load_catalog(ROOT)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    tracer = tracing.Tracer() if trace else None
    counter = ChatCounter()
    rounds, per_layer, problems, digests = [], [], [], set()
    with contextlib.ExitStack() as stack:
        stub = None
        if workload.uses_chat_stub:
            stub = stack.enter_context(ChatStub(workloads.CHAT_LATENCY_S))
            counter.install()
        url = stub.url if stub else None
        start = time.perf_counter()
        while True:
            gc.collect()
            calls_before = counter.calls
            if stub is not None:
                stub.reset_counts()
            # the traced run alternates: untraced rounds give its overhead
            if tracer is not None and len(rounds) % 2 == 1:
                tracer.round_id = len(rounds)
                tracer.take()
                with tracer.installed(), tracer.span("round"):
                    rnd = workloads.run_round(
                        cli_main, workload, workdir, url,
                        on_op=lambda op: tracer.span(f"cli.{op.command}"),
                        probe=speed.probe)
                scenes, size = _manifest_stats(rnd)
                per_layer.append(tracing.layer_metrics(
                    tracer.take(), scenes, size,
                    stub.requests if stub else 0, stub.max_in_flight if stub else 0))
            else:
                rnd = workloads.run_round(cli_main, workload, workdir, url,
                                          probe=speed.probe)
            rounds.append(rnd)
            chat_calls = counter.calls - calls_before
            if stub is not None and counter.installed and stub.requests != chat_calls:
                problems.append(f"round {len(rounds) - 1}: the stub answered "
                                f"{stub.requests} requests for {chat_calls} chat calls")
            digests.add(_round_digest(rnd, with_manifests=stub is None))
            elapsed = time.perf_counter() - start
            # stop when the next round would end over half a round late;
            # a traced run needs two rounds of each kind
            if (len(rounds) >= (4 if trace else 1)
                    and elapsed + rnd.seconds / 2 > seconds):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if len(digests) != 1:
        problems.append(f"rounds wrote {len(digests)} different sets of outputs")
    problems += checks.check_round(workload, rounds[-1], catalog, workloads.MAX_STEPS)
    shutil.rmtree(workdir, ignore_errors=True)

    outcome = {
        "correct": not problems,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "problems": problems,
        "rounds": rounds,
        "probe_s": statistics.median(probes + [p for r in rounds for p in r.probes]),
    }
    rates = [r.trials / speed.reference_seconds(r.cpu_s, outcome["probe_s"])
             for r in rounds]
    if tracer is None:
        outcome["metrics"] = {
            "setup_s": {"value": speed.reference_seconds(setup_s, outcome["probe_s"]),
                        "unit": "s"},
            "trials_per_cpu_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return outcome

    values = tracing.median_metrics(per_layer)
    untraced, traced = statistics.median(rates[0::2]), statistics.median(rates[1::2])
    values["trace.trials_per_cpu_s"] = traced
    values["trace.overhead_ratio"] = untraced / traced - 1.0
    units = per_layer_units()
    outcome["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    outcome["absent"] = tracer.absent
    outcome["trace_path"] = os.path.join(OUT, f"trace-{name}-{seed}.jsonl")
    outcome["spans"] = tracer.write_spans(outcome["trace_path"])
    return outcome


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _print_outcome(name: str, outcome: dict) -> None:
    rounds = outcome["rounds"]
    print(f"workload {name}: {len(rounds)} rounds, "
          f"{rounds[-1].trials} trials and {len(rounds[-1].ops)} operations each")
    print(f"  median probe {outcome['probe_s'] * 1000:.3f} ms, "
          f"reference {speed.REFERENCE_S * 1000:.3f} ms")
    for i, rnd in enumerate(rounds):
        print(f"  round {i}: {rnd.seconds:.4f} s wall, {rnd.cpu_s:.4f} s CPU, "
              f"{rnd.trials / rnd.seconds:.4f} trials/s, "
              f"{rnd.trials / rnd.cpu_s:.4f} trials per CPU second")
    for op in rounds[-1].failed:
        print(f"  failed: {op.spec} {op.command}: {op.stderr.strip()}")
    for problem in outcome["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if "trace_path" in outcome:
        print(f"  traced: {outcome['spans']} spans in {outcome['trace_path']}")
        for target in outcome["absent"]:
            print(f"  absent: {target}")
    for key, metric in outcome["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process; one summary line per workload."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            print(f"{name}: exited {proc.returncode}")
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rows.append((name, result))
    print(f"{'workload':<18}{'setup_s (s)':>13}{'trials_per_cpu_s (1/s)':>24}"
          f"{'peak_rss_mb (MB)':>18}{'attempted':>11}{'failed':>8}  correct")
    for name, r in rows:
        m = r["metrics"]
        print(f"{name:<18}{m['setup_s']['value']:>13.4f}"
              f"{m['trials_per_cpu_s']['value']:>24.2f}{m['peak_rss_mb']['value']:>18.1f}"
              f"{r['attempted']:>11}{r['failed']:>8}  {r['correct']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_outcome(args.workload, outcome)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
