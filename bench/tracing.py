"""Per-layer timing for the traced run.

The tracer wraps the public functions of each ``benchtop`` layer from
outside, at the name the caller looks up (``benchtop.runner.step`` is the
``step`` that ``run_builtin_episode`` calls). Every wrapped call adds to its
layer's call count and busy time: the wall time spent inside the call,
summed over threads. Calls made once per command or per scene are also kept
as spans (name, start, end, parent span, round) in memory and written out
when the run ends. Calls made once per simulator step are only counted,
since a run makes millions of them.

A function that a later change removes is reported as absent; its counts
stay 0.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time

# (layer metric prefix, module, attribute, keep spans, keep durations)
TARGETS = (
    ("catalog.load", "benchtop.cli", "load_default_catalog", True, False),
    ("scene.sample_pose", "benchtop.generation", "sample_pose", True, False),
    ("scene.validate_config", "benchtop.generation", "validate_config", True, False),
    ("scene.validate_config", "benchtop.campaign", "validate_config", True, False),
    ("scene.validate_config", "benchtop.sim", "validate_config", True, False),
    ("generation.fallback_generate", "benchtop.campaign", "fallback_generate", True, False),
    ("generation.generate_scene", "benchtop.campaign", "generate_scene", True, False),
    ("paraphrase.validate_candidates", "benchtop.campaign", "validate_candidates", True, False),
    ("paraphrase.generate_paraphrases", "benchtop.campaign", "generate_paraphrases", True, False),
    ("providers.chat", "benchtop.providers", "HttpProvider.chat", True, True),
    ("campaign.plan", "benchtop.cli", "plan_campaign", True, False),
    ("sim.init_world", "benchtop.runner", "init_world", True, False),
    ("sim.step", "benchtop.runner", "step", False, False),
    ("sim.observe", "benchtop.runner", "observe", False, False),
    ("sim.check_success", "benchtop.runner", "check_success", False, False),
    ("sim.render_raster", "benchtop.sim", "render_raster", False, False),
    ("runner.run", "benchtop.cli", "run_campaign", True, False),
    ("runner.policy_act", "benchtop.runner", "OraclePolicy.act", False, False),
    ("runner.policy_act", "benchtop.runner", "RandomPolicy.act", False, False),
    ("runner.policy_act", "benchtop.runner", "RandomTargetPolicy.act", False, False),
    ("runner.policy_act", "benchtop.runner", "InstructionBrittlePolicy.act", False, False),
    ("runner.wire_act", "benchtop.runner", "SubprocessPolicyClient.act", False, True),
    ("runner.wire_clients", "benchtop.runner", "SubprocessPolicyClient.__init__", True, False),
    ("report.load_results", "benchtop.cli", "load_results", True, False),
    ("report.aggregate", "benchtop.cli", "aggregate", True, False),
    ("report.emit", "benchtop.cli", "emit", True, False),
    ("jsonio.canonical_dumps", "benchtop.cli", "canonical_dumps", False, False),
    ("jsonio.canonical_dumps", "benchtop.campaign", "canonical_dumps", False, False),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


class _Thread:
    """One thread's counters, spans and open-span stack."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.durations = {name: [] for name in LAYERS}
        self.spans = []
        self.stack = []


class Tracer:
    def __init__(self) -> None:
        self.absent = []
        self.round_id = 0
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._originals = []
        self._kept_spans = []

    def _state(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, keep_span, keep_durations):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if keep_span:
                span_id = next(tracer._ids)
                parent = st.stack[-1] if st.stack else 0
                st.stack.append(span_id)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors[name] += 1
                raise
            finally:
                t1 = perf()
                st.calls[name] += 1
                st.busy[name] += t1 - t0
                if keep_durations:
                    st.durations[name].append(t1 - t0)
                if keep_span:
                    st.stack.pop()
                    st.spans.append((span_id, parent, name, t0, t1, tracer.round_id))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        self.absent = []
        for name, module_name, attr, keep_span, keep_durations in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, keep_span, keep_durations))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a round or a command)."""
        st = self._state()
        span_id = next(self._ids)
        parent = st.stack[-1] if st.stack else 0
        st.stack.append(span_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.spans.append((span_id, parent, name, t0, t1, self.round_id))

    # -- per-round snapshots ------------------------------------------------

    def take(self) -> dict:
        """Totals since the last call, summed over threads; resets them."""
        with self._lock:
            threads = list(self._threads)
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        durations = {name: [] for name in LAYERS}
        for st in threads:
            for name in LAYERS:
                calls[name] += st.calls[name]
                busy[name] += st.busy[name]
                errors[name] += st.errors[name]
                durations[name].extend(st.durations[name])
                st.calls[name] = 0
                st.busy[name] = 0.0
                st.errors[name] = 0
                st.durations[name] = []
            self._kept_spans.extend(st.spans)
            st.spans = []
        return {"calls": calls, "busy": busy, "errors": errors, "durations": durations}

    def write_spans(self, path: str) -> int:
        self.take()
        spans = sorted(self._kept_spans, key=lambda s: s[3])
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1, round_id in spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": t0, "end": t1, "round": round_id,
                }) + "\n")
        return len(spans)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def layer_metrics(snap: dict, scenes_planned: int, manifest_bytes: int,
                  stub_requests: int, stub_max_in_flight: int) -> dict:
    """The per-layer metrics of one traced round."""
    calls, busy, errors, durations = (
        snap["calls"], snap["busy"], snap["errors"], snap["durations"])
    steps = calls["sim.step"]
    chat = durations["providers.chat"]
    wire = durations["runner.wire_act"]
    planned_busy = busy["campaign.plan"]
    return {
        "catalog.load.busy_s": busy["catalog.load"],
        "scene.sample_pose.calls": calls["scene.sample_pose"],
        "scene.sample_pose.busy_s": busy["scene.sample_pose"],
        "scene.validate_config.calls": calls["scene.validate_config"],
        "scene.validate_config.busy_s": busy["scene.validate_config"],
        "generation.fallback_generate.calls": calls["generation.fallback_generate"],
        "generation.fallback_generate.busy_s": busy["generation.fallback_generate"],
        "generation.generate_scene.calls": calls["generation.generate_scene"],
        "generation.generate_scene.busy_s": busy["generation.generate_scene"],
        "paraphrase.validate_candidates.busy_s": busy["paraphrase.validate_candidates"],
        "paraphrase.generate_paraphrases.busy_s": busy["paraphrase.generate_paraphrases"],
        "providers.chat.calls": calls["providers.chat"],
        "providers.chat.busy_s": busy["providers.chat"],
        "providers.chat.p50_ms": 1000.0 * percentile(chat, 50),
        "providers.chat.p90_ms": 1000.0 * percentile(chat, 90),
        "providers.chat.per_scene": (
            calls["providers.chat"] / scenes_planned if scenes_planned else 0.0),
        "providers.stub.requests": stub_requests,
        "providers.stub.max_in_flight": stub_max_in_flight,
        "campaign.plan.busy_s": planned_busy,
        "campaign.plan.scenes_per_s": (
            scenes_planned / planned_busy if planned_busy else 0.0),
        "campaign.plan.failed": errors["campaign.plan"],
        "campaign.manifest.bytes": manifest_bytes,
        "sim.init_world.calls": calls["sim.init_world"],
        "sim.init_world.busy_s": busy["sim.init_world"],
        "sim.step.calls": steps,
        "sim.step.busy_s": busy["sim.step"],
        "sim.observe.busy_s": busy["sim.observe"],
        "sim.check_success.busy_s": busy["sim.check_success"],
        "sim.render_raster.calls": calls["sim.render_raster"],
        "sim.render_raster.busy_s": busy["sim.render_raster"],
        "runner.run.busy_s": busy["runner.run"],
        "runner.run.steps_per_s": (
            steps / busy["runner.run"] if busy["runner.run"] else 0.0),
        "runner.policy_act.calls": calls["runner.policy_act"],
        "runner.policy_act.busy_s": busy["runner.policy_act"],
        "runner.wire_act.calls": calls["runner.wire_act"],
        "runner.wire_act.p50_us": 1e6 * percentile(wire, 50),
        "runner.wire_act.p99_us": 1e6 * percentile(wire, 99),
        "runner.wire_act.per_step": calls["runner.wire_act"] / steps if steps else 0.0,
        "runner.wire_clients.started": calls["runner.wire_clients"],
        "report.load_results.busy_s": busy["report.load_results"],
        "report.aggregate.busy_s": busy["report.aggregate"],
        "report.emit.busy_s": busy["report.emit"],
        "jsonio.canonical_dumps.calls": calls["jsonio.canonical_dumps"],
        "jsonio.canonical_dumps.busy_s": busy["jsonio.canonical_dumps"],
    }


def median_metrics(per_round: list) -> dict:
    """Each metric's median over the traced rounds (the lower middle value)."""
    return {key: statistics.median_low(r[key] for r in per_round)
            for key in per_round[0]}
