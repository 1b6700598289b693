"""Outside-in layer trace: wrap the program's public functions, record spans.

Nothing inside ``qmdp`` is edited. :meth:`Tracer.install` replaces public
functions at each module boundary with timing wrappers, patching each name
where its caller looks it up (``cli`` and ``prepare`` import functions into
their own namespaces), and the methods of the two state classes.
:meth:`Tracer.uninstall` puts every original back, so untraced rounds in the
same process run the unmodified program.

A span has a name ``<module>.<what>``, a start, an end, a parent span and an
op id. Self time is a span's duration minus the durations of its children
(calls are sequential, so children never overlap). Counting work that only
the trace needs (live amplitudes through ``nonzero_items()``) runs in
``trace.count`` spans, outside every layer's timed span, and is reported as
part of the tracing overhead, not as any layer's time.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
import weakref
from collections import Counter

MODULES = ("mdp", "layout", "prepare", "sim", "search", "classical", "cli")
_MIXING = ("h", "ry")  # gate kinds that can change the number of live amplitudes

PER_LAYER = {
    # name: unit; every traced run reports each one (0 where the layer is idle)
    "mdp.load_s": "s",
    "prepare.compile_s": "s",
    "prepare.qubits": "count",
    "prepare.gates.h": "count",
    "prepare.gates.x": "count",
    "prepare.gates.ry": "count",
    "prepare.gates.flip": "count",
    "prepare.max_controls": "count",
    "sim.live_amps": "count",
    "sim.apply.calls": "count",
    "sim.sparse.apply_s": "s",
    "sim.sparse.amp_updates": "count",
    "sim.sparse.ns_per_amp_update": "ns",
    "sim.dense.gate_s.h": "s",
    "sim.dense.gate_s.x": "s",
    "sim.dense.gate_s.ry": "s",
    "sim.dense.bytes_computed": "B",
    "sim.dense.GBps": "computed-GB/s",
    "host.copy_GBps": "GB/s",
    "search.rounds": "count",
    "search.round_s": "s",
    "search.p0": "prob",
    "search.sin2_gap": "prob",
    "layout.decode_s": "s",
    "layout.decode.calls": "count",
    "sim.probabilities_s": "s",
    "sim.pattern_items_s": "s",
    "sim.sample_s": "s",
    "classical.enumerate_s": "s",
    "classical.enumerate.calls": "count",
    "classical.enumerate.records": "count",
    "classical.qlearn_s": "s",
    "classical.qlearn.updates_per_s": "1/s",
    "mdp.self_s": "s",
    "layout.self_s": "s",
    "prepare.self_s": "s",
    "sim.self_s": "s",
    "search.self_s": "s",
    "classical.self_s": "s",
    "cli.self_s": "s",
    "trace.count_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, id_, name, start, parent, op):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = None

    def set(self, **attrs) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs or {}}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None
        self._undo: list = []
        self._live = weakref.WeakKeyDictionary()  # sparse state -> live amplitude count

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name, fn, args, kwargs, after=None):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    def count_live(self, state) -> int:
        """Live amplitudes of a state, counted through its public ``nonzero_items()``."""
        span = self.open("trace.count")
        try:
            return len(state.nonzero_items())
        finally:
            self.close(span)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name, wrapper_factory) -> None:
        original = owner.__dict__.get(name)
        current = getattr(owner, name)
        setattr(owner, name, functools.wraps(current)(wrapper_factory(current)))
        self._undo.append((owner, name, original))

    def _function(self, owner, attr, span_name, after=None) -> None:
        tracer = self

        def factory(fn):
            def traced(*args, **kwargs):
                return tracer.call(span_name, fn, args, kwargs, after)
            return traced

        self._patch(owner, attr, factory)

    def install(self, qmdp) -> None:
        """Wrap the public functions at each module boundary of ``qmdp``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        cli, prepare, search, classical, sim = qmdp.cli, qmdp.prepare, qmdp.search, qmdp.classical, qmdp.sim

        self._function(cli, "main", "cli.main")
        self._function(cli, "load", "mdp.load")
        self._function(cli, "bundled_mdp", "mdp.load")
        self._function(prepare, "validated", "mdp.validated")
        self._function(classical, "validated", "mdp.validated")
        self._function(cli, "decode_trajectory", "layout.decode")
        self._function(prepare, "decode_trajectory", "layout.decode")
        self._function(cli, "build_preparation", "prepare.compile", _after_compile)
        self._function(cli, "simulate_distribution", "prepare.simulate_distribution")
        self._function(prepare, "prepare_zero", "sim.prepare_zero")
        self._function(prepare.PreparedModel, "prepare_state", "prepare.prepare_state", self._after_prepare)
        self._function(cli, "grover_search", "search.grover_search", _after_search)
        self._function(search, "oracle_pattern", "search.oracle_pattern")
        self._function(search, "build_diffuser", "search.build_diffuser")
        self._function(search, "iterations_hint", "search.iterations_hint")
        self._function(cli, "enumerate_trajectories", "classical.enumerate",
                       lambda span, a, k, result: span.set(records=len(result)))
        self._function(cli, "q_learning", "classical.qlearn", _after_qlearn)
        self._function(cli, "greedy_policy", "classical.greedy_policy")
        self._function(cli, "greedy_rollouts", "classical.greedy_rollouts")
        for cls in (sim.SparseState, sim.DenseState):
            for method in ("apply_circuit", "probabilities", "pattern_items", "sample"):
                self._function(cls, method, f"sim.{method}")
        self._patch(sim.SparseState, "apply", self._sparse_apply)
        self._patch(sim.DenseState, "apply", self._dense_apply)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo = []
        self._live = weakref.WeakKeyDictionary()

    def _after_prepare(self, span, args, kwargs, state) -> None:
        live = self._live.get(state)
        if live is None:
            live = self.count_live(state)
        span.set(live=live)

    def _sparse_apply(self, fn):
        tracer = self

        def traced(state, gate):
            live = tracer._live.get(state)
            if live is None:
                live = tracer.count_live(state)
            span = tracer.open("sim.sparse.apply")
            try:
                result = fn(state, gate)
            finally:
                tracer.close(span)
            span.set(kind=gate.kind, amps_in=live)
            if gate.kind in _MIXING:
                tracer._live[state] = tracer.count_live(state)
            else:  # X and flip permute or negate entries: the count is unchanged
                tracer._live[state] = live
            return result

        return traced

    def _dense_apply(self, fn):
        tracer = self

        def traced(state, gate):
            span = tracer.open("sim.dense.apply")
            try:
                result = fn(state, gate)
            finally:
                tracer.close(span)
            # read and write of 16-byte amplitudes over the 2^(n - controls) the gate selects
            span.set(kind=gate.kind, bytes=2 * 16 * 2 ** (state.num_qubits - len(gate.controls)))
            return result

        return traced

    # -- output -----------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _after_compile(span, args, kwargs, prepared) -> None:
    gates = prepared.circuit.gates
    kinds = Counter(g.kind for g in gates)
    span.set(qubits=prepared.circuit.num_qubits, max_controls=max((len(g.controls) for g in gates), default=0),
             **{f"gates.{k}": kinds.get(k, 0) for k in ("h", "x", "ry", "flip")})


def _after_search(span, args, kwargs, report) -> None:
    span.set(rounds=report.iterations, p0=report.probability_before, p_after=report.probability_after)


def _after_qlearn(span, args, kwargs, table) -> None:
    config = args[1] if len(args) > 1 else kwargs["config"]
    span.set(updates=config.episodes * config.horizon)


# --- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def net_durations(spans: list[Span]) -> list[float]:
    """Span durations minus the ``trace.count`` spans nested anywhere inside them."""
    net = [s.end - s.start for s in spans]
    for s in spans:
        if s.name == "trace.count":
            cost = s.end - s.start
            parent = s.parent
            while parent is not None:
                net[parent] -= cost
                parent = spans[parent].parent
    return net


def read_spans(path: str) -> tuple[dict, list[Span]]:
    """Load a span file written by :meth:`Tracer.write`."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())["header"]
        for line in handle:
            d = json.loads(line)
            span = Span(d["id"], d["name"], d["start"], d["parent"], d["op"])
            span.end = d["end"]
            span.attrs = d["attrs"]
            spans.append(span)
    return header, spans


def op_accounting(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per op id: the summed self time of the program's layers, and of the trace's own counting."""
    out: dict[int, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(s.op, {"layer_self": 0.0, "trace_count": 0.0})
        entry["trace_count" if s.name.startswith("trace.") else "layer_self"] += self_s
    return out


def check_tree(spans: list[Span]) -> None:
    """Raise ValueError unless every span is closed, nested in its parent, and of one op."""
    for s in spans:
        if s.end is None or s.end < s.start:
            raise ValueError(f"span {s.id} {s.name} is not closed")
        if s.parent is None:
            continue
        if not 0 <= s.parent < s.id:
            raise ValueError(f"span {s.id} {s.name} names missing parent {s.parent}")
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end) or p.op != s.op:
            raise ValueError(f"span {s.id} {s.name} is not inside its parent {p.name}")
    own = self_times(spans)
    worst = min(own, default=0.0)
    if worst < 0.0:
        raise ValueError(f"negative self time {worst}")


def per_layer(spans: list[Span], rounds: int, round_walls: list[float], untraced_walls: list[float],
              copy_gbps: float) -> dict[str, float]:
    """Per-round layer metrics from the spans of ``rounds`` traced rounds."""
    check_tree(spans)
    own = self_times(spans)
    net = net_durations(spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    attrs: Counter = Counter()
    module_self: Counter = Counter()
    compile_attrs: dict = {}
    live = 0
    search_rounds = []
    round_time = 0.0
    for s, self_s, duration in zip(spans, own, net):
        total[s.name] += duration
        calls[s.name] += 1
        module_self[s.name.split(".")[0]] += self_s
        a = s.attrs or {}
        if s.name == "sim.sparse.apply":
            attrs["amp_updates"] += a["amps_in"]
        elif s.name == "sim.dense.apply":
            total[f"dense.{a['kind']}"] += duration
            attrs["dense_bytes"] += a["bytes"]
        elif s.name == "prepare.compile":
            compile_attrs = a
        elif s.name == "prepare.prepare_state":
            live = max(live, a["live"])
        elif s.name == "classical.enumerate":
            attrs["records"] += a["records"]
        elif s.name == "classical.qlearn":
            attrs["updates"] += a["updates"]
        elif s.name == "search.grover_search":
            search_rounds.append(a)
        parent = spans[s.parent] if s.parent is not None else None
        if parent is not None and parent.name == "search.grover_search" and s.name in (
                "sim.apply_circuit", "sim.sparse.apply", "sim.dense.apply"):
            round_time += duration  # oracle flips and diffuser circuits applied by the round loop

    n = rounds
    sparse_s = total["sim.sparse.apply"]
    dense_s = total["sim.dense.apply"]
    grover_rounds = sum(a["rounds"] for a in search_rounds)
    gap = max((abs(a["p_after"] - math.sin((2 * a["rounds"] + 1) * math.asin(math.sqrt(a["p0"]))) ** 2)
               for a in search_rounds), default=0.0)
    layer_self = sum(v for k, v in module_self.items() if k != "trace")
    traced_wall = sum(round_walls)
    out = {
        "mdp.load_s": total["mdp.load"] / n,
        "prepare.compile_s": total["prepare.compile"] / n,
        "prepare.qubits": compile_attrs.get("qubits", 0),
        "prepare.gates.h": compile_attrs.get("gates.h", 0),
        "prepare.gates.x": compile_attrs.get("gates.x", 0),
        "prepare.gates.ry": compile_attrs.get("gates.ry", 0),
        "prepare.gates.flip": compile_attrs.get("gates.flip", 0),
        "prepare.max_controls": compile_attrs.get("max_controls", 0),
        "sim.live_amps": live,
        "sim.apply.calls": calls["sim.apply_circuit"] / n,
        "sim.sparse.apply_s": sparse_s / n,
        "sim.sparse.amp_updates": attrs["amp_updates"] / n,
        "sim.sparse.ns_per_amp_update": 1e9 * sparse_s / attrs["amp_updates"] if attrs["amp_updates"] else 0.0,
        "sim.dense.gate_s.h": total["dense.h"] / n,
        "sim.dense.gate_s.x": total["dense.x"] / n,
        "sim.dense.gate_s.ry": total["dense.ry"] / n,
        "sim.dense.bytes_computed": attrs["dense_bytes"] / n,
        "sim.dense.GBps": attrs["dense_bytes"] / dense_s / 1e9 if dense_s else 0.0,
        "host.copy_GBps": copy_gbps,
        "search.rounds": grover_rounds / n,
        "search.round_s": round_time / grover_rounds if grover_rounds else 0.0,
        "search.p0": statistics.fmean(a["p0"] for a in search_rounds) if search_rounds else 0.0,
        "search.sin2_gap": gap,
        "layout.decode_s": total["layout.decode"] / n,
        "layout.decode.calls": calls["layout.decode"] / n,
        "sim.probabilities_s": total["sim.probabilities"] / n,
        "sim.pattern_items_s": total["sim.pattern_items"] / n,
        "sim.sample_s": total["sim.sample"] / n,
        "classical.enumerate_s": total["classical.enumerate"] / n,
        "classical.enumerate.calls": calls["classical.enumerate"] / n,
        "classical.enumerate.records": attrs["records"] / n,
        "classical.qlearn_s": total["classical.qlearn"] / n,
        "classical.qlearn.updates_per_s": (attrs["updates"] / total["classical.qlearn"]
                                           if total["classical.qlearn"] else 0.0),
        "trace.count_s": module_self["trace"] / n,
        "trace.unaccounted_s": (traced_wall - layer_self) / n,
        "trace.overhead_s": statistics.median(round_walls) - statistics.median(untraced_walls),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = module_self[module] / n
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
