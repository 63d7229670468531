"""Layer probes for the traced run: wrappers around public entry points.

Each :class:`Layer` names a ``src/repro`` module and the functions or
methods that enter it.  :func:`install` replaces every target with a
timing wrapper that records a span (layer, duration, parent layer) on
a :class:`Recorder`; :func:`uninstall` puts the originals back.  A
layer's *self time* is its span time minus the time its child spans
cover, so the self times of all layers plus the root phases' own
remainder add up to the traced wall time.

A function imported by name elsewhere (``from .streams import
make_stream``) is bound in several modules; the wrapper replaces it in
every loaded ``repro`` module that holds the same object, so a call
site cannot dodge its probe.  A target that no longer exists fails the
install, and :func:`dead_probes` names expected layers that recorded
no call, so a refactor that moves a call site breaks the trace instead
of reporting zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marker attribute set on every installed wrapper.
PROBE_MARK = "__perfbench_probe__"

#: Root spans of a traced pass.
SETUP_PHASE = "bench.setup"
BODY_PHASE = "bench.body"


@dataclass(frozen=True)
class Layer:
    """One layer: its name, entry points and optional extra metric.

    ``targets`` are ``"module:function"`` or ``"module:Class.member"``
    strings.  A class member is wrapped on the class and on every
    subclass that overrides it.  ``distinct`` selects how a call's
    argument key is formed for ``distinct_ratio``: ``"args"`` (the
    arguments only), ``"self"`` (the receiving object's identity plus
    the arguments) or ``"name"`` (the receiver's ``name`` attribute
    plus the arguments).
    """

    name: str
    targets: Tuple[str, ...]
    distinct: Optional[str] = None


_STATION = "repro.load.queues:Station."
_BREAKER = "repro.load.breaker:CircuitBreaker."
_PLAN = "repro.faults.spec:FaultPlan."

LAYERS: Tuple[Layer, ...] = (
    Layer("memsim.streams", ("repro.memsim.streams:make_stream",), "args"),
    Layer("memsim.node", tuple(
        f"repro.memsim.node:NodeMemorySystem.{kernel}_result"
        for kernel in (
            "copy", "load_send", "receive_store", "deposit", "fetch_send",
            "load_stream", "store_stream",
        )
    )),
    Layer("machines.measure", ("repro.machines.measure:measure_table",)),
    Layer("caching", (
        "repro.caching:CalibrationCache.lookup",
        "repro.caching:CalibrationCache.store",
    )),
    Layer("sweep", (
        "repro.sweep.runner:run_sweep",
        "repro.sweep.worker:run_cell",
    )),
    Layer("compiler.advisor", ("repro.compiler.advisor:choose_algorithm",)),
    Layer("runtime.collectives", (
        "repro.runtime.collectives:run_collective",
    )),
    Layer("runtime.collective", (
        "repro.runtime.collective:CommunicationStep.run",
    )),
    Layer("runtime.planstep", ("repro.runtime.planstep:PlanStep.run",)),
    Layer(
        "runtime.engine", ("repro.runtime.engine:CommRuntime.transfer",),
        "self",
    ),
    Layer("runtime.stages", ("repro.runtime.stages:StagePipeline.run",)),
    Layer("netsim.schedule", (
        "repro.netsim.schedule:scheduled_congestion",
        "repro.netsim.schedule:schedule_congestion",
    )),
    Layer("machines.base", (
        "repro.machines.base:Machine.topology",
        "repro.machines.base:Machine.network_model",
    ), "name"),
    Layer("load.workload", (
        "repro.load.workload:OpenLoopSpec.arrivals",
        "repro.load.workload:uniform",
    )),
    Layer("load.queues", tuple(_STATION + member for member in (
        "enqueue", "offer", "pop", "pop_live", "depth", "idle", "start",
        "release", "backlog", "summary",
    ))),
    Layer("load.engine", ("repro.load.engine:LoadEngine.run",)),
    Layer("load.report", (
        "repro.load.engine:LoadResult.to_dict",
        "repro.load.report:validate_load_report",
    )),
    Layer("load.overload", (
        "repro.load.overload:AdmissionPolicy.admit",
        "repro.load.overload:AdmissionPolicy.observe",
    )),
    Layer("load.breaker", tuple(_BREAKER + member for member in (
        "allow", "record_success", "record_failure", "summary",
    ))),
    Layer("faults", tuple(_PLAN + member for member in (
        "uniform", "bernoulli", "link_derate", "node_slowdown",
        "route_derate", "deposit_available", "global_link_derate",
        "loss_probability", "corrupt_probability",
    ))),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)

#: Layers each workload must exercise; a traced run in which one of
#: them records no call fails.
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "regen-cold": (
        "memsim.streams", "memsim.node", "machines.measure", "caching",
        "sweep", "machines.base",
    ),
    "collectives": (
        "sweep", "compiler.advisor", "runtime.collectives",
        "runtime.collective", "runtime.engine", "runtime.stages",
        "netsim.schedule", "machines.base",
    ),
    "traffic-open": (
        "caching", "runtime.engine", "load.workload", "load.queues",
        "load.engine", "load.report",
    ),
    "traffic-overload": (
        "caching", "runtime.engine", "load.workload", "load.queues",
        "load.engine", "load.report", "load.overload", "load.breaker",
        "faults",
    ),
}


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    metrics: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        metrics.append((f"{layer.name}.calls", "count", "lower"))
        metrics.append((f"{layer.name}.self_s", "s", "lower"))
        if layer.distinct:
            metrics.append((f"{layer.name}.distinct_ratio", "ratio", "higher"))
        if layer.name == "memsim.node":
            metrics.append(("memsim.node.fallbacks", "count", "lower"))
        if layer.name == "caching":
            metrics.append(("caching.hit_ratio", "ratio", "higher"))
    metrics.extend([
        ("bench.traced_s", "s", "lower"),
        ("bench.unwrapped_s", "s", "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
    ])
    return metrics


# -- recording ------------------------------------------------------------------


class Recorder:
    """In-memory span aggregation for one traced pass.

    The stack holds one ``[layer, child_seconds]`` frame per open span.
    Spans are folded as they close into per-layer calls and self time,
    per-edge (parent layer -> layer) calls and time, and the argument
    keys behind ``distinct_ratio``.
    """

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        self.keys: Dict[str, set] = defaultdict(set)
        self.cache_lookups = 0
        self.cache_hits = 0
        self.nodes: Dict[int, Any] = {}
        self.phase_s: Dict[str, float] = {}

    def close(self, layer: str, frame: List[Any], elapsed: float) -> None:
        parent = self.stack[-1]
        parent[1] += elapsed
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - frame[1]
        edge = self.edges[(parent[0], layer)]
        edge[0] += 1
        edge[1] += elapsed

    def phase(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as a root span; its self time is unwrapped time."""
        frame = [name, 0.0]
        self.stack.append(frame)
        started = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - started
            self.stack.pop()
            self.phase_s[name] = self.phase_s.get(name, 0.0) + elapsed
            self.self_s[name] += elapsed - frame[1]

    def summary(self) -> Dict[str, Any]:
        fallbacks = sum(
            getattr(node, "fastpath_fallbacks", 0)
            for node in self.nodes.values()
        )
        layers = {}
        for layer in LAYERS:
            calls = self.calls.get(layer.name, 0)
            entry: Dict[str, Any] = {
                "calls": calls,
                "self_s": self.self_s.get(layer.name, 0.0),
            }
            if layer.distinct:
                entry["distinct_ratio"] = (
                    len(self.keys[layer.name]) / calls if calls else 0.0
                )
            layers[layer.name] = entry
        layers["memsim.node"]["fallbacks"] = fallbacks
        layers["caching"]["hit_ratio"] = (
            self.cache_hits / self.cache_lookups
            if self.cache_lookups else 0.0
        )
        return {
            "layers": layers,
            "phases": dict(self.phase_s),
            "unwrapped_s": sum(
                self.self_s.get(name, 0.0)
                for name in (SETUP_PHASE, BODY_PHASE)
            ),
            "edges": [
                {"parent": parent, "layer": layer, "calls": calls,
                 "total_s": total}
                for (parent, layer), (calls, total) in sorted(
                    self.edges.items()
                )
            ],
        }


def _call_key(mode: str, args, kwargs) -> Any:
    if mode == "self":
        head, args = (id(args[0]),), args[1:]
    elif mode == "name":
        head, args = (getattr(args[0], "name", None),), args[1:]
    else:
        head = ()
    return head + (repr(args), repr(sorted(kwargs.items())))


def _wrap(fn: Callable, layer: Layer, recorder: Recorder, qualname: str):
    name = layer.name
    distinct = layer.distinct
    close = recorder.close
    stack = recorder.stack
    perf = time.perf_counter
    observe = _observer(qualname, recorder)

    if inspect.isgeneratorfunction(fn):
        # Time each step of the generator, not the consumer between.
        @functools.wraps(fn)
        def probe_gen(*args, **kwargs):
            generator = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                started = perf()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    close(name, frame, perf() - started)
                yield item

        setattr(probe_gen, PROBE_MARK, True)
        return probe_gen

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if distinct is not None:
            recorder.keys[name].add(_call_key(distinct, args, kwargs))
        frame = [name, 0.0]
        stack.append(frame)
        started = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            close(name, frame, perf() - started)
        if observe is not None:
            observe(args, result)
        return result

    setattr(probe, PROBE_MARK, True)
    return probe


def _observer(qualname: str, recorder: Recorder):
    """Counter hooks read where the work happens (cache, memsim node)."""
    if qualname == "CalibrationCache.lookup":
        def on_lookup(args, result):
            recorder.cache_lookups += 1
            if result is not None:
                recorder.cache_hits += 1
        return on_lookup
    if qualname.startswith("NodeMemorySystem."):
        def on_kernel(args, result):
            recorder.nodes.setdefault(id(args[0]), args[0])
        return on_kernel
    return None


# -- installation ---------------------------------------------------------------


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _resolve(target: str) -> Tuple[Any, str, str]:
    """``(owner, attribute, qualname)`` for a target string."""
    module_name, __, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, member = path.split(".", 1)
        owner = getattr(module, class_name, None)
        if owner is None or member not in vars(owner):
            raise LookupError(f"probe target {target!r} does not exist")
        return owner, member, path
    if not hasattr(module, path):
        raise LookupError(f"probe target {target!r} does not exist")
    return module, path, path


class Installation:
    """The patches one :func:`install` made, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attribute: str, value: Any) -> None:
        self.patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)


def install(recorder: Recorder) -> Installation:
    """Wrap every layer target; raises ``LookupError`` on a missing one."""
    installation = Installation()
    resolved = [
        (layer, _resolve(target)) for layer in LAYERS
        for target in layer.targets
    ]
    modules = [
        module for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module
    ]
    for layer, (owner, attribute, qualname) in resolved:
        if isinstance(owner, type):
            for cls in _subclasses(owner):
                member = vars(cls).get(attribute)
                if member is None:
                    continue
                if isinstance(member, property):
                    wrapped = property(
                        _wrap(member.fget, layer, recorder, qualname),
                        member.fset, member.fdel, member.__doc__,
                    )
                else:
                    wrapped = _wrap(member, layer, recorder, qualname)
                installation.patch(cls, attribute, wrapped)
            continue
        original = getattr(owner, attribute)
        wrapped = _wrap(original, layer, recorder, qualname)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    installation.patch(module, name, wrapped)
    return installation


def uninstall(installation: Installation) -> None:
    for owner, attribute, original in reversed(installation.patches):
        setattr(owner, attribute, original)
    installation.patches.clear()


def installed_probes() -> int:
    """How many layer targets currently carry a probe wrapper."""
    count = 0
    for layer in LAYERS:
        for target in layer.targets:
            owner, attribute, __ = _resolve(target)
            member = vars(owner)[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            if isinstance(member, property):
                member = member.fget
            if getattr(member, PROBE_MARK, False):
                count += 1
    return count


def dead_probes(workload: str, summary: Dict[str, Any]) -> List[str]:
    """Expected layers of ``workload`` that recorded no call."""
    return [
        name for name in EXPECTED[workload]
        if summary["layers"][name]["calls"] == 0
    ]
