"""The end-to-end communication runtime (simulated "live" measurements).

Where :mod:`repro.core` predicts throughput from composition rules,
this engine *executes* a transfer the way the machines' runtimes did
and reports what a wall-clock measurement would see:

* **software phases** (gather / system-buffer / scatter copies) are
  staged at message granularity — a packing library packs the whole
  message before the first byte leaves the node;
* the **hardware middle** (load-send or DMA, wire, deposit/receive)
  streams chunk by chunk through FIFOs, so within it the slowest unit
  paces the rest;
* chained transfers are a single hardware-paced phase.

Sequential phases reproduce the model's harmonic rule; within-phase
streaming reproduces the min rule.  On top the runtime charges what
the model deliberately ignores: library per-message/per-fragment
costs, pipeline fill, duplex memory contention, and machine quirks
(the Paragon's unusable pipelined loads, bus arbitration).  A single
documented ``runtime_efficiency`` scalar stands in for the residual
unmodeled costs (cache invalidation, synchronization, timer reads)
that make real measurements land 10-20% under the model (Figures 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.errors import (
    CalibrationError,
    CompositionError,
    TransferAbortedError,
)
from ..core.operations import DepositSupport, OperationStyle
from ..core.patterns import CONTIGUOUS, AccessPattern
from ..core.transfers import TransferKind
from ..faults.degrade import DegradedResult
from ..faults.policy import recovery_charge
from ..faults.spec import FaultPlan, current_fault_plan
from ..machines.base import Machine
from ..memsim.config import WORD_BYTES
from ..trace.tracer import current_tracer
from .libraries import LibraryProfile, lowlevel_profile
from .stages import Stage, StagePipeline

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic
    from ..core.calibration import ThroughputTable

__all__ = ["MeasuredTransfer", "CommRuntime", "CPU_CHUNK_OVERHEAD_NS", "measure_q"]

#: Fixed software cost a processor pays per pipeline chunk (loop setup,
#: flow control).  Background engines (DMA, deposit, network) pace
#: themselves and pay nothing per chunk.
CPU_CHUNK_OVERHEAD_NS = 1500.0

_FIXED = AccessPattern.fixed()


@dataclass(frozen=True)
class MeasuredTransfer:
    """What the runtime measured for one point-to-point transfer.

    Attributes:
        mbps: End-to-end payload throughput.
        ns: Wall-clock time including library overheads.
        phase_ns: Time spent in each sequential phase, by name.
        memory_capped: Whether the duplex memory cap bound the result.
        diagnostics: Static-analyzer findings for the executed
            composition, populated when the transfer was requested with
            ``analyze=True``.
        degraded: The graceful-degradation record when an injected
            fault forced a fallback (chained -> buffer-packing);
            ``None`` on the nominal path.
        retries: Fragment/message retransmissions charged by the
            fault plan's retry policy.
    """

    mbps: float
    ns: float
    nbytes: int
    style: OperationStyle
    library: str
    congestion: float
    phase_ns: Tuple[Tuple[str, float], ...]
    resource_busy_ns: Tuple[Tuple[str, float], ...] = ()
    memory_capped: bool = False
    diagnostics: Tuple["Diagnostic", ...] = ()
    degraded: Optional[DegradedResult] = None
    retries: int = 0

    def bottleneck_busy_ns(self) -> float:
        """Busy time of the most-loaded resource for this message.

        When an application issues many messages back to back, the
        steady-state cost per message is this figure, not the full
        end-to-end latency: other resources overlap with the next
        message (software pipelining across messages).
        """
        if not self.resource_busy_ns:
            return self.ns
        return max(busy for __, busy in self.resource_busy_ns)

    def __str__(self) -> str:
        return (
            f"{self.library} {self.style.value} {self.nbytes} B: "
            f"{self.mbps:.1f} MB/s"
        )


@dataclass(frozen=True)
class _Phase:
    """A sequential phase: stages pipelined at ``chunk_bytes`` grain."""

    name: str
    stages: Tuple[Stage, ...]
    chunk_bytes: int


class CommRuntime:
    """Executes communication operations on one machine.

    Args:
        machine: The machine to run on.
        library: Software profile; defaults to the fastest low-level
            library (libsm.a / SUNMOS libnx).
        rates: ``"simulated"`` (default) takes stage rates from the
            memory-system simulator — the full bottom-up path — while
            ``"paper"`` uses the published calibration.
        table: An explicit calibration table overriding ``rates``.
            Batch executors (the sweep engine) derive one table per
            machine and hand it to every runtime they build instead of
            re-deriving it per construction; passing the table the
            ``rates`` source would have produced changes nothing else.
        congestion: Default network congestion for transfers that
            don't specify one (defaults to the machine's typical
            value, the paper's bold Table 4 column).
        faults: A standing :class:`~repro.faults.spec.FaultPlan` for
            every transfer this runtime executes.  When ``None``, the
            context-installed plan (:func:`repro.faults.injecting`)
            applies, if any.
    """

    def __init__(
        self,
        machine: Machine,
        library: Optional[LibraryProfile] = None,
        rates: str = "simulated",
        congestion: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        table: Optional["ThroughputTable"] = None,
    ) -> None:
        self.machine = machine
        self.library = library or lowlevel_profile()
        self.faults = faults
        # Faults-off fast exit: an explicit-but-empty plan behaves
        # nominally, so the emptiness test is paid once here, not on
        # every transfer.  ``None`` means "consult the context plan".
        self._standing_plan: Optional[FaultPlan] = (
            faults if faults is not None and not faults.is_empty() else None
        )
        if table is not None:
            self.table = table
        elif rates == "simulated":
            self.table = machine.simulated_table()
        elif rates == "paper":
            self.table = machine.paper_table()
        else:
            raise ValueError(f"unknown rate source {rates!r}")
        self.default_congestion = (
            congestion
            if congestion is not None
            else machine.network.default_congestion
        )

    # -- rate lookups -----------------------------------------------------

    def _rate(self, kind: TransferKind, read, write) -> float:
        return self.table.lookup_kind(kind, read, write)

    def _network_rate(self, adp: bool, congestion: float) -> float:
        from ..netsim.network import FramingMode

        model = self.machine.network_model()
        mode = FramingMode.ADDRESS_DATA_PAIRS if adp else FramingMode.DATA_ONLY
        return model.rate(mode, congestion=congestion)

    def _send_rate(self, read: AccessPattern) -> float:
        scale = self.machine.quirks.send_rate_scale
        return self._rate(TransferKind.LOAD_SEND, read, _FIXED) * scale

    def _cpu_stage(self, name: str, rate: float, resource: str) -> Stage:
        return Stage(name, rate, resource, chunk_overhead_ns=CPU_CHUNK_OVERHEAD_NS)

    # -- phase construction ---------------------------------------------------

    def _middle_stages(
        self, congestion: float, deposit_ok: bool = True
    ) -> List[Stage]:
        """The contiguous-block hardware path of a packing transfer.

        ``deposit_ok=False`` (an injected deposit-engine fault) lands
        the receive on the processor instead of the deposit engine.
        """
        caps = self.machine.capabilities
        if caps.dma_send:
            send = Stage(
                "send-dma",
                self._rate(TransferKind.FETCH_SEND, CONTIGUOUS, _FIXED),
                "sender_dma",
                startup_ns=self.machine.node.dma.setup_ns,
            )
        else:
            send = self._cpu_stage("send", self._send_rate(CONTIGUOUS), "sender_cpu")
        network = Stage(
            "network", self._network_rate(adp=False, congestion=congestion), "network"
        )
        if caps.deposit is not DepositSupport.NONE and deposit_ok:
            receive = Stage(
                "receive-deposit",
                self._rate(TransferKind.RECEIVE_DEPOSIT, _FIXED, CONTIGUOUS),
                "receiver_deposit",
            )
        else:
            receive = self._cpu_stage(
                "receive", self._receive_store_rate(), "receiver_cpu"
            )
        return [send, network, receive]

    def _receive_store_rate(self) -> float:
        """Processor receive rate, even where the machine never uses one.

        Machines whose receives always ride the deposit engine (the
        T3D) have no calibrated ``R`` entry; a processor receive-store
        is a load-from-network/store loop, so the contiguous copy rate
        is the honest stand-in when a fault forces one.
        """
        try:
            return self._rate(TransferKind.RECEIVE_STORE, _FIXED, CONTIGUOUS)
        except CalibrationError:
            return self._rate(TransferKind.COPY, CONTIGUOUS, CONTIGUOUS)

    def _packing_phases(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        congestion: float,
        deposit_ok: bool = True,
    ) -> List[_Phase]:
        lib = self.library
        fragment = min(nbytes, lib.fragment_bytes)
        stream_chunk = min(
            self.machine.quirks.pipeline_chunk_words * WORD_BYTES, fragment
        )
        phases: List[_Phase] = []

        pack: List[Stage] = []
        if lib.pack_even_contiguous or not x.is_contiguous:
            pack.append(
                self._cpu_stage(
                    "gather",
                    self._rate(TransferKind.COPY, x, CONTIGUOUS),
                    "sender_cpu",
                )
            )
        if lib.system_buffer_copies >= 1:
            pack.append(
                self._cpu_stage(
                    "sysbuf-send",
                    self._rate(TransferKind.COPY, CONTIGUOUS, CONTIGUOUS),
                    "sender_cpu",
                )
            )
        if pack:
            phases.append(_Phase("pack", tuple(pack), fragment))

        phases.append(
            _Phase(
                "transfer",
                tuple(self._middle_stages(congestion, deposit_ok=deposit_ok)),
                stream_chunk,
            )
        )

        unpack: List[Stage] = []
        if lib.system_buffer_copies >= 2:
            unpack.append(
                self._cpu_stage(
                    "sysbuf-receive",
                    self._rate(TransferKind.COPY, CONTIGUOUS, CONTIGUOUS),
                    "receiver_cpu",
                )
            )
        if lib.pack_even_contiguous or not y.is_contiguous:
            unpack.append(
                self._cpu_stage(
                    "scatter",
                    self._rate(TransferKind.COPY, CONTIGUOUS, y),
                    "receiver_cpu",
                )
            )
        if unpack:
            phases.append(_Phase("unpack", tuple(unpack), fragment))
        return phases

    def _chained_uses_deposit(self, y: AccessPattern) -> bool:
        """Whether the nominal chained receiver is the deposit engine."""
        caps = self.machine.capabilities
        return caps.deposit is DepositSupport.ANY or (
            caps.deposit is DepositSupport.CONTIGUOUS and y.is_contiguous
        )

    def _chained_phases(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        congestion: float,
        deposit_ok: bool = True,
    ) -> List[_Phase]:
        caps = self.machine.capabilities
        if not self.library.supports_chained:
            raise CompositionError(
                f"library {self.library.name!r} has no chained/put-get path"
            )
        adp = not (x.is_contiguous and y.is_contiguous)
        stages = [
            self._cpu_stage("send", self._send_rate(x), "sender_cpu"),
            Stage("network", self._network_rate(adp, congestion), "network"),
        ]
        if deposit_ok and self._chained_uses_deposit(y):
            stages.append(
                Stage(
                    "deposit",
                    self._rate(TransferKind.RECEIVE_DEPOSIT, _FIXED, y),
                    "receiver_deposit",
                )
            )
        elif caps.coprocessor_receive:
            stages.append(
                self._cpu_stage(
                    "receive-coproc",
                    self._rate(TransferKind.RECEIVE_STORE, _FIXED, y),
                    "receiver_coproc",
                )
            )
        else:
            raise CompositionError(
                f"machine {self.machine.name!r} has no background receiver "
                f"for pattern {y}"
            )
        chunk = min(
            self.machine.quirks.pipeline_chunk_words * WORD_BYTES,
            self.library.fragment_bytes,
            nbytes,
        )
        return [_Phase("chained", tuple(stages), chunk)]

    # -- execution ----------------------------------------------------------------

    def transfer(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle = OperationStyle.CHAINED,
        congestion: Optional[float] = None,
        duplex: bool = False,
        analyze: bool = False,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> MeasuredTransfer:
        """Measure one point-to-point ``xQy`` transfer of ``nbytes``.

        Args:
            x / y: Source and destination access patterns.
            nbytes: Payload size.
            style: Buffer-packing or chained.
            congestion: Network congestion this transfer experiences;
                defaults to the machine's typical value.
            duplex: Whether the node simultaneously sends and receives
                (all-to-all, shifts): memory-touching stages slow by
                the bus-interleave quirk and the duplex memory cap
                applies.
            analyze: Run the static linter over the model-level
                composition this transfer executes and attach its
                diagnostics to the result.
            src / dst: Node ids of the endpoints.  Only consulted by an
                active fault plan (per-node slowdowns, per-link
                derates, per-node deposit faults); anonymous transfers
                see only the plan's global faults.

        When a fault plan is active (runtime ``faults=`` argument or
        :func:`repro.faults.injecting`) and it marks the deposit engine
        unavailable, a chained transfer degrades to buffer-packing
        instead of raising; the result's ``degraded`` field names the
        fault, the fallback and the throughput delta.  Fragment faults
        charge ``retry``/``backoff`` phases per the plan's
        :class:`~repro.faults.policy.RetryPolicy`.
        """
        if nbytes <= 0:
            raise ValueError(f"need a positive transfer size, got {nbytes}")
        if congestion is None:
            congestion = self.default_congestion
        style = (
            style
            if isinstance(style, OperationStyle)
            else OperationStyle(style)
        )
        return self._execute(
            x, y, nbytes, style, congestion, duplex, analyze,
            self.active_fault_plan(), src, dst,
        )

    def active_fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan governing this runtime now, ``None`` if healthy.

        An explicit runtime plan (even an empty one) shadows the
        context plan (:func:`repro.faults.injecting`), and an empty
        plan in either position resolves to ``None``, so callers never
        run per-phase or per-flow fault bookkeeping under a plan that
        injects nothing.
        """
        if self.faults is not None:
            return self._standing_plan
        plan = current_fault_plan()
        if plan is not None and plan.is_empty():
            return None
        return plan

    def _execute(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle,
        congestion: float,
        duplex: bool,
        analyze: bool,
        plan: Optional[FaultPlan],
        src: Optional[int],
        dst: Optional[int],
    ) -> MeasuredTransfer:
        requested = style
        caps = self.machine.capabilities
        deposit_ok = plan.deposit_available(dst) if plan is not None else True
        fallen_back: Optional[Tuple[str, str]] = None  # (fault, fallback)
        if style is OperationStyle.BUFFER_PACKING:
            phases = self._packing_phases(
                x, y, nbytes, congestion, deposit_ok=deposit_ok
            )
            if not deposit_ok and caps.deposit is not DepositSupport.NONE:
                fallen_back = ("deposit-engine-unavailable", "receive-store")
        else:
            try:
                phases = self._chained_phases(
                    x, y, nbytes, congestion, deposit_ok=deposit_ok
                )
                if not deposit_ok and self._chained_uses_deposit(y):
                    fallen_back = (
                        "deposit-engine-unavailable",
                        "coprocessor-receive",
                    )
            except CompositionError:
                if (
                    deposit_ok
                    or not caps.chained_receiver_available
                ):
                    raise
                # Graceful degradation, the centrepiece: the fault took
                # the only background receiver, so re-plan the transfer
                # as buffer-packing instead of crashing.
                style = OperationStyle.BUFFER_PACKING
                phases = self._packing_phases(
                    x, y, nbytes, congestion, deposit_ok=deposit_ok
                )
                fallen_back = ("deposit-engine-unavailable", "buffer-packing")

        if duplex:
            phases = [self._derate_for_duplex(phase) for phase in phases]

        if plan is not None:
            phases = self._apply_fault_derates(phases, plan, src, dst)

        tracer = current_tracer()
        total_ns = 0.0
        phase_times: List[Tuple[str, float]] = []
        resource_busy: dict = {}
        for phase in phases:
            pipeline = StagePipeline(list(phase.stages))
            if tracer is not None:
                # Chunk spans inside the pipeline are clocked from the
                # phase start; shift them onto the transfer timeline.
                with tracer.shifted(total_ns):
                    result = pipeline.run(
                        nbytes,
                        chunk_bytes=phase.chunk_bytes,
                        trace_phase=phase.name,
                    )
            else:
                result = pipeline.run(nbytes, chunk_bytes=phase.chunk_bytes)
            if tracer is not None:
                tracer.span(
                    phase.name,
                    track="phase",
                    start_ns=total_ns,
                    duration_ns=result.ns,
                    category="phase",
                    chunk_bytes=phase.chunk_bytes,
                    stages=[stage.name for stage in phase.stages],
                )
            total_ns += result.ns
            phase_times.append((phase.name, result.ns))
            for label, stage in zip(pipeline.labels, pipeline.stages):
                busy = result.stage_busy_ns[label]
                resource_busy[stage.resource] = (
                    resource_busy.get(stage.resource, 0.0) + busy
                )

        fragments = -(-nbytes // self.library.fragment_bytes)
        library_ns = (
            self.library.per_message_ns + fragments * self.library.per_fragment_ns
        )
        if tracer is not None and library_ns > 0.0:
            tracer.span(
                "library-overhead",
                track="phase",
                start_ns=total_ns,
                duration_ns=library_ns,
                category="phase",
                library=self.library.name,
                per_message_ns=self.library.per_message_ns,
                fragments=fragments,
            )
            tracer.span(
                "library-overhead",
                track="sender_cpu",
                start_ns=total_ns,
                duration_ns=library_ns,
                category="stage",
                library=self.library.name,
            )
        total_ns += library_ns
        # Protocol costs keep the sender's processor busy.
        resource_busy["sender_cpu"] = (
            resource_busy.get("sender_cpu", 0.0) + library_ns
        )

        retries = 0
        if plan is not None and plan.has_wire_faults():
            hardware_ns = sum(
                ns for name, ns in phase_times
                if name in ("transfer", "chained")
            ) or sum(ns for __, ns in phase_times)
            try:
                recovery = recovery_charge(
                    plan,
                    fragments=fragments,
                    fragment_ns=hardware_ns / max(1, fragments),
                    message_ns=hardware_ns,
                    key=(str(x), str(y), nbytes, style.value, src, dst),
                )
            except TransferAbortedError as exc:
                # Signal the abort with its endpoints so link-level
                # consumers (the load engine's circuit breakers) can
                # attribute it without parsing the message.
                exc.src, exc.dst = src, dst
                if tracer is not None:
                    tracer.count("faults.aborts")
                raise
            if recovery:
                retries = recovery.retries
                for name, ns in (
                    ("retry", recovery.retry_ns),
                    ("backoff", recovery.backoff_ns),
                ):
                    if ns <= 0.0:
                        continue
                    if tracer is not None:
                        tracer.span(
                            name,
                            track="phase",
                            start_ns=total_ns,
                            duration_ns=ns,
                            category="phase",
                            retries=recovery.retries,
                            losses=recovery.losses,
                            corruptions=recovery.corruptions,
                        )
                    phase_times.append((name, ns))
                    total_ns += ns
                # Retransmissions re-occupy the sender; backoff is idle.
                resource_busy["sender_cpu"] = (
                    resource_busy.get("sender_cpu", 0.0) + recovery.retry_ns
                )
                if tracer is not None:
                    tracer.count("faults.retries", recovery.retries)
                    tracer.count("faults.fragment_losses", recovery.losses)
                    tracer.count(
                        "faults.fragment_corruptions", recovery.corruptions
                    )
                    tracer.observe(
                        "faults.recovery_ns", recovery.total_ns
                    )

        raw_ns = total_ns
        mbps = nbytes / total_ns * 1000.0
        mbps *= self.machine.quirks.runtime_efficiency

        capped = False
        if duplex:
            cap = (
                self._rate(TransferKind.COPY, CONTIGUOUS, CONTIGUOUS)
                / self.machine.quirks.duplex_penalty
            )
            if mbps > cap:
                mbps = cap
                capped = True
        total_ns = nbytes / mbps * 1000.0

        if tracer is not None:
            tracer.count("runtime.transfers")
            tracer.count("runtime.fragments", fragments)
            if capped:
                tracer.count("runtime.duplex_caps")
            # The residual the model deliberately leaves unexplained
            # (runtime_efficiency derate, duplex memory cap): traced as
            # its own phase so the phase spans always sum to the
            # reported end-to-end ns.
            residual = total_ns - raw_ns
            if residual > 0.0:
                tracer.span(
                    "duplex-memory-cap" if capped else "efficiency-derate",
                    track="phase",
                    start_ns=raw_ns,
                    duration_ns=residual,
                    category="phase",
                    efficiency=self.machine.quirks.runtime_efficiency,
                    memory_capped=capped,
                )

        degraded: Optional[DegradedResult] = None
        if fallen_back is not None:
            fault_name, fallback_name = fallen_back
            nominal = self._nominal_mbps(
                x, y, nbytes, requested, congestion, duplex
            )
            degraded = DegradedResult(
                fault=fault_name,
                requested=requested.value,
                fallback=fallback_name,
                nominal_mbps=nominal,
                degraded_mbps=mbps,
            )
            if tracer is not None:
                tracer.count("faults.degraded")
                tracer.span(
                    f"degraded:{fallback_name}",
                    track="faults",
                    start_ns=0.0,
                    duration_ns=total_ns,
                    category="fault",
                    fault=fault_name,
                    requested=requested.value,
                    fallback=fallback_name,
                )
        if tracer is not None and plan is not None:
            tracer.count("faults.transfers_under_plan")

        return MeasuredTransfer(
            mbps=mbps,
            ns=total_ns,
            nbytes=nbytes,
            style=style,
            library=self.library.name,
            congestion=congestion,
            phase_ns=tuple(phase_times),
            resource_busy_ns=tuple(sorted(resource_busy.items())),
            memory_capped=capped,
            diagnostics=self._analyze(x, y, style, duplex) if analyze else (),
            degraded=degraded,
            retries=retries,
        )

    def _nominal_mbps(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle,
        congestion: float,
        duplex: bool,
    ) -> float:
        """Fault-free throughput of the requested path, for the record.

        Runs under a throwaway tracer so the comparison never pollutes
        the active trace's phase accounting.
        """
        from ..trace.tracer import Tracer, tracing

        with tracing(Tracer()):
            try:
                nominal = self._execute(
                    x, y, nbytes, style, congestion, duplex,
                    False, None, None, None,
                )
            except CompositionError:
                return 0.0
        return nominal.mbps

    def _apply_fault_derates(
        self,
        phases: List[_Phase],
        plan: FaultPlan,
        src: Optional[int],
        dst: Optional[int],
    ) -> List[_Phase]:
        """Scale stage rates by the plan's node and link faults.

        Sender-side resources slow by the sender node's slowdown,
        receiver-side by the receiver's; the network stage slows by the
        worst link derate along the route (the global derate when the
        transfer is anonymous or the machine's default partition does
        not contain the endpoints).
        """
        sender_scale = plan.node_slowdown(src)
        receiver_scale = plan.node_slowdown(dst)
        network_derate = self._route_derate(plan, src, dst)
        if (
            sender_scale == 1.0
            and receiver_scale == 1.0
            and network_derate == 1.0
        ):
            return phases
        tracer = current_tracer()
        if tracer is not None:
            if sender_scale != 1.0 or receiver_scale != 1.0:
                tracer.count("faults.node_slowdowns")
            if network_derate != 1.0:
                tracer.count("faults.link_derates")

        def scale(stage: Stage) -> Stage:
            if stage.resource == "network":
                factor = network_derate
            elif stage.resource.startswith("sender"):
                factor = 1.0 / sender_scale
            else:
                factor = 1.0 / receiver_scale
            if factor == 1.0:
                return stage
            return Stage(
                stage.name,
                stage.rate_mbps * factor,
                stage.resource,
                stage.chunk_overhead_ns,
                stage.startup_ns,
            )

        return [
            _Phase(phase.name, tuple(scale(s) for s in phase.stages),
                   phase.chunk_bytes)
            for phase in phases
        ]

    def _route_derate(
        self, plan: FaultPlan, src: Optional[int], dst: Optional[int]
    ) -> float:
        """Worst link derate this transfer's route crosses."""
        if src is None or dst is None or src == dst:
            return plan.global_link_derate()
        if not any(fault.src is not None for fault in plan.links):
            return plan.global_link_derate()
        topology = self.machine.topology()
        if src >= topology.n_nodes or dst >= topology.n_nodes:
            return plan.global_link_derate()
        route = plan.wrap_topology(topology).route(src, dst)
        return plan.route_derate(route)

    def _analyze(
        self,
        x: AccessPattern,
        y: AccessPattern,
        style: OperationStyle,
        duplex: bool,
    ) -> Tuple["Diagnostic", ...]:
        """Lint the model-level composition behind one runtime transfer."""
        from ..analysis import analyze as run_linter
        from ..core.constraints import duplex_memory_constraint
        from ..core.operations import buffer_packing, chained

        builder = (
            buffer_packing if style is OperationStyle.BUFFER_PACKING else chained
        )
        try:
            expr = builder(x, y, self.machine.capabilities)
        except CompositionError:
            # The phase builders have already accepted this transfer
            # (e.g. a co-processor receive the expression algebra lacks
            # a builder for); nothing model-level to lint.
            return ()
        constraints = (duplex_memory_constraint(),) if duplex else ()
        return tuple(
            run_linter(
                expr,
                table=self.table,
                capabilities=self.machine.capabilities,
                constraints=constraints,
            )
        )

    def _derate_for_duplex(self, phase: _Phase) -> _Phase:
        scale = self.machine.quirks.bus_interleave_scale
        if scale == 1.0:
            return phase
        stages = tuple(
            Stage(
                s.name,
                s.rate_mbps / scale if s.resource != "network" else s.rate_mbps,
                s.resource,
                s.chunk_overhead_ns,
                s.startup_ns,
            )
            for s in phase.stages
        )
        return _Phase(phase.name, stages, phase.chunk_bytes)

    def sweep_message_sizes(
        self,
        sizes: Sequence[int],
        x: AccessPattern = CONTIGUOUS,
        y: AccessPattern = CONTIGUOUS,
        style: OperationStyle = OperationStyle.BUFFER_PACKING,
        congestion: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """Throughput-vs-message-size curve (the Figure 1 experiment)."""
        return [
            (size, self.transfer(x, y, size, style, congestion=congestion).mbps)
            for size in sizes
        ]


def measure_q(
    machine: Machine,
    x: AccessPattern,
    y: AccessPattern,
    nbytes: int,
    style: OperationStyle,
    congestion: Optional[float] = None,
    analyze: bool = False,
) -> MeasuredTransfer:
    """Measure ``xQy`` under the paper's measurement conventions.

    Buffer-packing runs the hand-coded packing implementation (copies
    always performed); chained runs over the low-level put/get path.
    Nodes send and receive simultaneously unless the machine's
    measurements were taken simplex (the Paragon's were).
    """
    from .libraries import packing_profile

    if style is OperationStyle.BUFFER_PACKING:
        library = packing_profile()
    else:
        library = lowlevel_profile()
    runtime = CommRuntime(machine, library=library)
    duplex = not machine.quirks.measures_simplex
    return runtime.transfer(
        x, y, nbytes, style=style, congestion=congestion, duplex=duplex,
        analyze=analyze,
    )
