"""The shard gateway: admission, routing, failover, shedding, autoscale.

:class:`ShardGateway` fronts several independent
:class:`repro.serving.SessionWorkerPool` shards (process groups standing
in for hosts) with one single-threaded control loop, scaling the
single-host :class:`repro.serving.SessionServer` design out while
keeping its determinism and testability:

* **Routing** — cases route to shards by consistent hashing of their
  ``preop_key`` (:class:`repro.serving.ConsistentHashRing`), so a
  patient's cases always land where that patient's preoperative model
  is already cached, and a shard loss remaps only the lost shard's keys.
* **Failover** — when a shard dies (injected ``kill-shard`` fault, or
  :meth:`kill_shard`), its in-flight cases are re-admitted to the
  survivors with bounded retry: capped exponential backoff with
  deterministic jitter, ``max_attempts`` accounting, and journal replay
  for durable cases (committed scans come back bit-exact,
  ``restored=True`` — never recomputed).
* **Hang detection** — a worker that stops heartbeating past an
  adaptive timeout (scaled from the EWMA service estimates) is wedged,
  not slow: it is terminated and its case re-admitted, so a
  ``hang-worker`` fault costs one timeout, never the drill.
* **Load shedding** — admission pressure walks the
  :class:`repro.serving.SheddingLadder`: overload first degrades
  fidelity (coarse-FEM -> previous-field -> rigid-only stamped as the
  case's ``shed_level``) and only rejects once every rung is active.
* **Autoscale** — each shard grows/shrinks its worker count between
  :class:`repro.serving.AutoscalePolicy` bounds from its routed backlog.

Every transition lands in the metrics registry — global ``serving.*``
series matching the single-host server plus shard-labelled copies
(``name[shard=K]``, the same convention the telemetry merge uses for
``name[worker=N]``) — and worker telemetry frames graft into the
gateway's trace with per-shard process labels (``shardK-workerN``), one
Perfetto lane per shard worker.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SCAN_TOTAL, SLOTracker
from repro.obs.telemetry import TraceContext, graft_frame
from repro.obs.trace import Tracer, get_tracer
from repro.resilience.faults import SERVING_FAULTS, ServingFaultPlan
from repro.serving.admission import AdmissionQueue, ServiceEstimator, SheddingLadder
from repro.serving.pool import SessionWorkerPool
from repro.serving.protocol import (
    STATUS_EVICTED,
    STATUS_FAILED,
    STATUS_REJECTED,
    BatchRequest,
    CaseRequest,
    CaseResult,
    request_members,
)
from repro.serving.scheduler import CoalescingWindow, Scheduler
from repro.serving.shard import AutoscalePolicy, ConsistentHashRing, Shard
from repro.util import ValidationError, format_table


def _worker_label(shard: Shard, worker_id: int) -> str:
    """Telemetry lane of one shard's worker; also names its flight spool."""
    return f"{shard.label}-worker{worker_id}"


def _retry_jitter(case_id: str, attempt: int) -> float:
    """Deterministic jitter fraction in [0, 1) for a re-admission."""
    digest = hashlib.blake2b(
        f"{case_id}/{attempt}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big") / 2**32


class ShardGateway:
    """Sharded serving of surgical sessions with failover and shedding.

    Parameters
    ----------
    n_shards / workers_per_shard:
        Fleet shape: ``n_shards`` independent pools of
        ``workers_per_shard`` processes each.
    queue_capacity:
        Bound of the (single, gateway-wide) admission queue.
    policy:
        Case-ordering policy, ``"fifo"`` or ``"deadline"``.
    max_attempts:
        Dispatch attempts per case before failover marks it failed.
    autoscale:
        Per-shard elasticity policy; ``None`` disables autoscaling
        (fixed ``workers_per_shard``).
    shedding:
        The overload ladder; ``None`` installs the default
        :class:`repro.serving.SheddingLadder`. Shedding cannot be
        disabled — an overloaded gateway without a ladder would reject,
        which is exactly what the ladder exists to postpone.
    serving_faults:
        Optional :class:`repro.resilience.ServingFaultPlan`; due specs
        fire from the control loop (chaos drills).
    retry_base_s / retry_cap_s:
        Re-admission backoff: attempt ``k`` waits
        ``min(cap, base * 2**(k-1))`` plus up to 25% deterministic
        jitter before redispatch.
    hang_timeout_s:
        Heartbeat-silence threshold for wedged-worker detection.
        ``None`` adapts from the EWMA estimates (never below 5 s), so
        legitimately long solves are not shot.
    metrics / tracer / telemetry / flight_dir / start_method / drain_dir:
        As on :class:`repro.serving.SessionServer`; worker flight rings
        are spooled as ``shard<k>-worker<id>.json``.
    coalesce_window_s / coalesce_max_batch:
        Scheduler coalescing, as on the single-host server (off by
        default): same-``preop_key`` cases — which the ring routes to
        the same shard — are held up to the window and leave as one
        :class:`repro.serving.BatchRequest` for the batched multi-RHS
        solve path. Members keep individual failover: deaths, hangs and
        shard losses re-admit each member on its own attempt budget.
    """

    def __init__(
        self,
        n_shards: int = 2,
        workers_per_shard: int = 2,
        queue_capacity: int = 32,
        policy: str = "fifo",
        max_attempts: int = 3,
        autoscale: AutoscalePolicy | None = None,
        shedding: SheddingLadder | None = None,
        serving_faults: ServingFaultPlan | None = None,
        retry_base_s: float = 0.1,
        retry_cap_s: float = 2.0,
        hang_timeout_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        telemetry: bool = True,
        flight_dir: str | None = None,
        start_method: str | None = None,
        drain_dir: str | None = None,
        coalesce_window_s: float = 0.0,
        coalesce_max_batch: int = 4,
    ):
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {max_attempts}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.telemetry = bool(telemetry)
        if tracer is not None:
            self.tracer = tracer
        elif self.telemetry:
            self.tracer = Tracer(process_label="gateway")
        else:
            self.tracer = None
        self.slo = SLOTracker(metrics=self.metrics) if self.telemetry else None
        if self.telemetry:
            self.flight_dir = (
                flight_dir
                if flight_dir is not None
                else tempfile.mkdtemp(prefix="repro-gateway-flight-")
            )
            self.flight = FlightRecorder(label="gateway")
        else:
            self.flight_dir = flight_dir
            self.flight = FlightRecorder(enabled=False)
        self.estimator = ServiceEstimator()
        self.queue = AdmissionQueue(queue_capacity, self.estimator)
        self.scheduler = Scheduler(policy)
        self.coalescer = CoalescingWindow(coalesce_window_s, coalesce_max_batch)
        self.shedding = shedding if shedding is not None else SheddingLadder()
        self.autoscale = autoscale
        self.faults = serving_faults
        self.max_attempts = int(max_attempts)
        self.retry_base_s = float(retry_base_s)
        self.retry_cap_s = float(retry_cap_s)
        self.hang_timeout_s = hang_timeout_s
        self.shards: dict[int, Shard] = {}
        for shard_id in range(n_shards):
            self.shards[shard_id] = Shard(
                shard_id,
                SessionWorkerPool(
                    workers_per_shard,
                    start_method=start_method,
                    drain_dir=drain_dir,
                ),
            )
        self.ring = ConsistentHashRing(list(self.shards))
        self.results: dict[str, CaseResult] = {}
        self.dispatched_total = 0
        self._attempts: dict[str, int] = {}
        self._admitted_at: dict[str, float] = {}
        self._known_keys: set[str] = set()
        self._case_spans: dict[str, object] = {}
        #: case_id -> the dispatched request, while in flight on a shard.
        #: The gateway keeps its own copy (workers own pickled ones) so a
        #: lost reply or dead shard can re-admit without reconstructing.
        self._inflight: dict[str, CaseRequest] = {}
        #: case_id -> True while the serving worker is building the
        #: patient's preoperative model (its key was unseen at dispatch):
        #: health probes report such workers "building-preop" instead of
        #: counting the long silence toward wedged detection.
        self._building: dict[str, bool] = {}
        self._not_before: dict[str, float] = {}
        self._drop_results: dict[int, int] = {}
        self._respawns_seen: dict[int, int] = {}
        self._scaled_at: dict[int, float] = {}
        self._idle_since: dict[int, float] = {}
        self._closed = False

    # -- small helpers --------------------------------------------------------

    def _trace(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    def live_shards(self) -> list[Shard]:
        return [s for s in self.shards.values() if s.up]

    def _live_worker_count(self) -> int:
        return sum(s.pool.n_workers for s in self.live_shards())

    def _open_case_span(self, request: CaseRequest) -> None:
        if not self.telemetry:
            return
        self._case_spans[request.case_id] = self._trace().open_span(
            "serve.case",
            kind="serving",
            case_id=request.case_id,
            n_scans=request.n_scans,
        )

    def _close_case_span(self, case_id: str, **attrs) -> None:
        span = self._case_spans.pop(case_id, None)
        if span is not None:
            span.close(**attrs)

    def _case_span_id(self, case_id: str):
        span = self._case_spans.get(case_id)
        record = getattr(span, "record", None)
        return None if record is None else record.span_id

    def _dump_flight(self, reason: str, **context) -> None:
        if not self.telemetry or self.flight_dir is None:
            return
        self.flight.dump(
            Path(self.flight_dir) / "gateway.json", reason, context=context
        )

    def _worker_flight_dump(self, shard: Shard, worker_id: int | None) -> str | None:
        if self.flight_dir is None or worker_id is None:
            return None
        spool = Path(self.flight_dir) / f"{_worker_label(shard, worker_id)}.json"
        return str(spool) if spool.is_file() else None

    def _backlog_seconds(self) -> float:
        est = self.estimator
        total = 0.0
        for queued in self.queue.items():
            total += est.case_seconds(queued.request.n_scans, preop_cached=False)
        for shard in self.live_shards():
            for handle in shard.pool.busy_workers():
                total += est.case_seconds(handle.busy.n_scans, preop_cached=True) / 2.0
        return total

    # -- admission (with shedding) -------------------------------------------

    def submit(self, request: CaseRequest) -> CaseResult | None:
        """Offer a case; apply the shedding ladder, then admission control.

        Returns ``None`` on admission (terminal result appears in
        :attr:`results` after :meth:`run`) or an immediate ``rejected``
        result. Under overload the case may be admitted with a
        ``shed_level`` stamped — served degraded rather than refused.
        """
        if self._closed:
            raise ValidationError("gateway is shut down")
        if request.case_id in self.results or any(
            q.request.case_id == request.case_id for q in self.queue.items()
        ):
            raise ValidationError(f"duplicate case_id {request.case_id!r}")
        backlog = self._backlog_seconds()
        decision = self.shedding.decide(
            self.shedding.pressure(
                queue_fill=len(self.queue) / self.queue.capacity,
                backlog_seconds=backlog,
                n_workers=self._live_worker_count(),
            )
        )
        self.metrics.gauge("serving.pressure").set(decision.pressure)
        if decision.reject:
            return self._reject(
                request,
                f"load shed: reject (pressure {decision.pressure:.2f})",
                shed=True,
            )
        if decision.level is not None:
            request.shed_level = int(decision.level)
            self.metrics.counter("serving.shed").inc()
            self.metrics.counter(f"serving.shed[level={decision.level.label}]").inc()
            self.flight.note(
                "case.shed",
                case=request.case_id,
                level=decision.level.label,
                pressure=round(decision.pressure, 3),
            )
            self._trace().event(
                "serving.shed",
                case=request.case_id,
                level=decision.level.label,
                pressure=decision.pressure,
            )
        preop_cached = request.preop_key() in self._known_keys
        # Deadline budget already burned before admission: network
        # transit + transport queuing, from the client-stamped wall
        # clock. Charged against deadline_s instead of extending it.
        waited_s = 0.0
        if request.client_enqueue_unix is not None:
            waited_s = max(0.0, time.time() - float(request.client_enqueue_unix))
            self.metrics.histogram("serving.network_wait_seconds").observe(waited_s)
        admitted, verdict, detail = self.queue.admit(
            request,
            backlog_seconds=backlog,
            preop_cached=preop_cached,
            waited_s=waited_s,
        )
        self.metrics.gauge("serving.queue_depth").set(len(self.queue))
        if not admitted:
            return self._reject(request, detail)
        self.metrics.counter("serving.admitted").inc()
        self._admitted_at[request.case_id] = time.monotonic() - waited_s
        self._attempts.setdefault(request.case_id, 0)
        self._open_case_span(request)
        self.flight.note(
            "case.admitted", case=request.case_id, queue_depth=len(self.queue)
        )
        self._trace().event(
            "serving.admitted",
            case=request.case_id,
            verdict=verdict.label if verdict is not None else "ok",
            shed=request.shed_level,
            queue_depth=len(self.queue),
        )
        return None

    def _reject(
        self, request: CaseRequest, detail: str, shed: bool = False
    ) -> CaseResult:
        self.metrics.counter("serving.rejected").inc()
        if shed:
            self.metrics.counter("serving.shed_rejected").inc()
        self.flight.note("case.rejected", case=request.case_id, detail=detail)
        self._trace().event("serving.rejected", case=request.case_id, detail=detail)
        result = CaseResult(
            case_id=request.case_id, status=STATUS_REJECTED, detail=detail
        )
        self.results[request.case_id] = result
        return result

    # -- the control loop -----------------------------------------------------

    def run(self, poll_seconds: float = 0.05) -> dict[str, CaseResult]:
        """Serve until the queue is empty and every shard is quiet."""
        if self._closed:
            raise ValidationError("gateway is shut down")
        t0 = time.perf_counter()
        scans_before = self.metrics.value("serving.scans", 0.0)
        with self._trace().span("serve.run", kind="serving") as span:
            while self.tick(poll_seconds):
                pass
            elapsed = time.perf_counter() - t0
            scans = self.metrics.value("serving.scans", 0.0) - scans_before
            if elapsed > 0 and scans:
                self.metrics.gauge("serving.throughput_scans_per_s").set(
                    scans / elapsed
                )
            span.set(seconds=elapsed, scans=int(scans))
        return self.results

    def tick(self, poll_seconds: float = 0.05) -> bool:
        """One control-loop iteration; ``False`` when the gateway is idle.

        :meth:`run` is ``while tick(): pass`` — a long-lived driver (the
        network front-end) calls :meth:`tick` directly instead, so new
        submissions can interleave between iterations. An idle tick is
        not free of duty: it still absorbs worker heartbeats and runs
        pool maintenance, so a server idling between cases neither grows
        the result queues without bound nor misses a respawn.
        """
        if self._closed:
            raise ValidationError("gateway is shut down")
        if not self._working():
            for shard in self.live_shards():
                for result in shard.pool.poll_results(timeout=0.0):
                    self._record(shard, result)
            self._maintain()
            return False
        self._fire_due_faults()
        self._evict_expired_queued()
        self._dispatch_ready()
        self._collect(poll_seconds)
        self._enforce_running_deadlines()
        self._handle_deaths()
        self._detect_hangs()
        self._autoscale_tick()
        self._maintain()
        return True

    def _working(self) -> bool:
        if len(self.queue) == 0 and not any(
            s.pool.busy_workers() for s in self.live_shards()
        ):
            return False
        if not self.live_shards():
            # Total fleet loss: nothing can ever serve the remaining
            # queue — fail it explicitly rather than spin forever.
            for queued in self.queue.clear():
                request = queued.request
                self.metrics.counter("serving.failed").inc()
                self._close_case_span(
                    request.case_id, status=STATUS_FAILED, detail="no live shards"
                )
                self.results[request.case_id] = CaseResult(
                    case_id=request.case_id,
                    status=STATUS_FAILED,
                    detail="no live shards remain",
                    attempts=self._attempts.get(request.case_id, 0),
                    checkpoint=request.checkpoint_dir,
                )
            return False
        return True

    # -- chaos ----------------------------------------------------------------

    def _fire_due_faults(self) -> None:
        if self.faults is None:
            return
        # Poll only gateway-level kinds: a shared plan may also carry
        # wire-level specs the network front-end consumes by submit
        # ordinal — firing them here would silently eat them.
        for spec in self.faults.due(self.dispatched_total, kinds=SERVING_FAULTS):
            shard = self.shards.get(spec.shard)
            self.flight.note("fault.fire", fault=spec.describe())
            self._trace().event("serving.fault", fault=spec.describe())
            if shard is None or not shard.up:
                continue
            if spec.kind == "kill-shard":
                self.kill_shard(spec.shard, cause=f"injected: {spec.describe()}")
            elif spec.kind == "hang-worker":
                shard.pool.inject_hang()
            elif spec.kind == "slow-shard":
                shard.pool.inject_slow(spec.delay_s)
            elif spec.kind == "drop-result":
                self._drop_results[spec.shard] = (
                    self._drop_results.get(spec.shard, 0) + 1
                )

    def kill_shard(self, shard_id: int, cause: str = "killed") -> None:
        """Kill a shard and fail its work over to the survivors.

        The shard's processes are SIGKILLed, its virtual nodes leave the
        ring (remapping only its keys), and its in-flight cases are
        re-admitted — durable ones resume from their journal on whatever
        shard the ring now routes them to.
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ValidationError(f"no shard with id {shard_id}")
        if not shard.up:
            return
        interrupted = shard.kill()
        if shard_id in self.ring:
            self.ring.remove(shard_id)
        self.metrics.counter("serving.shard_deaths").inc()
        self.metrics.counter(f"serving.deaths[shard={shard_id}]").inc()
        self.flight.note(
            "shard.death",
            shard=shard_id,
            cause=cause,
            interrupted=[r.case_id for r in interrupted],
        )
        self._dump_flight("shard death", shard=shard_id, cause=cause)
        self._trace().event(
            "serving.shard_death",
            shard=shard_id,
            cause=cause,
            interrupted=len(interrupted),
        )
        for request in interrupted:
            for member in request_members(request):
                self._inflight.pop(member.case_id, None)
                self.metrics.counter("serving.failover").inc()
                self._readmit(member, f"shard {shard_id} died ({cause})")

    # -- dispatch -------------------------------------------------------------

    def _dispatch_ready(self) -> None:
        skipped: set[str] = set()
        while len(self.queue) > len(skipped):
            now = time.monotonic()
            items = self.queue.items()
            candidates = [
                i
                for i, q in enumerate(items)
                if q.request.case_id not in skipped
                and self._not_before.get(q.request.case_id, 0.0) <= now
            ]
            if not candidates:
                return
            index = candidates[
                self.scheduler.next_index([items[i] for i in candidates])
            ]
            request = items[index].request
            key = request.preop_key()
            if not self.ring.shards:
                return
            shard = self.shards[self.ring.route(key)]
            idle = shard.pool.idle_workers()
            if not idle or self.scheduler.should_hold(
                idle, shard.pool.busy_workers(), key
            ):
                # The routed shard is saturated (or single-flighting this
                # patient's model build): the case waits for *its* shard —
                # jumping shards would forfeit the warm cache the ring
                # exists to protect.
                skipped.add(request.case_id)
                continue
            if self.coalescer.enabled:
                group = [
                    i for i in candidates if items[i].request.preop_key() == key
                ]
                self.coalescer.observe(key, now)
                if not self.coalescer.ready(key, len(group), now):
                    # Window still open: hold the same-patient cohort
                    # (all routed to this shard by the ring) so more
                    # members can join; other keys dispatch around it.
                    skipped.update(items[i].request.case_id for i in group)
                    continue
                self.coalescer.clear(key)
                if len(group) >= 2:
                    self._dispatch_batch(group, shard, idle, key)
                    continue
                # Window expired with one case: fall through to the
                # ordinary serial dispatch, bit-identically.
            queued = self.queue.pop(index)
            self._not_before.pop(request.case_id, None)
            handle = self.scheduler.pick_worker(idle, key)
            self._attempts[request.case_id] = (
                self._attempts.get(request.case_id, 0) + 1
            )
            self._building[request.case_id] = key not in self._known_keys
            self._known_keys.add(key)
            if self.telemetry:
                request.trace_context = TraceContext.from_tracer(
                    self._trace(),
                    parent_span_id=self._case_span_id(request.case_id),
                    process_label=_worker_label(shard, handle.worker_id),
                )
                request.flight_dir = self.flight_dir
            shard.pool.dispatch(handle, request)
            handle.busy_deadline = queued.deadline_monotonic
            self._inflight[request.case_id] = request
            self.dispatched_total += 1
            wait = queued.waited()
            self.metrics.histogram("serving.queue_wait_seconds").observe(wait)
            self.metrics.gauge("serving.queue_depth").set(len(self.queue))
            self.metrics.counter(f"serving.dispatch[shard={shard.shard_id}]").inc()
            if self.slo is not None:
                self.slo.observe("queue wait", wait, target=None)
            self.flight.note(
                "case.dispatch",
                case=request.case_id,
                shard=shard.shard_id,
                worker=handle.worker_id,
                waited=wait,
            )
            self._trace().event(
                "serving.dispatch",
                case=request.case_id,
                shard=shard.shard_id,
                worker=handle.worker_id,
                attempt=self._attempts[request.case_id],
                waited=wait,
            )

    def _dispatch_batch(self, indices: list[int], shard, idle: list, key: str) -> None:
        """Pop a same-patient cohort and dispatch it as one batch.

        Mirrors :meth:`SessionServer._dispatch_batch` on the routed
        shard: the first ``coalesce_max_batch`` cohort members (queue
        order) leave as a :class:`BatchRequest` onto one affine worker,
        each keeping its own trace context, attempt count, in-flight
        copy and deadline. One dispatch ordinal is consumed — an
        injected fault hits the whole worker trip, and failover then
        re-admits the members individually.
        """
        take = sorted(indices)[: self.coalescer.max_batch]
        queued_members = [self.queue.pop(i) for i in sorted(take, reverse=True)]
        queued_members.reverse()  # restore admission order
        handle = self.scheduler.pick_worker(idle, key)
        requests = []
        for queued in queued_members:
            request = queued.request
            self._not_before.pop(request.case_id, None)
            self._attempts[request.case_id] = (
                self._attempts.get(request.case_id, 0) + 1
            )
            self._building[request.case_id] = key not in self._known_keys
            self._known_keys.add(key)
            if self.telemetry:
                request.trace_context = TraceContext.from_tracer(
                    self._trace(),
                    parent_span_id=self._case_span_id(request.case_id),
                    process_label=_worker_label(shard, handle.worker_id),
                )
                request.flight_dir = self.flight_dir
            requests.append(request)
        deadlines = [q.deadline_monotonic for q in queued_members]
        batch = BatchRequest(members=requests, deadline_monotonics=deadlines)
        shard.pool.dispatch(handle, batch)
        handle.busy_deadline = (
            max(deadlines) if all(d is not None for d in deadlines) else None
        )
        for request in requests:
            self._inflight[request.case_id] = request
        self.dispatched_total += 1
        self.metrics.counter("serving.batches").inc()
        self.metrics.histogram("serving.batch_width").observe(float(len(requests)))
        self.metrics.gauge("serving.queue_depth").set(len(self.queue))
        self.metrics.counter(f"serving.dispatch[shard={shard.shard_id}]").inc(
            len(requests)
        )
        for queued, request in zip(queued_members, requests):
            wait = queued.waited()
            self.metrics.histogram("serving.queue_wait_seconds").observe(wait)
            if self.slo is not None:
                self.slo.observe("queue wait", wait, target=None)
            self.flight.note(
                "case.dispatch",
                case=request.case_id,
                shard=shard.shard_id,
                worker=handle.worker_id,
                waited=wait,
                batch=batch.batch_id,
            )
            self._trace().event(
                "serving.dispatch",
                case=request.case_id,
                shard=shard.shard_id,
                worker=handle.worker_id,
                attempt=self._attempts[request.case_id],
                waited=wait,
                batch=batch.batch_id,
            )

    # -- results --------------------------------------------------------------

    def _collect(self, poll_seconds: float) -> None:
        live = self.live_shards()
        for i, shard in enumerate(live):
            # Block only on the first shard: one bounded wait per tick,
            # the rest are drained non-blocking.
            timeout = poll_seconds if i == 0 else 0.0
            for result in shard.pool.poll_results(timeout=timeout):
                if self._drop_results.get(shard.shard_id, 0) > 0:
                    self._drop_results[shard.shard_id] -= 1
                    self._dropped_result(shard, result)
                    continue
                self._record(shard, result)

    def _dropped_result(self, shard: Shard, result: CaseResult) -> None:
        """An injected ``drop-result``: the reply vanished in transit.

        The worker finished (and is idle again) but the gateway never
        saw the result — a lost reply. The case re-admits with attempts
        accounting: a durable case replays its journal (committed scans
        bit-exact), a non-durable one re-serves from scratch, and budget
        exhaustion terminates it failed — a dropped reply can never hang
        the gateway.
        """
        self.metrics.counter("serving.dropped_results").inc()
        self.flight.note(
            "result.dropped", case=result.case_id, shard=shard.shard_id
        )
        self._trace().event(
            "serving.result_dropped", case=result.case_id, shard=shard.shard_id
        )
        request = self._inflight.pop(result.case_id, None)
        if request is None:
            # Nothing to replay (already resolved elsewhere): keep the
            # result rather than lose the case.
            self._record(shard, result)
            return
        self._readmit(
            request, f"result dropped in transit (shard {shard.shard_id})"
        )

    def _record(self, shard: Shard, result: CaseResult) -> None:
        result.attempts = self._attempts.get(result.case_id, 1)
        self._inflight.pop(result.case_id, None)
        self._building.pop(result.case_id, None)
        admitted = self._admitted_at.get(result.case_id)
        if admitted is not None:
            result.queue_seconds = max(
                0.0, time.monotonic() - admitted - result.service_seconds
            )
        self.results[result.case_id] = result
        m = self.metrics
        m.counter(f"serving.{result.status}").inc()
        m.counter(f"serving.served[shard={shard.shard_id}]").inc()
        m.histogram("serving.case_seconds").observe(result.service_seconds)
        m.counter("serving.scans").inc(
            len([s for s in result.scans if not s.restored])
        )
        if result.preop_cache_hit:
            m.counter("serving.preop_cache_hits").inc()
        elif result.preop_seconds > 0:
            self.estimator.observe_preop(result.preop_seconds)
        for outcome in result.scans:
            if not outcome.restored:
                self.estimator.observe_scan(outcome.seconds)
                m.histogram("serving.scan_seconds").observe(outcome.seconds)
        self._absorb_telemetry(result)
        self.flight.note(
            "case." + result.status,
            case=result.case_id,
            shard=shard.shard_id,
            worker=result.worker,
            scans=len(result.scans),
            seconds=result.service_seconds,
        )
        if result.status == STATUS_FAILED:
            self._dump_flight(
                "case failed", case=result.case_id, detail=result.detail
            )
        self._trace().event(
            "serving.case",
            case=result.case_id,
            status=result.status,
            shard=shard.shard_id,
            worker=result.worker,
            scans=len(result.scans),
            seconds=result.service_seconds,
        )

    def _absorb_telemetry(self, result: CaseResult) -> None:
        if not self.telemetry:
            return
        frame = result.telemetry
        span_attrs = {"status": result.status, "worker": result.worker}
        if frame is not None:
            grafted = graft_frame(
                self._trace(),
                frame,
                parent_span_id=self._case_span_id(result.case_id),
                metrics=self.metrics,
            )
            self.metrics.counter("telemetry.frames").inc()
            self.metrics.counter("telemetry.spans_grafted").inc(grafted)
            span_attrs["worker_spans"] = grafted
        else:
            self.metrics.counter("telemetry.frames_lost").inc()
            span_attrs["telemetry_lost"] = True
        self._close_case_span(result.case_id, **span_attrs)
        if self.slo is None:
            return
        self.slo.observe("case service", result.service_seconds, target=None)
        if frame is not None and frame.verdicts:
            for verdict in frame.verdicts:
                self.slo.observe_verdict(verdict)
        else:
            for outcome in result.scans:
                if not outcome.restored:
                    self.slo.observe(SCAN_TOTAL, outcome.seconds)

    # -- deadline / death / hang handling -------------------------------------

    def _evict_expired_queued(self) -> None:
        for queued in self.queue.evict_expired():
            request = queued.request
            self._not_before.pop(request.case_id, None)
            self.metrics.counter("serving.evicted").inc()
            self.metrics.gauge("serving.queue_depth").set(len(self.queue))
            self._close_case_span(
                request.case_id, status=STATUS_EVICTED, where="queued"
            )
            self.flight.note("case.evicted", case=request.case_id, where="queued")
            self._dump_flight(
                "deadline eviction", case=request.case_id, where="queued"
            )
            self._trace().event(
                "serving.evicted", case=request.case_id, where="queued"
            )
            self.results[request.case_id] = CaseResult(
                case_id=request.case_id,
                status=STATUS_EVICTED,
                detail=(
                    f"deadline {request.deadline_s:.1f} s expired after "
                    f"{queued.waited():.1f} s in queue"
                ),
                queue_seconds=queued.waited(),
                attempts=self._attempts.get(request.case_id, 0),
            )

    def _enforce_running_deadlines(self) -> None:
        now = time.monotonic()
        for shard in self.live_shards():
            for handle in list(shard.pool.busy_workers()):
                if handle.busy_deadline is None or now <= handle.busy_deadline:
                    continue
                request = shard.pool.terminate_worker(handle.worker_id)
                if request is None:
                    continue
                members = request_members(request)
                batch_id = (
                    request.case_id if isinstance(request, BatchRequest) else None
                )
                self._dump_flight(
                    "deadline eviction",
                    case=request.case_id,
                    where="running",
                    shard=shard.shard_id,
                )
                # The batch deadline is max(member deadlines), so when
                # it fires every member's own deadline has expired too.
                for member in members:
                    self._inflight.pop(member.case_id, None)
                    self.metrics.counter("serving.evicted").inc()
                    if self.telemetry:
                        self.metrics.counter("telemetry.frames_lost").inc()
                    self._close_case_span(
                        member.case_id,
                        status=STATUS_EVICTED,
                        where="running",
                        telemetry_lost=True,
                    )
                    self.flight.note(
                        "case.evicted",
                        case=member.case_id,
                        where="running",
                        shard=shard.shard_id,
                        worker=handle.worker_id,
                    )
                    self._trace().event(
                        "serving.evicted", case=member.case_id, where="running"
                    )
                    self.results[member.case_id] = CaseResult(
                        case_id=member.case_id,
                        status=STATUS_EVICTED,
                        detail=(
                            f"deadline {member.deadline_s:.1f} s expired "
                            "mid-service; worker terminated"
                        ),
                        worker=handle.worker_id,
                        attempts=self._attempts.get(member.case_id, 1),
                        checkpoint=member.checkpoint_dir,
                        flight_dump=self._worker_flight_dump(shard, handle.worker_id),
                        batch_id=batch_id,
                        batch_size=len(members),
                    )

    def _readmit(
        self,
        request: CaseRequest,
        cause: str,
        shard: Shard | None = None,
        worker_id: int | None = None,
    ) -> None:
        """Bounded re-admission with capped exponential backoff + jitter.

        ``shard``/``worker_id`` name the worker that lost the case (a
        death or a hang); a case failing here then carries that worker
        and its flight-recorder post-mortem.
        """
        self._building.pop(request.case_id, None)
        attempts = self._attempts.get(request.case_id, 1)
        if attempts >= self.max_attempts:
            self.metrics.counter("serving.failed").inc()
            if self.telemetry:
                self.metrics.counter("telemetry.frames_lost").inc()
            self._close_case_span(
                request.case_id, status=STATUS_FAILED, telemetry_lost=True
            )
            self.results[request.case_id] = CaseResult(
                case_id=request.case_id,
                status=STATUS_FAILED,
                detail=(
                    f"{cause}; re-admission budget exhausted "
                    f"({attempts} attempts)"
                ),
                worker=worker_id,
                attempts=attempts,
                checkpoint=request.checkpoint_dir,
                flight_dump=self._worker_flight_dump(shard, worker_id),
            )
            return
        delay = min(self.retry_cap_s, self.retry_base_s * 2.0 ** (attempts - 1))
        delay *= 1.0 + 0.25 * _retry_jitter(request.case_id, attempts)
        self._not_before[request.case_id] = time.monotonic() + delay
        self.metrics.counter("serving.readmitted").inc()
        self.queue.requeue_front(request)
        self.flight.note(
            "case.readmit",
            case=request.case_id,
            cause=cause,
            attempt=attempts + 1,
            delay=round(delay, 3),
        )
        self._trace().event(
            "serving.readmitted",
            case=request.case_id,
            cause=cause,
            attempt=attempts + 1,
            delay=delay,
        )

    def _handle_deaths(self) -> None:
        for shard in self.live_shards():
            for worker_id, request in shard.pool.reap():
                self.metrics.counter("serving.worker_deaths").inc()
                self.metrics.counter(f"serving.deaths[shard={shard.shard_id}]").inc()
                self.flight.note(
                    "worker.death",
                    shard=shard.shard_id,
                    worker=worker_id,
                    case=None if request is None else request.case_id,
                )
                self._dump_flight(
                    "worker death", shard=shard.shard_id, worker=worker_id
                )
                self._trace().event(
                    "serving.worker_death",
                    shard=shard.shard_id,
                    worker=worker_id,
                    case=None if request is None else request.case_id,
                )
                if request is None:
                    continue
                # Every member of a dispatched batch goes down with the
                # worker; each re-admits on its own attempt budget.
                for member in request_members(request):
                    self._inflight.pop(member.case_id, None)
                    span = self._case_spans.get(member.case_id)
                    if span is not None:
                        span.event(
                            "worker.death", shard=shard.shard_id, worker=worker_id
                        )
                    self._readmit(
                        member,
                        f"worker {worker_id} (shard {shard.shard_id}) died",
                        shard,
                        worker_id,
                    )

    def _hang_grace(self) -> float:
        """Heartbeat-silence threshold before a busy worker counts as hung.

        Workers beat between scans, so the longest legitimate silence is
        about one preop build plus one scan. Adaptive: three times that
        EWMA estimate, floored at 5 s (uncalibrated estimator) — long
        solves survive, wedged workers are caught within a few multiples
        of real service time.
        """
        if self.hang_timeout_s is not None:
            return self.hang_timeout_s
        est = self.estimator
        return max(5.0, 3.0 * (est.preop_seconds + est.scan_seconds))

    def _detect_hangs(self) -> None:
        grace = self._hang_grace()
        for shard in self.live_shards():
            for handle in shard.pool.stale_workers(grace):
                request = shard.pool.terminate_worker(handle.worker_id)
                self.metrics.counter("serving.hangs").inc()
                self.flight.note(
                    "worker.hang",
                    shard=shard.shard_id,
                    worker=handle.worker_id,
                    case=None if request is None else request.case_id,
                    grace=round(grace, 2),
                )
                self._dump_flight(
                    "worker hang", shard=shard.shard_id, worker=handle.worker_id
                )
                self._trace().event(
                    "serving.worker_hang",
                    shard=shard.shard_id,
                    worker=handle.worker_id,
                    grace=grace,
                )
                if request is None:
                    continue
                for member in request_members(request):
                    self._inflight.pop(member.case_id, None)
                    self._readmit(
                        member,
                        f"worker {handle.worker_id} (shard {shard.shard_id}) "
                        f"hung (silent > {grace:.1f} s)",
                        shard,
                        handle.worker_id,
                    )

    # -- health ---------------------------------------------------------------

    def health(self) -> dict:
        """Gateway-driven health snapshot for transport-level probes.

        Replaces the in-process heartbeat view with something a remote
        client can act on: **liveness** (the fleet can still take work)
        and **readiness** (it would serve a submission now), with every
        worker classified from its heartbeat age and dispatch state —

        * ``idle`` — alive, no case.
        * ``serving`` — busy, heartbeating within the hang grace.
        * ``building-preop`` — busy on a case whose patient model was
          unseen at dispatch: the long silence is the model build, not a
          wedge, and readiness stays true.
        * ``wedged`` — busy and heartbeat-silent past the hang grace;
          the next :meth:`tick` will terminate and re-admit it.
        """
        grace = self._hang_grace()
        now = time.monotonic()
        counts = {"idle": 0, "serving": 0, "building-preop": 0, "wedged": 0}
        shards = []
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            if not shard.up:
                shards.append({"shard": shard_id, "up": False, "workers": []})
                continue
            workers = []
            for handle in shard.pool.workers:
                age = now - shard.pool.heartbeats.get(handle.worker_id, now)
                if handle.idle:
                    state = "idle"
                elif age > grace:
                    state = "wedged"
                elif handle.busy is not None and any(
                    self._building.get(member.case_id, False)
                    for member in request_members(handle.busy)
                ):
                    state = "building-preop"
                else:
                    state = "serving"
                counts[state] += 1
                workers.append(
                    {
                        "worker": handle.worker_id,
                        "state": state,
                        "heartbeat_age_s": round(age, 3),
                        "case": None if handle.busy is None else handle.busy.case_id,
                    }
                )
            shards.append({"shard": shard_id, "up": True, "workers": workers})
        live = not self._closed and bool(self.live_shards())
        responsive = counts["idle"] + counts["serving"] + counts["building-preop"]
        if self._closed:
            reason = "shut down"
        elif not live:
            reason = "no live shards"
        elif responsive == 0:
            reason = "all workers wedged"
        elif self.queue.full:
            reason = "queue full"
        else:
            reason = "ok"
        return {
            "live": live,
            "ready": live and responsive > 0 and not self.queue.full,
            "reason": reason,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "inflight": len(self._inflight),
            "hang_grace_s": round(grace, 3),
            "workers": counts,
            "shards": shards,
        }

    # -- elasticity -----------------------------------------------------------

    def _routed_backlog(self) -> dict[int, int]:
        """Queued cases per shard under the current ring."""
        backlog = {shard_id: 0 for shard_id in self.shards}
        if not self.ring.shards:
            return backlog
        for queued in self.queue.items():
            backlog[self.ring.route(queued.request.preop_key())] += 1
        return backlog

    def _autoscale_tick(self) -> None:
        if self.autoscale is None:
            return
        now = time.monotonic()
        backlog = self._routed_backlog()
        for shard in self.live_shards():
            sid = shard.shard_id
            busy = len(shard.pool.busy_workers())
            routed = backlog.get(sid, 0)
            if busy or routed:
                self._idle_since.pop(sid, None)
            else:
                self._idle_since.setdefault(sid, now)
            if now - self._scaled_at.get(sid, 0.0) < self.autoscale.cooldown_s:
                continue
            n = shard.pool.n_workers + shard.pool.pending_respawns()
            action = self.autoscale.decide(
                n_workers=n,
                backlog_cases=routed,
                busy_workers=busy,
                idle_for_s=now - self._idle_since.get(sid, now),
            )
            if action == 0:
                continue
            if action > 0:
                handle = shard.pool.add_worker()
                self.metrics.counter("serving.scale_up").inc()
                event = {"worker": handle.worker_id, "direction": "up"}
            else:
                removed = shard.pool.remove_worker()
                if removed is None:
                    continue
                self.metrics.counter("serving.scale_down").inc()
                event = {"worker": removed, "direction": "down"}
            self._scaled_at[sid] = now
            self.metrics.gauge(f"serving.workers[shard={sid}]").set(
                shard.pool.n_workers
            )
            self.flight.note("shard.scale", shard=sid, **event)
            self._trace().event("serving.scale", shard=sid, **event)

    def _maintain(self) -> None:
        for shard in self.live_shards():
            shard.pool.maintain()
            seen = self._respawns_seen.get(shard.shard_id, 0)
            if shard.pool.respawns > seen:
                self.metrics.counter("serving.respawn").inc(
                    shard.pool.respawns - seen
                )
                self._respawns_seen[shard.shard_id] = shard.pool.respawns

    # -- drain / shutdown -----------------------------------------------------

    def drain(self, timeout: float = 60.0) -> dict[str, CaseResult]:
        """Gracefully stop every shard; every admitted case terminates.

        Mirrors :meth:`repro.serving.SessionServer.drain`, fleet-wide:
        queued cases evict, busy workers checkpoint and report
        ``drained``, stragglers that miss the timeout are terminated and
        surface as terminal evictions with their flight dumps.
        """
        for queued in self.queue.clear():
            request = queued.request
            self.metrics.counter("serving.evicted").inc()
            self._close_case_span(
                request.case_id, status=STATUS_EVICTED, where="drain"
            )
            self.results[request.case_id] = CaseResult(
                case_id=request.case_id,
                status=STATUS_EVICTED,
                detail="drained before dispatch",
                queue_seconds=queued.waited(),
            )
        deadline = time.monotonic() + timeout
        for shard in self.live_shards():
            remaining = max(0.1, deadline - time.monotonic())
            for result in shard.pool.drain(timeout=remaining):
                self._record(shard, result)
        for shard in self.live_shards():
            for handle in list(shard.pool.busy_workers()):
                request = handle.busy
                handle.busy = None
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
                for member in request_members(request):
                    self._inflight.pop(member.case_id, None)
                    self.metrics.counter("serving.evicted").inc()
                    if self.telemetry:
                        self.metrics.counter("telemetry.frames_lost").inc()
                    self._close_case_span(
                        member.case_id,
                        status=STATUS_EVICTED,
                        where="drain-timeout",
                        telemetry_lost=True,
                    )
                    self.flight.note(
                        "case.evicted",
                        case=member.case_id,
                        where="drain-timeout",
                        shard=shard.shard_id,
                    )
                    self.results[member.case_id] = CaseResult(
                        case_id=member.case_id,
                        status=STATUS_EVICTED,
                        detail=(
                            f"missed drain timeout ({timeout:.1f} s); "
                            f"worker {handle.worker_id} terminated"
                        ),
                        worker=handle.worker_id,
                        attempts=self._attempts.get(member.case_id, 1),
                        checkpoint=member.checkpoint_dir,
                        flight_dump=self._worker_flight_dump(shard, handle.worker_id),
                    )
        self.metrics.counter("serving.drains").inc()
        self._closed = True
        return self.results

    def shutdown(self) -> None:
        """Stop every shard immediately (no checkpointing)."""
        for case_id in list(self._case_spans):
            self._close_case_span(case_id, status="shutdown")
        for shard in self.shards.values():
            if shard.up:
                shard.pool.shutdown()
        self._closed = True

    # -- reporting ------------------------------------------------------------

    def summary_table(self) -> str:
        """Per-case summary plus the fleet footer and SLO table."""
        if not self.results:
            return "(no cases served)"
        rows = []
        for case_id in sorted(self.results):
            r = self.results[case_id]
            rows.append(
                [
                    case_id,
                    r.status,
                    "-" if r.worker is None else r.worker,
                    len(r.scans),
                    f"{r.queue_seconds:.2f}",
                    f"{r.service_seconds:.2f}",
                    r.attempts,
                    "hit" if r.preop_cache_hit else "miss",
                    r.detail,
                ]
            )
        table = format_table(
            [
                "case",
                "status",
                "worker",
                "scans",
                "queued (s)",
                "service (s)",
                "attempts",
                "preop",
                "detail",
            ],
            rows,
            title="Gateway serving summary",
        )
        served = sum(1 for r in self.results.values() if r.ok)
        deaths = sum(s.pool.deaths for s in self.shards.values())
        live = self.live_shards()
        table += (
            f"\n  served: {served}/{len(self.results)}"
            f" | shards: {len(live)}/{len(self.shards)} up"
            f" | workers: {sum(s.pool.n_workers for s in live)}"
            f" | worker deaths: {deaths}"
            f" | shard deaths: {int(self.metrics.value('serving.shard_deaths', 0))}"
            f" | shed: {int(self.metrics.value('serving.shed', 0))}"
        )
        throughput = self.metrics.value("serving.throughput_scans_per_s", 0.0)
        if throughput:
            table += f" | throughput: {throughput:.3f} scans/s"
        if self.slo is not None and self.slo.summary()["series"]:
            table += "\n\n" + self.slo.table()
        return table
