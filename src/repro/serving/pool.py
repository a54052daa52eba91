"""Process-pool of session workers: GIL-free concurrent surgical cases.

Each worker is a separate OS process hosting :class:`repro.core.SurgicalSession`
instances, so concurrent FEM solves run truly in parallel. A worker
keeps a **checksum-keyed preoperative-model cache**: cases whose
(preoperative volumes, config) BLAKE2b key matches a model already
prepared by that worker skip the whole preoperative rebuild —
localization models, meshing, assembly, Dirichlet elimination,
preconditioner factorization — and only reset the solve-context warm
memory so their results stay bit-identical to a from-scratch session
(:meth:`repro.fem.SolveContext.reset_warm_state`).

Reliability contract:

* **Durable cases** (``checkpoint_dir`` set) are journaled through
  :class:`repro.persist.SessionStore`; a worker death mid-case leaves
  the checkpoint resumable, and re-dispatching the same request makes
  the replacement worker *resume* it — committed scans come back from
  the journal (bit-exact, ``restored=True``), only the remainder is
  recomputed.
* **Graceful drain**: setting the pool's drain event makes busy workers
  finish their current scan, checkpoint the in-flight session (to the
  case's own checkpoint directory, or the pool's drain spool), and
  report a ``drained`` result before exiting.
* **Death detection** is the parent's job: :meth:`SessionWorkerPool.reap`
  finds exited workers, respawns their slot (fresh process, empty
  cache) and hands the interrupted request back to the caller for
  re-admission.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.serving.protocol import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_DRAINED,
    STATUS_EVICTED,
    STATUS_FAILED,
    BatchRequest,
    CaseRequest,
    CaseResult,
    outcome_from_result,
)
from repro.util import ValidationError


def _build_pipeline(config, telemetry=None):
    """A fresh pipeline for one case, wired to the case's telemetry.

    Without a telemetry harness the pipeline runs dark (no tracer, no
    budget monitor, no metrics) — the pre-telemetry behavior.
    """
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import IntraoperativePipeline

    kwargs = {}
    if telemetry is not None:
        kwargs = {
            "tracer": telemetry.tracer,
            "budget": telemetry.monitor,
            "metrics": telemetry.metrics,
        }
    return IntraoperativePipeline(
        config=config if config is not None else PipelineConfig(), **kwargs
    )


def _resume_case(
    request: CaseRequest, worker_id: int, telemetry=None
) -> tuple[object, list, float]:
    """Reopen a case's checkpoint; returns (session, outcomes, preop_s).

    The manifest is authoritative for the numeric configuration (the
    committed scans were produced under it); the request's fault plan
    and resilience policy — never serialized — are grafted back on, so
    journaled crash faults are marked fired instead of re-firing.
    """
    from repro.core.config import PipelineConfig
    from repro.core.session import SurgicalSession
    from repro.persist.checkpoint import config_from_manifest
    from repro.persist.store import SessionStore

    store = SessionStore.open(request.checkpoint_dir)
    config = config_from_manifest(store.manifest.get("config", {}))
    base = request.config if request.config is not None else PipelineConfig()
    config.fault_plan = base.fault_plan
    config.resilience = base.resilience
    t0 = time.perf_counter()
    session = SurgicalSession.resume(
        _build_pipeline(config, telemetry), request.checkpoint_dir
    )
    preop_seconds = time.perf_counter() - t0
    outcomes = [
        outcome_from_result(i, result) for i, result in enumerate(session.history)
    ]
    return session, outcomes, preop_seconds


def _apply_shed(request: CaseRequest) -> None:
    """Apply a gateway-stamped load-shed floor to the worker's config copy.

    Each dispatch pickles its own ``CaseRequest``, so mutating the config
    here cannot leak into other cases that shared the original config
    object in the submitting process. The memoized ``preop_key`` was
    computed at admission and travels through the pickle, so routing and
    cache keys are unaffected by the shed.
    """
    if request.shed_level is None:
        return
    from repro.core.config import PipelineConfig
    from repro.resilience.policy import DegradationLevel

    if request.config is None:
        request.config = PipelineConfig()
    policy = request.config.resilience
    policy.min_degradation = DegradationLevel(
        min(int(request.shed_level), int(policy.max_degradation))
    )


@dataclass
class _Member:
    """Worker-side bookkeeping for one case being served."""

    request: CaseRequest
    telemetry: object = None
    spool: Path | None = None
    session: object = None
    outcomes: list = field(default_factory=list)
    preop_seconds: float = 0.0
    cache_hit: bool = False
    #: Serial members never enter the joint solve: resumed cases (their
    #: own preop model), shed floors, fault plans, and members whose
    #: joint slot failed once (permanently demoted).
    serial: bool = False
    #: True when the member's session runs on the worker's *shared*
    #: cached preop model — its serial solves must save/restore the
    #: context's warm memory so member chains never cross.
    shares_context: bool = False
    x0: object = None
    warm_mem: object = None
    flight_dump: str | None = None
    result: CaseResult | None = None
    t_start: float = 0.0

    @property
    def remaining(self) -> int:
        return self.request.n_scans - self.session.n_scans

    @property
    def warm_start(self) -> bool:
        config = self.request.config
        return True if config is None else bool(config.warm_start)


def _serve_batch(
    requests: list[CaseRequest],
    batch_id: str | None,
    deadline_monotonics: list,
    preop_cache: dict,
    drain_event,
    drain_dir: str,
    worker_id: int,
    beat=None,
) -> list[CaseResult]:
    """Serve same-patient cases in lockstep scan rounds.

    When a request carries a trace context its case runs inside a
    :class:`repro.obs.telemetry.CaseTelemetry` harness: pipeline spans
    and metrics are collected locally and shipped back on the result as
    a telemetry frame, and the flight-recorder ring is persisted to the
    request's ``flight_dir`` after every scan — so a worker killed
    mid-case still leaves its last completed ring on disk.

    Each member resumes its checkpoint or begins a session on the
    worker's shared preop cache; then the members advance one scan per
    round, and every round with two or more joint members solves its
    FEM systems as ONE multi-RHS batch through
    :func:`repro.core.session.process_batch_round`.

    Members the joint path cannot honor run *serially inside the same
    rounds*: resumed cases (they rebuilt their own preoperative model),
    load-shed floors and fault plans (per-case degradation state), and
    any member whose joint slot raised (retried serially at full
    resilience, then kept serial). Serial members sharing the cached
    model save/restore the solve context's warm memory around each scan
    so every member keeps the exact warm-start chain of a lone serial
    run; joint members chain explicitly through
    :func:`repro.core.pipeline.batch_warm_vector`. A round with one
    live joint member runs it on the serial path — bit-identical to an
    uncoalesced dispatch.

    Failure, deadline and drain handling are all per member: one
    member's exception fails only that member; a member whose
    ``deadline_monotonics`` entry expires between rounds is evicted
    alone; a drain checkpoints every live member. Exactly one terminal
    :class:`CaseResult` per member comes back (stamped with
    ``batch_id``/``batch_size``), in member order.
    """
    from contextlib import nullcontext

    from repro.core.pipeline import batch_warm_vector
    from repro.core.session import SurgicalSession, process_batch_round
    from repro.obs.telemetry import CaseTelemetry

    members = [_Member(request=request) for request in requests]
    shared_context = None

    def finish(member: _Member, status: str, detail: str, checkpoint, **extra) -> None:
        result = CaseResult(
            case_id=member.request.case_id,
            status=status,
            detail=detail,
            worker=worker_id,
            scans=member.outcomes,
            service_seconds=time.perf_counter() - member.t_start,
            preop_cache_hit=member.cache_hit,
            preop_seconds=member.preop_seconds,
            checkpoint=checkpoint,
            batch_id=batch_id,
            batch_size=len(members),
            flight_dump=member.flight_dump,
            **extra,
        )
        if member.telemetry is not None:
            result.telemetry = member.telemetry.frame(
                error=detail if status == STATUS_FAILED else None
            )
        member.result = result

    def dump_flight(member: _Member, reason: str, **context) -> None:
        """Persist the member's flight ring (atomic; survives a later SIGKILL)."""
        if member.spool is None:
            return
        context = {"case_id": member.request.case_id, **context}
        member.telemetry.flight.dump(member.spool, reason, context=context)
        member.flight_dump = str(member.spool)

    def fail(member: _Member, exc: Exception) -> None:
        detail = f"{type(exc).__name__}: {exc}"
        if member.telemetry is not None:
            member.telemetry.flight.note(
                "case.fault", case_id=member.request.case_id, error=detail
            )
        dump_flight(member, "fault", error=detail)
        finish(
            member,
            STATUS_FAILED,
            detail,
            member.request.checkpoint_dir,
            error_traceback=traceback.format_exc(limit=8),
        )

    # -- per-member setup ----------------------------------------------------
    for member in members:
        request = member.request
        member.t_start = time.perf_counter()
        try:
            _apply_shed(request)
            if request.trace_context is not None:
                member.telemetry = CaseTelemetry(request.trace_context, worker=worker_id)
            if request.flight_dir is not None and member.telemetry is not None:
                # Named by the lane label stamped at dispatch, unique per
                # (shard, worker): pools sharing one flight_dir never
                # overwrite each other's post-mortems.
                member.spool = Path(request.flight_dir) / f"{member.telemetry.label}.json"
            with member.telemetry or nullcontext():
                if member.telemetry is not None:
                    member.telemetry.flight.note(
                        "case.start",
                        case_id=request.case_id,
                        worker=worker_id,
                        n_scans=request.n_scans,
                        batch=batch_id,
                    )
                checkpoint = request.checkpoint_dir
                resuming = (
                    checkpoint is not None
                    and (Path(checkpoint) / "MANIFEST.json").is_file()
                )
                if resuming:
                    # A resumed session rebuilds its own preop model, so
                    # it cannot join the shared-context solve.
                    member.session, member.outcomes, member.preop_seconds = (
                        _resume_case(request, worker_id, member.telemetry)
                    )
                    member.serial = True
                    if member.telemetry is not None:
                        member.telemetry.flight.note(
                            "case.resume",
                            case_id=request.case_id,
                            restored_scans=len(member.outcomes),
                        )
                    continue
                key = request.preop_key()
                preop = preop_cache.get(key)
                member.cache_hit = preop is not None
                pipeline = _build_pipeline(request.config, member.telemetry)
                if member.cache_hit and preop.solve_context is not None:
                    # Case isolation: the cached build is patient state,
                    # the warm memory is case state. Reset makes reuse
                    # numerically invisible (bit-identical to a cold
                    # build); afterwards every member owns its chain
                    # explicitly (x0 / warm_mem).
                    preop.solve_context.reset_warm_state()
                if not member.cache_hit:
                    t0 = time.perf_counter()
                    preop = pipeline.prepare_preoperative(
                        request.preop_mri, request.preop_labels
                    )
                    member.preop_seconds = time.perf_counter() - t0
                    preop_cache[key] = preop
                member.session = SurgicalSession.begin(
                    pipeline,
                    request.preop_mri,
                    request.preop_labels,
                    checkpoint_dir=checkpoint,
                    app={"case_id": request.case_id},
                    preop=preop,
                )
                member.shares_context = True
                shared_context = preop.solve_context
                config = request.config
                if request.shed_level or (
                    config is not None and config.fault_plan is not None
                ):
                    # Per-case degradation state the joint path cannot
                    # honor — serve serially within the rounds.
                    member.serial = True
        except Exception as exc:  # noqa: BLE001 - member isolation boundary
            fail(member, exc)

    def serial_scan(member: _Member) -> None:
        """One member's scan on the serial path, warm chain isolated."""
        scan = member.session.n_scans
        context = shared_context if member.shares_context else None
        with member.telemetry or nullcontext():
            if context is not None:
                context.last_solution = member.warm_mem
            try:
                result = member.session.process(member.request.scans[scan])
                member.outcomes.append(outcome_from_result(scan, result))
                dump_flight(member, "scan", scan=scan)
            except Exception as exc:  # noqa: BLE001 - member isolation boundary
                fail(member, exc)
            finally:
                if context is not None:
                    member.warm_mem = context.last_solution
                    context.last_solution = None

    # -- lockstep scan rounds ------------------------------------------------
    def live() -> list[_Member]:
        return [m for m in members if m.result is None]

    while any(m.remaining > 0 for m in live()):
        if beat is not None:
            # Liveness beat between scans: a wedged worker stops
            # beating, which is how the parent tells "long solve" from
            # "hung" without killing legitimate work.
            beat()
        if drain_event.is_set():
            for member in live():
                try:
                    with member.telemetry or nullcontext():
                        root = member.session.checkpoint(
                            None
                            if member.session.store is not None
                            else str(Path(drain_dir) / member.request.case_id)
                        )
                except Exception as exc:  # noqa: BLE001 - member isolation boundary
                    fail(member, exc)
                    continue
                scan = member.session.n_scans
                dump_flight(member, "drain", scan=scan)
                finish(
                    member,
                    STATUS_DRAINED,
                    f"drained after scan {scan - 1} -> {root}",
                    str(root),
                )
            break
        # Member deadline eviction between rounds: only the expired
        # member leaves; the rest of the batch keeps solving.
        now = time.monotonic()
        for member, deadline in zip(members, deadline_monotonics):
            if member.result is not None or deadline is None or now <= deadline:
                continue
            scan = member.session.n_scans
            dump_flight(member, "deadline eviction", scan=scan)
            finish(
                member,
                STATUS_EVICTED,
                f"deadline {member.request.deadline_s:.1f} s expired "
                f"mid-batch after scan {scan - 1}",
                member.request.checkpoint_dir,
            )
        joint = [m for m in live() if not m.serial and m.remaining > 0]
        if len(joint) >= 2:
            lead = joint[0]
            entries = [
                (m.session, m.request.scans[m.session.n_scans]) for m in joint
            ]
            scans = [m.session.n_scans for m in joint]
            try:
                with lead.telemetry or nullcontext():
                    round_results = process_batch_round(
                        entries,
                        x0s=[m.x0 if m.warm_start else None for m in joint],
                    )
            except Exception as exc:  # noqa: BLE001 - whole-round failure
                round_results = [exc] * len(joint)
            for member, scan, result in zip(joint, scans, round_results):
                if isinstance(result, Exception):
                    # Demote and retry serially at full resilience; one
                    # failing member never degrades the others.
                    member.serial = True
                    if member.telemetry is not None:
                        member.telemetry.flight.note(
                            "batch.member_demoted",
                            case_id=member.request.case_id,
                            scan=scan,
                            error=f"{type(result).__name__}: {result}",
                        )
                    serial_scan(member)
                    continue
                member.outcomes.append(outcome_from_result(scan, result))
                member.x0 = batch_warm_vector(result)
                dump_flight(member, "scan", scan=scan)
        elif joint:
            # One joint member left: the serial path, bit-identical to
            # an uncoalesced dispatch (its explicit chain carries on).
            lone = joint[0]
            if lone.warm_start:
                lone.warm_mem = lone.x0
            serial_scan(lone)
            if lone.result is None:
                lone.x0 = lone.warm_mem if lone.warm_start else None
        for member in live():
            if member.serial and member.remaining > 0 and member not in joint:
                serial_scan(member)

    # -- terminal results ----------------------------------------------------
    for member in live():
        # Healthy scans still carry the "full-fem" label; only deeper
        # rungs count as degraded.
        degraded = sorted(
            {
                o.degradation
                for o in member.outcomes
                if o.degradation not in (None, "full-fem")
            }
        )
        finish(
            member,
            STATUS_DEGRADED if degraded else STATUS_COMPLETED,
            "ok" if not degraded else "degraded: " + ", ".join(degraded),
            member.request.checkpoint_dir,
        )
    return [member.result for member in members]


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    drain_event,
    drain_dir,
    heartbeat_s: float = 0.5,
):
    """Worker process entry point: serve cases until told to stop.

    Idle workers emit a heartbeat on the result queue every
    ``heartbeat_s``; busy workers beat between scans (see
    :func:`_serve_batch`), so a stalled heartbeat on a busy worker means
    wedged, not working. Two injectable degradations support chaos
    drills: ``("hang",)`` wedges the worker (alive, silent, never
    returns), ``("slow", seconds)`` adds per-case latency.
    """
    # A terminal Ctrl-C signals the whole foreground process group;
    # drain is the parent's job, so workers ignore SIGINT and wait for
    # the explicit "stop" message (SIGKILL-based chaos is unaffected).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    preop_cache: dict = {}
    slow_s = 0.0

    def beat() -> None:
        result_queue.put(("heartbeat", worker_id, time.time()))

    while True:
        try:
            message = task_queue.get(timeout=heartbeat_s)
        except queue_module.Empty:
            beat()
            continue
        kind = message[0]
        if kind == "stop":
            return
        if kind == "hang":
            # Injected fault: the worker stays alive but goes silent —
            # only detectable by heartbeat timeout, never by reap.
            while True:
                time.sleep(3600.0)
        if kind == "slow":
            slow_s = float(message[1])
            continue
        if kind == "case":
            if slow_s > 0.0:
                time.sleep(slow_s)
            beat()
            request = message[1]
            if isinstance(request, BatchRequest):
                members = request.members
                batch_id, deadlines = request.batch_id, request.deadline_monotonics
            else:
                # A lone case: no batch id and no worker-side deadline
                # (the parent evicts it by terminating the worker).
                members, batch_id, deadlines = [request], None, [None]
            results = _serve_batch(
                members,
                batch_id,
                deadlines,
                preop_cache,
                drain_event,
                drain_dir,
                worker_id,
                beat=beat,
            )
            # One message per dispatch: the parent frees the worker on
            # the first non-heartbeat message it sees, so batch members'
            # results must travel together.
            result_queue.put(("results", worker_id, results))


def _retire(handle: WorkerHandle) -> None:
    """Release an exited worker's task queue so its feeder thread ends.

    A worker that died or was wedged never read what was sent to it; a
    request too large for the pipe then blocks the queue's feeder thread
    for good, so the parent reads the leftovers before closing. Safe to
    call twice (a closed queue refuses the read).
    """
    try:
        while True:
            handle.task_queue.get_nowait()
    except (queue_module.Empty, ValueError):
        pass
    handle.task_queue.close()


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: object = field(repr=False)
    task_queue: object = field(repr=False)
    busy: CaseRequest | None = None
    busy_since: float | None = None
    busy_deadline: float | None = None
    dispatched: int = 0
    cached_keys: set = field(default_factory=set)

    @property
    def idle(self) -> bool:
        return self.busy is None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class SessionWorkerPool:
    """A fixed-size pool of session worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count (each a separate interpreter — solves run
        GIL-free).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (instant worker spawn, inherits the parent's imports) and falls
        back to the platform default elsewhere.
    drain_dir:
        Spool directory where drained non-durable cases are
        checkpointed; a temp directory is created when omitted.
    """

    #: Extra respawn-backoff fraction randomized (deterministically) per
    #: slot, so a correlated crash of several workers does not respawn
    #: them in lockstep.
    RESPAWN_JITTER = 0.25

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        drain_dir: str | None = None,
        heartbeat_s: float = 0.5,
        respawn_base_s: float = 0.5,
        respawn_cap_s: float = 8.0,
    ):
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.drain_dir = (
            drain_dir
            if drain_dir is not None
            else tempfile.mkdtemp(prefix="repro-serving-drain-")
        )
        self.heartbeat_s = float(heartbeat_s)
        self.respawn_base_s = float(respawn_base_s)
        self.respawn_cap_s = float(respawn_cap_s)
        self.result_queue = self._ctx.Queue()
        self.drain_event = self._ctx.Event()
        self.workers: list[WorkerHandle] = []
        #: worker_id -> parent-clock time of the last heartbeat or result.
        self.heartbeats: dict[int, float] = {}
        self.deaths = 0
        self.respawns = 0
        self.dead = False
        self._next_id = n_workers
        self._crash_counts: dict[int, int] = {}
        self._respawn_due: dict[int, float] = {}
        for worker_id in range(n_workers):
            self.workers.append(self._spawn(worker_id))

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, worker_id: int) -> WorkerHandle:
        task_queue = self._ctx.Queue()
        # Never join this queue's feeder thread at interpreter exit: a
        # worker killed or wedged mid-case (chaos drills, deadline
        # termination) leaves the pipe holding an unconsumed request, and
        # the default exit-time join would deadlock the parent forever.
        task_queue.cancel_join_thread()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_queue,
                self.result_queue,
                self.drain_event,
                self.drain_dir,
                self.heartbeat_s,
            ),
            daemon=True,
            name=f"repro-serving-worker-{worker_id}",
        )
        process.start()
        self.heartbeats[worker_id] = time.monotonic()
        return WorkerHandle(worker_id=worker_id, process=process, task_queue=task_queue)

    def _handle(self, worker_id: int) -> WorkerHandle | None:
        for handle in self.workers:
            if handle.worker_id == worker_id:
                return handle
        return None

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def idle_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.idle and w.alive]

    def busy_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if not w.idle]

    # -- elasticity -----------------------------------------------------------

    def add_worker(self) -> WorkerHandle:
        """Grow the pool by one fresh worker (autoscale-up)."""
        worker_id = self._next_id
        self._next_id += 1
        handle = self._spawn(worker_id)
        self.workers.append(handle)
        return handle

    def remove_worker(self) -> int | None:
        """Retire one idle worker (autoscale-down); returns its id.

        Busy workers are never retired — shrink waits for idleness. When
        no worker is idle, returns ``None`` and removes nothing.
        """
        for handle in reversed(self.workers):
            if handle.idle and handle.alive:
                handle.task_queue.put(("stop",))
                self.workers.remove(handle)
                self.heartbeats.pop(handle.worker_id, None)
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
                _retire(handle)
                return handle.worker_id
        return None

    # -- dispatch ------------------------------------------------------------

    def dispatch(
        self, handle: WorkerHandle, request: CaseRequest | BatchRequest
    ) -> None:
        """Hand a case — or a coalesced batch of cases — to an idle worker."""
        if not handle.idle:
            raise ValidationError(
                f"worker {handle.worker_id} is already serving "
                f"{handle.busy.case_id!r}"
            )
        handle.busy = request
        handle.busy_since = time.monotonic()
        handle.busy_deadline = None
        handle.dispatched += 1
        handle.cached_keys.add(request.preop_key())
        self.heartbeats[handle.worker_id] = time.monotonic()
        handle.task_queue.put(("case", request))

    def poll_results(self, timeout: float = 0.05) -> list[CaseResult]:
        """Collect every finished case currently in the result queue.

        Blocks up to ``timeout`` seconds for the first message, then
        drains without blocking. Marks the producing workers idle,
        absorbs heartbeat messages into :attr:`heartbeats`, and resets
        the producer's crash count (a worker that delivers results is
        not crash-looping).
        """
        results = []
        block = timeout > 0
        while True:
            try:
                message = self.result_queue.get(
                    block=block, timeout=timeout if block else None
                )
            except queue_module.Empty:
                break
            block = False
            tag, worker_id = message[0], message[1]
            self.heartbeats[worker_id] = time.monotonic()
            if tag == "heartbeat":
                continue
            handle = self._handle(worker_id)
            if handle is not None:
                handle.busy = None
                handle.busy_since = None
                handle.busy_deadline = None
            self._crash_counts.pop(worker_id, None)
            results.extend(message[2])
        return results

    # -- failure handling ----------------------------------------------------

    def _backoff_delay(self, worker_id: int, crashes: int) -> float:
        """Respawn delay for the ``crashes``-th consecutive crash (>= 2)."""
        delay = min(self.respawn_cap_s, self.respawn_base_s * 2.0 ** (crashes - 2))
        # Deterministic jitter: cheap hash of (slot, crash ordinal), no
        # RNG state to carry — the same drill always schedules the same
        # respawn times.
        frac = ((worker_id * 2654435761 + crashes * 40503) % 997) / 997.0
        return delay * (1.0 + self.RESPAWN_JITTER * frac)

    def reap(self) -> list[tuple[int, CaseRequest | None]]:
        """Find dead workers, return interrupted work, schedule respawns.

        Call after :meth:`poll_results` (a worker that delivered its
        result and then died loses nothing). Each entry is
        ``(worker_id, request)`` where ``request`` is the case the
        worker died serving (``None`` for an idle death).

        The first crash of a slot respawns immediately (fast recovery for
        the common isolated death); consecutive crashes of the same slot
        back off exponentially with jitter, capped at ``respawn_cap_s``,
        so a crash-looping worker cannot spin the control loop. Deferred
        respawns happen in :meth:`maintain`. Respawned workers start with
        an empty preop cache.
        """
        interrupted = []
        now = time.monotonic()
        for handle in list(self.workers):
            if handle.alive:
                continue
            self.deaths += 1
            interrupted.append((handle.worker_id, handle.busy))
            handle.process.join(timeout=1.0)
            _retire(handle)
            self.workers.remove(handle)
            self.heartbeats.pop(handle.worker_id, None)
            crashes = self._crash_counts.get(handle.worker_id, 0) + 1
            self._crash_counts[handle.worker_id] = crashes
            if crashes <= 1:
                self.workers.append(self._spawn(handle.worker_id))
                self.respawns += 1
            else:
                self._respawn_due[handle.worker_id] = now + self._backoff_delay(
                    handle.worker_id, crashes
                )
        return interrupted

    def maintain(self) -> list[int]:
        """Respawn backed-off slots whose delay has elapsed.

        Returns the respawned worker ids; call once per control-loop
        tick.
        """
        now = time.monotonic()
        respawned = []
        for worker_id, due in sorted(self._respawn_due.items()):
            if now < due:
                continue
            del self._respawn_due[worker_id]
            self.workers.append(self._spawn(worker_id))
            self.respawns += 1
            respawned.append(worker_id)
        return respawned

    def pending_respawns(self) -> int:
        """Dead slots still waiting out their respawn backoff."""
        return len(self._respawn_due)

    def stale_workers(self, timeout_s: float) -> list[WorkerHandle]:
        """Busy, alive workers silent for longer than ``timeout_s``.

        Workers beat between scans and while idle; a busy worker that
        stopped beating past any plausible scan time is wedged (e.g. an
        injected ``hang-worker`` fault), not slow.
        """
        now = time.monotonic()
        return [
            w
            for w in self.workers
            if not w.idle
            and w.alive
            and now - self.heartbeats.get(w.worker_id, now) > timeout_s
        ]

    def terminate_worker(self, worker_id: int) -> CaseRequest | None:
        """Forcibly kill one worker (deadline enforcement); respawn its slot.

        Returns the case it was serving, if any. The caller decides what
        to record (the server marks it evicted, not re-admitted).
        """
        handle = self._handle(worker_id)
        if handle is None:
            raise ValidationError(f"no worker with id {worker_id}")
        request = handle.busy
        if handle.alive:
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        _retire(handle)
        self.workers.remove(handle)
        self.workers.append(self._spawn(worker_id))
        self.respawns += 1
        return request

    # -- chaos injection ------------------------------------------------------

    def inject_hang(self, worker_id: int | None = None) -> int | None:
        """Wedge one worker (``hang-worker`` drill): alive but silent.

        Targets ``worker_id``, else the first idle worker, else the
        first worker outright; the wedge takes effect when the worker
        next reads its task queue (for a busy worker: right before its
        *next* case, which then never returns). Returns the wedged
        worker's id, or ``None`` if no worker qualified.
        """
        if worker_id is None:
            if not self.workers:
                return None
            idle = self.idle_workers()
            handle = idle[0] if idle else self.workers[0]
        else:
            handle = self._handle(worker_id)
            if handle is None:
                return None
        handle.task_queue.put(("hang",))
        return handle.worker_id

    def inject_slow(self, delay_s: float) -> None:
        """Add per-case latency to every worker (``slow-shard`` drill)."""
        for handle in self.workers:
            handle.task_queue.put(("slow", float(delay_s)))

    def kill(self) -> list[CaseRequest]:
        """Kill the whole pool abruptly (shard-death drill).

        SIGKILLs every worker — no drain, no checkpointing beyond what
        the durable layer already journaled — and marks the pool
        :attr:`dead`. Returns the requests that were in flight so a
        gateway can re-admit them elsewhere. A dead pool never respawns.
        """
        interrupted = [w.busy for w in self.workers if w.busy is not None]
        for handle in self.workers:
            if handle.alive:
                handle.process.kill()
        for handle in self.workers:
            handle.process.join(timeout=2.0)
            _retire(handle)
        self.workers = []
        self.heartbeats.clear()
        self._respawn_due.clear()
        self.dead = True
        return interrupted

    # -- drain / shutdown ----------------------------------------------------

    def drain(self, timeout: float = 60.0) -> list[CaseResult]:
        """Graceful stop: checkpoint in-flight cases, collect their results.

        Sets the drain event (busy workers finish the current scan,
        checkpoint, report ``drained``), sends every worker its stop
        sentinel, and gathers the final results until all workers exit
        or ``timeout`` elapses.
        """
        self.drain_event.set()
        for handle in self.workers:
            handle.task_queue.put(("stop",))
        results = []
        deadline = time.monotonic() + timeout
        # Only live busy workers can still deliver; a dead or wedged one
        # never will, and waiting on it would burn the whole timeout.
        while (
            any(not w.idle and w.alive for w in self.workers)
            and time.monotonic() < deadline
        ):
            results.extend(self.poll_results(timeout=0.1))
        for handle in self.workers:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if not handle.alive:
                _retire(handle)
        return results

    def shutdown(self) -> None:
        """Stop all workers immediately (no checkpointing)."""
        for handle in self.workers:
            if handle.alive:
                handle.task_queue.put(("stop",))
        for handle in self.workers:
            handle.process.join(timeout=2.0)
            if handle.alive:
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            _retire(handle)
