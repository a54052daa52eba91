"""Surgical session orchestration across multiple intraoperative scans.

The paper's clinical workflow acquires several volumetric scans over a
procedure, re-running the registration for each. :class:`SurgicalSession`
owns the state that persists between scans: the preoperative model
(built once, before surgery) and the prototype voxels (selected on the
first scan, automatically re-used afterwards — "the spatial location of
the prototype voxels is recorded and is used to update the statistical
model automatically when further intraoperative images are acquired").

Sessions can be made **durable** by attaching a checkpoint directory
(``checkpoint_dir=`` on :meth:`SurgicalSession.begin`, or a post-hoc
:meth:`SurgicalSession.checkpoint`). Every scan is then journaled
write-ahead and committed atomically through
:class:`repro.persist.SessionStore`; after a crash,
:meth:`SurgicalSession.resume` reopens the directory, rebuilds the
preoperative model deterministically, restores the prototype set and
the solve-context warm state (so the first resumed scan still takes the
cache-hit + warm-start fast path), and reconstructs the committed
history — including the ``previous`` result the degradation ladder and
warm-start chain need. :func:`repro.persist.replay_session` verifies a
checkpoint end-to-end by re-running it and demanding bit-exact
displacement fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import (
    BatchScanItem,
    IntraoperativePipeline,
    IntraoperativeResult,
    PreoperativeModel,
)
from repro.imaging.volume import ImageVolume
from repro.obs.flight import get_flight_recorder
from repro.persist.store import SessionStore
from repro.segmentation.prototypes import PrototypeSet
from repro.util import ValidationError, format_table


@dataclass
class SurgicalSession:
    """Stateful multi-scan session around one pipeline + preop model.

    Attributes
    ----------
    pipeline:
        The configured pipeline.
    preop:
        The preoperative model (mesh, localization, surface).
    history:
        Results of every processed scan, in order. After
        :meth:`resume`, entries recovered from the checkpoint have
        ``restored=True``.
    store:
        The attached :class:`repro.persist.SessionStore`, or ``None``
        for an in-memory (non-durable) session.
    """

    pipeline: IntraoperativePipeline
    preop: PreoperativeModel
    history: list[IntraoperativeResult] = field(default_factory=list)
    store: SessionStore | None = field(default=None, repr=False)
    _prototypes: PrototypeSet | None = field(default=None, repr=False)

    @classmethod
    def begin(
        cls,
        pipeline: IntraoperativePipeline,
        preop_mri: ImageVolume,
        preop_labels: ImageVolume,
        checkpoint_dir=None,
        app: dict | None = None,
        preop: PreoperativeModel | None = None,
    ) -> "SurgicalSession":
        """Prepare the preoperative model and open the session.

        With ``checkpoint_dir``, the session is durable from the first
        scan: the preoperative volumes and config land in a fresh
        checkpoint directory (refusing to clobber an existing one) and
        every processed scan is journaled and committed atomically.
        ``app`` is free-form application metadata (e.g. CLI arguments)
        stored in the manifest so a resume can regenerate its inputs.

        ``preop`` skips the (expensive) preoperative preparation by
        adopting an already-built model — the serving layer's per-patient
        cache. The caller guarantees it was prepared from exactly
        ``preop_mri``/``preop_labels`` under this pipeline's config, and
        should reset its solve-context warm memory
        (:meth:`repro.fem.SolveContext.reset_warm_state`) when the model
        was used by a previous case.
        """
        if preop is None:
            preop = pipeline.prepare_preoperative(preop_mri, preop_labels)
        store = None
        if checkpoint_dir is not None:
            store = SessionStore.create(
                checkpoint_dir,
                pipeline.config,
                preop_mri,
                preop_labels,
                app=app,
                tracer=pipeline.tracer,
                metrics=pipeline.metrics,
            )
        return cls(pipeline=pipeline, preop=preop, store=store)

    @classmethod
    def resume(
        cls,
        pipeline: IntraoperativePipeline,
        checkpoint_dir,
        rehydrate: str = "latest",
    ) -> "SurgicalSession":
        """Recover a session from its checkpoint directory.

        The preoperative model is rebuilt deterministically from the
        checkpointed volumes (the heavyweight FEM state is recomputed,
        not deserialized), then the stored warm state is grafted onto it
        when the context fingerprint still matches — so the next
        :meth:`process` call takes the same cache-hit + warm-start fast
        path an uninterrupted session would. Committed scans come back
        as ``restored=True`` history entries; interrupted scans (begun
        but never committed) are simply re-processed when their input is
        re-submitted. Journaled ``crash-after`` faults are marked fired
        on the pipeline's fault plan so they do not kill the process a
        second time.

        ``pipeline`` should be configured compatibly with the
        checkpoint — build its config with
        :func:`repro.persist.config_from_manifest` (the CLI does) to
        guarantee it. Raises :class:`~repro.util.ValidationError` when
        ``checkpoint_dir`` is missing, empty, or corrupted.
        """
        store = SessionStore.open(
            checkpoint_dir, tracer=pipeline.tracer, metrics=pipeline.metrics
        )
        preop_mri, preop_labels = store.load_preop()
        preop = pipeline.prepare_preoperative(preop_mri, preop_labels)
        if preop.solve_context is not None:
            store.restore_context(preop.solve_context)
        history = store.load_history(preop, rehydrate=rehydrate)
        store.attach_plan(pipeline.config.fault_plan)
        return cls(
            pipeline=pipeline,
            preop=preop,
            history=history,
            store=store,
            _prototypes=store.load_prototypes(),
        )

    @property
    def n_scans(self) -> int:
        return len(self.history)

    def process(
        self,
        intraop_mri: ImageVolume,
        reference_labels: ImageVolume | None = None,
    ) -> IntraoperativeResult:
        """Register the preoperative model onto a new intraoperative scan.

        The first scan selects prototypes (simulating the clinician's
        interaction, optionally against ``reference_labels``); later
        scans re-use the recorded prototype locations automatically.

        Each scan is wrapped in a ``scan`` trace span (index attribute)
        so traced sessions nest scan → stage → solver internals.

        Durable sessions additionally journal the input write-ahead
        before processing and commit the result atomically after — a
        crash at any point leaves the checkpoint resumable at the last
        committed scan.
        """
        item = self._begin_scan(intraop_mri, reference_labels)
        with self.pipeline._tracer().span("scan", kind="session", index=item.scan_index):
            result = self.pipeline.process_scan(
                item.intraop_mri,
                self.preop,
                prototypes=item.prototypes,
                reference_labels=item.reference_labels,
                scan_index=item.scan_index,
                previous=item.previous,
            )
        self._finish_scan(item.scan_index, result)
        return result

    def _begin_scan(
        self, intraop_mri: ImageVolume, reference_labels: ImageVolume | None = None
    ) -> BatchScanItem:
        """Journal the next scan's input write-ahead; returns its pipeline inputs."""
        scan = self.n_scans
        if self.store is not None:
            self.store.journal_begin(scan, intraop_mri)
        return BatchScanItem(
            intraop_mri=intraop_mri,
            prototypes=self._prototypes,
            reference_labels=reference_labels,
            scan_index=scan,
            previous=self.history[-1] if self.history else None,
        )

    def _finish_scan(self, scan: int, result: IntraoperativeResult) -> None:
        """Adopt a processed scan into the session and commit it atomically."""
        # Scan isolation: a degraded scan must not poison the session's
        # cross-scan state. Prototypes are only carried forward from
        # scans whose image stages actually ran (``result.prototypes``
        # is None when classification never completed).
        if result.prototypes is not None:
            self._prototypes = result.prototypes
        self.history.append(result)
        _note_scan_complete(result, scan)
        if self.store is not None:
            self.store.crash_point(scan, "solve")
            self.store.commit_scan(
                scan,
                result,
                prototypes=self._prototypes,
                context=self.preop.solve_context,
            )
            self.store.crash_point(scan, "commit")

    def checkpoint(self, checkpoint_dir=None):
        """Persist the session's current state; returns the store's root.

        For a session begun without a checkpoint directory, pass one
        here to create the store post-hoc: every already-processed scan
        is committed from its in-memory result. Post-hoc commits carry
        no journaled input volume (the scans were never written ahead),
        so they can be resumed and summarized but not replay-verified.

        For an already-durable session this re-commits anything
        uncommitted and refreshes the solve-context snapshot + manifest
        — cheap, and idempotent.
        """
        if self.store is None:
            if checkpoint_dir is None:
                raise ValidationError(
                    "session has no checkpoint directory; pass checkpoint_dir="
                )
            self.store = SessionStore.create(
                checkpoint_dir,
                self.pipeline.config,
                self.preop.mri,
                self.preop.labels,
                tracer=self.pipeline.tracer,
                metrics=self.pipeline.metrics,
            )
        committed = {record.scan for record in self.store.committed()}
        for scan, result in enumerate(self.history):
            if scan in committed:
                continue
            self.store.journal_begin(scan, None)
            self.store.commit_scan(
                scan,
                result,
                prototypes=self._prototypes,
                context=self.preop.solve_context,
            )
        self.store.sync_manifest()
        return self.store.root

    def invalidate_solve_context(self) -> None:
        """Drop the cached FEM state (e.g. after an intraoperative mesh edit).

        The next :meth:`process` call rebuilds the assembly/elimination/
        preconditioner state from scratch and repopulates the cache.
        """
        self.preop.invalidate_solve_context()

    def latest(self) -> IntraoperativeResult:
        if not self.history:
            raise ValidationError("no scans processed yet")
        return self.history[-1]

    def summary_table(self) -> str:
        """Per-scan summary of processing time, match quality and budget.

        When the pipeline ran with a :class:`repro.obs.BudgetMonitor`,
        the ``budget`` column records each scan's verdict (``ok`` or
        ``OVER(...)``); the solve-context cache hit *ratio* across the
        session is appended below the table. Scans recovered from a
        checkpoint show ``restored`` in the cache column.
        """
        if not self.history:
            return "(no scans processed)"
        rows = []
        for i, result in enumerate(self.history, start=1):
            sim = result.simulation
            if getattr(result, "restored", False):
                cache = "restored"
            elif sim.cache_stats is None:
                cache = "off"
            elif sim.cache_hit:
                cache = "hit+warm" if sim.warm_started else "hit"
            else:
                cache = "miss"
            verdict = result.budget_verdict
            degradation = result.degradation
            rows.append(
                [
                    i,
                    result.timeline.total("intraoperative"),
                    float(result.correspondence.magnitudes.max()),
                    result.match_rigid_rms,
                    result.match_simulated_rms,
                    sim.solver.iterations,
                    cache,
                    "-" if degradation is None else degradation.label,
                    "-" if verdict is None else verdict.label,
                ]
            )
        table = format_table(
            [
                "scan",
                "processing (s)",
                "surface |u| max (mm)",
                "rigid RMS",
                "simulated RMS",
                "GMRES iters",
                "cache",
                "result",
                "budget",
            ],
            rows,
            title="Surgical session summary",
        )
        stats = next(
            (
                r.simulation.cache_stats
                for r in reversed(self.history)
                if r.simulation.cache_stats is not None
            ),
            None,
        )
        if stats is not None:
            table += (
                f"\n  cache_hit_ratio: {stats.hit_ratio:.2f} "
                f"(hits={stats.hits} misses={stats.misses} "
                f"invalidations={stats.invalidations})"
            )
        return table


def _note_scan_complete(result: IntraoperativeResult, scan: int) -> None:
    """Flight-recorder breadcrumbs for one committed scan."""
    flight = get_flight_recorder()
    if not flight.enabled:
        return
    verdict = getattr(result, "budget_verdict", None)
    flight.note(
        "scan.complete",
        scan=scan,
        seconds=float(result.timeline.total("intraoperative")),
        degradation=(
            None if result.degradation is None else result.degradation.label
        ),
        within_budget=None if verdict is None else verdict.within_budget,
    )
    if result.degradation is not None and (
        result.degradation.degraded or result.degradation.escalated
    ):
        flight.note("scan.degraded", scan=scan, label=result.degradation.label)


def process_batch_round(
    entries: "list[tuple[SurgicalSession, ImageVolume]]",
    x0s: list | None = None,
    seed_from_bank: bool = False,
) -> list:
    """Process one scan for several sessions as ONE coalesced round.

    Each entry pairs a session with its next intraoperative scan; every
    session must share the *same* :class:`PreoperativeModel` object (the
    serving tier's coalescing groups cases by ``preop_key``, so they
    already do). The round journals each durable member write-ahead,
    runs all members through
    :meth:`repro.core.IntraoperativePipeline.process_scan_batch` — one
    multi-RHS FEM solve for the whole batch — and commits each solved
    member atomically, exactly like :meth:`SurgicalSession.process`.

    Failure isolation is per member: a member whose slot failed is
    returned as its exception, its session untouched (journal begun but
    uncommitted — re-processing the same scan serially is safe and is
    what the serving tier does); the other members commit normally.

    ``x0s`` carries each member's explicit warm-start vector (see
    :func:`repro.core.pipeline.batch_warm_vector`); the shared solve
    context's own warm memory is neither read nor written, so member
    chains cannot contaminate each other.

    Returns one :class:`IntraoperativeResult` or exception per entry.
    """
    if not entries:
        raise ValidationError("process_batch_round needs at least one entry")
    lead = entries[0][0]
    preop = lead.preop
    for session, _ in entries[1:]:
        if session.preop is not preop:
            raise ValidationError(
                "batched sessions must share one preoperative model "
                "(coalescing groups cases by preop_key)"
            )
    items = [session._begin_scan(intraop_mri) for session, intraop_mri in entries]
    with lead.pipeline._tracer().span(
        "scan_batch",
        kind="session",
        n_members=len(entries),
        indices=[item.scan_index for item in items],
    ):
        results = lead.pipeline.process_scan_batch(
            preop, items, x0s=x0s, seed_from_bank=seed_from_bank
        )
    for (session, _), item, result in zip(entries, items, results):
        if isinstance(result, IntraoperativeResult):
            session._finish_scan(item.scan_index, result)
    return results
