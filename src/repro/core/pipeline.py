"""The intraoperative nonrigid registration pipeline.

Implements the paper's Figure 1 schema end to end:

* :meth:`IntraoperativePipeline.prepare_preoperative` — performed before
  surgery, when time is plentiful: take the preoperative MRI and its
  (manual/semi-automatic) segmentation, build the per-class saturated
  distance localization models, generate the multi-material tetrahedral
  brain mesh, and extract its boundary surface.

* :meth:`IntraoperativePipeline.process_scan` — performed per
  intraoperative acquisition, under operating-room time pressure: MI
  rigid registration, prototype-based k-NN tissue classification,
  two-phase active-surface displacement detection, (virtually parallel)
  biomechanical FEM simulation, and resampling of the preoperative data
  through the recovered volumetric deformation. Every stage's duration
  is recorded in a :class:`~repro.core.timeline.Timeline` (Fig. 6).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.timeline import Timeline
from repro.fem.bc import DirichletBC
from repro.fem.context import SolveContext
from repro.imaging.metrics import mutual_information, rms_difference
from repro.imaging.phantom import Tissue
from repro.imaging.resample import invert_displacement_field, trilinear_sample, warp_volume
from repro.imaging.volume import ImageVolume
from repro.machines.spec import MachineSpec
from repro.mesh.generator import GridTetraMesher, mesh_labeled_volume, mesh_with_target_nodes
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.obs.budget import BudgetMonitor, ScanVerdict
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.parallel.simulation import (
    ParallelSimulation,
    prepare_solve_context,
    simulate_parallel,  # noqa: F401 - perfbench's layer tracer patches it here
    simulate_parallel_batch,
)
from repro.registration.rigid import RegistrationResult, register_rigid
from repro.registration.transform import RigidTransform
from repro.resilience.degrade import (
    DegradationReport,
    coarse_fem_fallback,
    previous_field_fallback,
    rigid_only_fallback,
    stub_correspondence,
)
from repro.resilience.escalation import solve_with_escalation
from repro.resilience.guards import StageGuard, check_displacement_field
from repro.resilience.policy import DegradationLevel, ResiliencePolicy
from repro.segmentation.atlas import LocalizationModel
from repro.segmentation.knn import KNNClassifier
from repro.segmentation.prototypes import PrototypeSet, select_prototypes
from repro.surface.correspondence import CorrespondenceResult, surface_correspondence
from repro.util import ConvergenceError, ReproError, ValidationError


@dataclass
class PreoperativeModel:
    """Everything prepared before surgery.

    Attributes
    ----------
    mri / labels:
        The preoperative acquisition and its segmentation (the
        patient-specific atlas).
    localization:
        Saturated-distance localization models per tissue class.
    mesher:
        The tetrahedral brain mesh with its grid point-location index.
    surface:
        The brain boundary surface (links surface vertices to mesh
        nodes for the boundary conditions).
    brain_mask:
        Boolean brain mask of the preoperative segmentation.
    solve_context:
        Precomputed scan-invariant FEM state (assembled stiffness,
        Dirichlet-elimination structure, preconditioner factors) built
        during the preoperative phase so each intraoperative simulation
        is a data-only fast path; ``None`` when
        ``PipelineConfig.precompute_solve_context`` is off.
    """

    mri: ImageVolume
    labels: ImageVolume
    localization: LocalizationModel
    mesher: GridTetraMesher
    surface: TriangleSurface
    brain_mask: np.ndarray
    solve_context: SolveContext | None = None

    def invalidate_solve_context(self) -> None:
        """Force a rebuild of the cached FEM state on the next scan.

        Call after editing the mesh or materials in place; fingerprint
        checking also catches such changes automatically, but an explicit
        invalidation makes the intent visible. The warm-start memory is
        dropped with the cached state, and the hit/miss counters are
        zeroed so the session never reports stale hit ratios across the
        rebuild boundary.
        """
        if self.solve_context is not None:
            self.solve_context.invalidate(reset_stats=True)


@dataclass
class IntraoperativeResult:
    """Output of one intraoperative processing round.

    Attributes
    ----------
    deformed_mri:
        Preoperative MRI deformed onto the new brain configuration.
    nodal_displacement:
        ``(n_nodes, 3)`` FEM displacement at the mesh nodes (mm).
    grid_displacement:
        Dense forward displacement on the preop grid (mm).
    segmentation:
        Intraoperative k-NN tissue classification.
    rigid:
        Rigid registration result (``None`` when skipped).
    correspondence:
        Active-surface output (surface displacements).
    simulation:
        Parallel FEM simulation record (virtual times, solver stats).
    timeline:
        Per-stage wall-clock timings (Fig. 6).
    match_rigid_rms / match_simulated_rms:
        RMS intensity difference against the intraoperative scan inside
        the brain region, before (rigid-only) and after the
        biomechanical deformation — the paper's Fig. 4(d) comparison,
        quantified.
    budget_verdict:
        Real-time budget verdict for this scan (``None`` when the
        pipeline ran without a :class:`repro.obs.BudgetMonitor`).
    degradation:
        :class:`repro.resilience.DegradationReport` describing what the
        resilience layer did for this scan — level delivered, escalation
        rungs tried, injected faults, recovery cost. ``None`` only on a
        result restored from a checkpoint that recorded no level.
    restored:
        ``True`` when this result was reconstructed from a session
        checkpoint rather than computed in this process. Restored
        results carry the journaled essentials (displacements, match
        metrics, timeline) but synthetic solver/segmentation stand-ins;
        ``deformed_mri`` is only rehydrated on demand.
    """

    deformed_mri: ImageVolume
    nodal_displacement: np.ndarray
    grid_displacement: np.ndarray
    segmentation: ImageVolume
    rigid: RegistrationResult | None
    correspondence: CorrespondenceResult
    simulation: ParallelSimulation
    timeline: Timeline
    prototypes: PrototypeSet
    match_rigid_rms: float
    match_simulated_rms: float
    match_rigid_mi: float
    match_simulated_mi: float
    budget_verdict: ScanVerdict | None = None
    degradation: DegradationReport | None = None
    restored: bool = False


@dataclass
class BatchScanItem:
    """One member's inputs for a coalesced multi-case scan round.

    Mirrors the per-member arguments of
    :meth:`IntraoperativePipeline.process_scan`; the preoperative model
    is shared by the whole batch and passed once to
    :meth:`IntraoperativePipeline.process_scan_batch`.
    """

    intraop_mri: ImageVolume
    prototypes: PrototypeSet | None = None
    reference_labels: ImageVolume | None = None
    scan_index: int = 0
    previous: IntraoperativeResult | None = None


@dataclass
class _ScanFront:
    """Stages 1-3 of one scan: what the solve and the back half consume.

    Fields stay ``None`` past the stage that failed (or was skipped);
    ``prototypes`` starts as the set passed in.
    """

    prototypes: PrototypeSet | None
    rigid: RegistrationResult | None = None
    segmentation: ImageVolume | None = None
    correspondence: CorrespondenceResult | None = None
    target_mask: np.ndarray | None = None
    preop_centers: np.ndarray | None = None
    rigid_inverse: RigidTransform | None = None


@dataclass
class _Recovery:
    """What the resilience layer did for one scan so far.

    ``failure`` is the error that left the scan without a
    full-resolution result; ``seconds`` the wall time spent recovering.
    """

    timeline: Timeline
    report: DegradationReport = field(default_factory=DegradationReport)
    seconds: float = 0.0
    failure: ReproError | None = None

    def note(self, text: str) -> None:
        self.report.notes.append(text)
        self.timeline.note("resilience: " + text)


@dataclass
class IntraoperativePipeline:
    """End-to-end implementation of the paper's registration pipeline.

    Observability hooks (all optional, all default-off):

    tracer:
        Hierarchical trace spans are recorded here (scan stages, FEM
        assembly phases, solver restarts); ``None`` uses the ambient
        tracer from :func:`repro.obs.get_tracer` — a no-op unless one
        was installed via :func:`repro.obs.use_tracer`.
    budget:
        A :class:`repro.obs.BudgetMonitor`: stage durations are fed to
        it live during :meth:`process_scan`, warnings land in the
        timeline notes, and the per-scan verdict is attached to the
        result (and the session summary).
    metrics:
        A :class:`repro.obs.MetricsRegistry` absorbing the run's
        numbers: mesh sizes, GMRES iterations/restarts/residual,
        solve-context cache hits/misses/hit-ratio, per-scan seconds.
    """

    config: PipelineConfig = field(default_factory=PipelineConfig)
    machine: MachineSpec | None = None
    tracer: Tracer | None = field(default=None, repr=False)
    budget: BudgetMonitor | None = field(default=None, repr=False)
    metrics: MetricsRegistry | None = field(default=None, repr=False)

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    # -- preoperative ---------------------------------------------------------

    def prepare_preoperative(
        self, mri: ImageVolume, labels: ImageVolume
    ) -> PreoperativeModel:
        """Build the patient-specific model from the preoperative data."""
        if not mri.same_grid_as(labels):
            raise ValidationError("preoperative MRI and labels must share a grid")
        cfg = self.config
        tracer = self._tracer()
        with use_tracer(tracer), tracer.span(
            "prepare_preoperative", kind="pipeline", period="preoperative"
        ):
            with tracer.span("localization models", kind="stage"):
                localization = LocalizationModel.from_labels(
                    labels, cfg.segmentation_classes, cfg.localization_cap_mm
                )
            with tracer.span("mesh generation", kind="stage") as mesh_span:
                if cfg.target_mesh_nodes is not None:
                    mesher = mesh_with_target_nodes(
                        labels, cfg.target_mesh_nodes, cfg.brain_labels
                    )
                else:
                    mesher = mesh_labeled_volume(
                        labels, cfg.mesh_cell_mm, cfg.brain_labels
                    )
                surface = extract_boundary_surface(mesher.mesh)
                mesh_span.set(
                    n_nodes=int(mesher.mesh.n_nodes),
                    n_elements=int(mesher.mesh.n_elements),
                )
            brain_mask = np.isin(labels.data, cfg.brain_labels)
            solve_context = None
            if cfg.precompute_solve_context:
                # Preoperative precomputation: partitioning, assembly,
                # elimination slicing and preconditioner factorization all
                # happen now, while "time is plentiful" — process_scan only
                # updates the right-hand side and solves.
                with tracer.span("solve context precompute", kind="stage"):
                    solve_context = prepare_solve_context(
                        mesher.mesh,
                        surface.mesh_nodes,
                        cfg.n_ranks,
                        materials=cfg.materials,
                        partitioner=cfg.partitioner,
                    )
        if self.metrics is not None:
            self.metrics.gauge("mesh.nodes").set(mesher.mesh.n_nodes)
            self.metrics.gauge("mesh.elements").set(mesher.mesh.n_elements)
            self.metrics.gauge("mesh.dof").set(mesher.mesh.n_dof)
        return PreoperativeModel(
            mri=mri,
            labels=labels,
            localization=localization,
            mesher=mesher,
            surface=surface,
            brain_mask=brain_mask,
            solve_context=solve_context,
        )

    # -- intraoperative ---------------------------------------------------------

    def process_scan(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None = None,
        reference_labels: ImageVolume | None = None,
        scan_index: int = 0,
        previous: IntraoperativeResult | None = None,
    ) -> IntraoperativeResult:
        """Register the preoperative model onto a new intraoperative scan.

        Parameters
        ----------
        intraop_mri:
            The newly acquired scan.
        preop:
            Output of :meth:`prepare_preoperative`.
        prototypes:
            Prototype set from a previous scan of the same procedure
            (their recorded locations are re-sampled on the new scan —
            the paper's automatic statistical-model update). When
            ``None``, prototypes are selected fresh using
            ``reference_labels`` (defaults to the preoperative
            segmentation, standing in for the clinician's five minutes
            of interaction on the first scan).
        scan_index:
            0-based index of this scan within the session; keys the
            deterministic :class:`repro.resilience.FaultPlan` (if any)
            and appears in resilience reports.
        previous:
            The previous scan's result, enabling the ``previous-field``
            degradation level when this scan cannot be processed.

        Every stage runs under a :class:`repro.resilience.StageGuard`,
        the solve climbs the escalation ladder on failure, and an
        unprocessable scan degrades (coarse FEM / previous field /
        rigid-only) as far as ``config.resilience`` allows — the
        attached :class:`repro.resilience.DegradationReport` records
        what happened. The fail-fast policy
        (``max_degradation="full-fem"``, ``sanitize_inputs=False``,
        ``stage_retries={}``) raises the first failure the scan cannot
        recover from at full fidelity.

        When the pipeline carries observability hooks (``tracer``,
        ``budget``, ``metrics`` — or an ambient tracer installed via
        :func:`repro.obs.use_tracer`), the scan is wrapped in a
        ``process_scan`` span with one child span per stage, stage
        durations are checked live against the time budget (warnings
        appear in the timeline notes the moment a stage overruns), and
        the run's numbers land in the metrics registry.
        """
        tracer = self._tracer()
        monitor = self.budget
        timeline = Timeline(tracer=tracer)
        if monitor is not None:
            monitor.begin_scan()

            def _observe_budget(entry) -> None:
                warning = monitor.observe_stage(entry.stage, entry.seconds)
                if warning is not None:
                    timeline.note("budget: " + warning)

            timeline.observers.append(_observe_budget)

        # Install the pipeline's tracer as ambient for the scan so the
        # deep modules (FEM assembly, Krylov solvers, preconditioners)
        # nest their spans under the stage spans without plumbing.
        with use_tracer(tracer), tracer.span(
            "process_scan", kind="pipeline"
        ) as scan_span:
            result = self._process_scan(
                intraop_mri,
                preop,
                prototypes,
                reference_labels,
                timeline,
                scan_index=scan_index,
                previous=previous,
            )
            if result.degradation is not None and result.degradation.degraded:
                scan_span.set(degradation=result.degradation.label)
            if monitor is not None:
                verdict = monitor.finish_scan()
                result.budget_verdict = verdict
                timeline.note(
                    f"budget verdict: {verdict.label} "
                    f"(headroom {verdict.headroom_seconds:+.1f} s "
                    f"of {verdict.scan_budget:.0f} s)"
                )
                scan_span.set(budget=verdict.label)

        self._record_scan_metrics(result, timeline)
        return result

    def _record_scan_metrics(self, result: IntraoperativeResult, timeline: Timeline) -> None:
        """Land one scan's numbers in the metrics registry (if attached)."""
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("pipeline.scans").inc()
        m.histogram("scan.seconds").observe(timeline.total("intraoperative"))
        m.record_solver_result(result.simulation.solver)
        if result.simulation.cache_stats is not None:
            m.record_cache_stats(result.simulation.cache_stats)
        report = result.degradation
        m.counter(f"resilience.level.{report.label}").inc()
        if report.escalated:
            m.counter("resilience.escalations").inc()
        if report.faults:
            m.counter("resilience.faults_triggered").inc(len(report.faults))

    def _process_scan(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None,
        reference_labels: ImageVolume | None,
        timeline: Timeline,
        scan_index: int = 0,
        previous: IntraoperativeResult | None = None,
    ) -> IntraoperativeResult:
        """Guarded orchestration of one scan.

        Image-side stage failures (after per-stage retries) and solve
        failures (after the escalation ladder) walk the degradation
        ladder; the only exception raised is when the required level
        exceeds ``policy.max_degradation`` — an explicit operator
        request for fail-fast beyond that point.
        """
        cfg = self.config
        policy = cfg.resilience
        plan = cfg.fault_plan
        recovery = _Recovery(timeline)

        # Fault injection models the world, not the pipeline: scheduled
        # scan corruption applies whatever the policy.
        if plan is not None:
            logged = len(plan.log)
            corrupted = plan.corrupt_volume(intraop_mri, scan_index)
            if corrupted is not intraop_mri:
                intraop_mri = corrupted
                for entry in plan.log[logged:]:
                    timeline.note(f"fault injected: {entry}")

        # Input hardening: sanitize small damage when the policy allows
        # it; otherwise the scan is unusable and must degrade (or, under
        # a fail-fast policy, raise).
        if intraop_mri.nonfinite_count():
            fraction = intraop_mri.nonfinite_fraction()
            if policy.sanitize_inputs and fraction <= policy.max_nonfinite_fraction:
                intraop_mri, n_fixed = intraop_mri.sanitized()
                timeline.note(
                    f"input hardening: replaced {n_fixed} non-finite "
                    f"voxels ({fraction:.2%})"
                )
            else:
                unusable = (
                    f"intraoperative scan unusable: {fraction:.1%} non-finite "
                    f"voxels (limit {policy.max_nonfinite_fraction:.0%})"
                )
                recovery.failure = ValidationError(unusable)
                recovery.note(unusable)

        # Forced degradation floor (load shedding): the serving tier can
        # stamp a minimum rung on the case so an overloaded shard trades
        # fidelity for bounded latency instead of rejecting outright.
        forced = policy.min_degradation
        front = _ScanFront(prototypes=prototypes)
        if recovery.failure is None and forced >= DegradationLevel.PREVIOUS_FIELD:
            # Floor deeper than coarse-FEM: the fallback needs no boundary
            # conditions, so the whole image-processing front half is
            # skipped — that is the point of shedding at this rung.
            recovery.note(f"load shed: forced {forced.label}; image stages skipped")
        elif recovery.failure is None:
            front = self._scan_front(
                intraop_mri, preop, prototypes, reference_labels, recovery, policy
            )

        # Stage 4 through the escalation ladder. Emergency rungs run on
        # isolated contexts, and a poisoned warm start is cleared by the
        # cold rung — the shared per-patient cache survives either way,
        # so the next scan still gets its warm fast path.
        simulation = None
        report = recovery.report
        if recovery.failure is None and forced > DegradationLevel.FULL_FEM:
            report.cause = f"load shed: forced {forced.label}"
            recovery.note(
                f"load shed: full-resolution solve skipped (floor {forced.label})"
            )
        if recovery.failure is None and forced == DegradationLevel.FULL_FEM:
            deadline = policy.solve_deadline_s
            if deadline is None and self.budget is not None:
                deadline = max(self.budget.headroom(), 1.0)
            with timeline.stage("biomechanical simulation"):
                bc = DirichletBC(
                    preop.surface.mesh_nodes, front.correspondence.displacements
                )
                outcome = solve_with_escalation(
                    preop.mesher.mesh,
                    bc,
                    n_ranks=cfg.n_ranks,
                    machine=self.machine,
                    materials=cfg.materials,
                    partitioner=cfg.partitioner,
                    tol=cfg.solver_tol,
                    restart=cfg.gmres_restart,
                    max_iter=policy.escalation_max_iter,
                    context=preop.solve_context,
                    warm_start=cfg.warm_start,
                    gate_mm=policy.displacement_gate_mm,
                    deadline_s=deadline,
                    faults=plan,
                    scan_index=scan_index,
                )
            report.rungs_tried = outcome.rungs_tried
            recovery.seconds += sum(a.seconds for a in outcome.attempts if not a.ok)
            if outcome.succeeded:
                simulation = outcome.simulation
                self._note_cache(timeline, preop, simulation)
                if outcome.escalated:
                    report.cause = outcome.attempts[0].error or ""
                    recovery.note(
                        "solver escalation: "
                        + " -> ".join(
                            f"{a.rung}({'ok' if a.ok else 'fail'})"
                            for a in outcome.attempts
                        )
                    )
                if outcome.rank_failed:
                    recovery.note(
                        "rank failure: solve completed on 1 rank (no machine model)"
                    )
            else:
                recovery.failure = ConvergenceError(
                    outcome.cause or "escalation ladder exhausted",
                    solver="escalation",
                    stage="biomechanical simulation",
                )
                recovery.note(outcome.cause or "escalation ladder exhausted")

        return self._scan_back(
            intraop_mri, preop, front, simulation, recovery, policy, scan_index, previous
        )

    # -- stage implementations ------------------------------------------------

    def _stage_rigid(
        self, intraop_mri: ImageVolume, preop: PreoperativeModel, timeline: Timeline
    ) -> tuple[RegistrationResult | None, RigidTransform]:
        """Stage 1 — MI rigid registration: intraop points -> preop frame."""
        cfg = self.config
        with timeline.stage("rigid registration"):
            if cfg.skip_rigid:
                return None, RigidTransform.identity()
            rigid_result = register_rigid(
                intraop_mri,
                preop.mri,
                levels=cfg.rigid_levels,
                max_iter=cfg.rigid_max_iter,
                max_samples=cfg.rigid_samples,
                seed=cfg.seed,
            )
            return rigid_result, rigid_result.transform

    def _stage_classify(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None,
        reference_labels: ImageVolume | None,
        transform: RigidTransform,
        timeline: Timeline,
    ) -> tuple[PrototypeSet, ImageVolume]:
        """Stage 2 — k-NN tissue classification over intensity + localization."""
        cfg = self.config
        with timeline.stage("tissue classification"):
            if prototypes is None:
                ref = reference_labels if reference_labels is not None else preop.labels
                prototypes = select_prototypes(
                    intraop_mri,
                    ref,
                    preop.localization,
                    classes=cfg.segmentation_classes,
                    per_class=cfg.prototypes_per_class,
                    transform=transform,
                    seed=cfg.seed,
                )
            else:
                prototypes = prototypes.update_features(
                    intraop_mri, preop.localization, transform=transform
                )
            classifier = KNNClassifier(k=cfg.knn_k).fit_prototypes(prototypes)
            segmentation = classifier.segment(
                intraop_mri, preop.localization, transform=transform
            )
        return prototypes, segmentation

    def _stage_surface(
        self,
        preop: PreoperativeModel,
        segmentation: ImageVolume,
        transform: RigidTransform,
        timeline: Timeline,
    ) -> tuple[CorrespondenceResult, np.ndarray, np.ndarray, RigidTransform]:
        """Stage 3 — two-phase active-surface displacement detection.

        The target brain mask is mapped onto the preoperative grid
        through the rigid transform, so the pipeline supports
        intraoperative grids that differ from the preoperative one
        (anisotropic scanner matrices, patient repositioning).
        """
        cfg = self.config
        with timeline.stage("surface displacement"):
            preop_centers = preop.labels.voxel_centers()
            rigid_inverse = transform.inverse()
            seg_on_preop = trilinear_sample(
                segmentation.astype(np.float64),
                rigid_inverse.apply(preop_centers),
                fill_value=float(Tissue.AIR),
                nearest=True,
            ).astype(np.int16)
            target_mask = np.isin(seg_on_preop, cfg.intraop_brain_labels)
            correspondence = surface_correspondence(
                preop.surface,
                preop.brain_mask,
                target_mask,
                preop.labels,
                cap_mm=cfg.surface_cap_mm,
                iterations=cfg.surface_iterations,
                step_size=cfg.surface_step,
                smoothing=cfg.surface_smoothing,
            )
        return correspondence, target_mask, preop_centers, rigid_inverse

    def _note_cache(
        self, timeline: Timeline, preop: PreoperativeModel, simulation
    ) -> None:
        if preop.solve_context is None or simulation.cache_stats is None:
            return
        stats = simulation.cache_stats
        timeline.note(
            "solve context: "
            + ("hit (data-only fast path" if simulation.cache_hit else "miss (rebuilt")
            + (", warm-started solve)" if simulation.warm_started else ")")
            + f" [hits={stats.hits} misses={stats.misses}"
            + f" invalidations={stats.invalidations}]"
        )

    def _stage_resample(
        self, preop: PreoperativeModel, displacement: np.ndarray, timeline: Timeline
    ) -> tuple[np.ndarray, ImageVolume]:
        """Stage 5 — deform the preop MRI onto the new configuration."""
        with timeline.stage("visualization resample"):
            grid_disp = preop.mesher.displacement_on_grid(displacement, preop.mri)
            inverse = invert_displacement_field(grid_disp, preop.mri.spacing)
            deformed = warp_volume(preop.mri, inverse, fill_value=0.0)
        return grid_disp, deformed

    def _match_metrics(
        self,
        preop: PreoperativeModel,
        intraop_mri: ImageVolume,
        deformed: ImageVolume,
        rigid_inverse: RigidTransform,
        preop_centers: np.ndarray,
        target_mask: np.ndarray,
    ) -> tuple[float, float, float, float]:
        """Match-quality metrics (Fig. 4): rigid-only vs simulated."""
        intraop_on_preop = trilinear_sample(
            intraop_mri, rigid_inverse.apply(preop_centers), fill_value=0.0
        )
        region = target_mask | preop.brain_mask
        return (
            rms_difference(preop.mri.data, intraop_on_preop, mask=region),
            rms_difference(deformed.data, intraop_on_preop, mask=region),
            mutual_information(preop.mri.data, intraop_on_preop, mask=region),
            mutual_information(deformed.data, intraop_on_preop, mask=region),
        )

    # -- the two halves every scan runs ---------------------------------------

    def _scan_front(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None,
        reference_labels: ImageVolume | None,
        recovery: _Recovery,
        policy: ResiliencePolicy,
    ) -> _ScanFront:
        """Stages 1-3 under per-stage retry guards.

        A failed rigid registration is recoverable in place (identity
        transform: same-frame acquisitions are the common case); a
        failure of classification or surface detection leaves no
        boundary conditions to simulate from and lands in
        ``recovery.failure``.
        """
        timeline = recovery.timeline
        front = _ScanFront(prototypes=prototypes)
        guard = StageGuard("rigid registration", policy.retry_for("rigid registration"))
        try:
            front.rigid, transform = guard.run(
                self._stage_rigid, intraop_mri, preop, timeline
            )
        except ReproError as exc:
            recovery.seconds += guard.last_report.seconds
            transform = RigidTransform.identity()
            recovery.note(f"rigid registration failed ({exc}); using identity transform")
        try:
            guard = StageGuard(
                "tissue classification", policy.retry_for("tissue classification")
            )
            front.prototypes, front.segmentation = guard.run(
                self._stage_classify,
                intraop_mri,
                preop,
                prototypes,
                reference_labels,
                transform,
                timeline,
            )
            guard = StageGuard(
                "surface displacement",
                policy.retry_for("surface displacement"),
                validator=lambda out: check_displacement_field(
                    out[0].displacements,
                    policy.displacement_gate_mm,
                    "surface displacement",
                ),
            )
            (
                front.correspondence,
                front.target_mask,
                front.preop_centers,
                front.rigid_inverse,
            ) = guard.run(
                self._stage_surface, preop, front.segmentation, transform, timeline
            )
        except ReproError as exc:
            recovery.seconds += guard.last_report.seconds
            recovery.failure = exc
            recovery.note(f"{type(exc).__name__}: {exc}")
        return front

    def _scan_back(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        front: _ScanFront,
        simulation: ParallelSimulation | None,
        recovery: _Recovery,
        policy: ResiliencePolicy,
        scan_index: int,
        previous: IntraoperativeResult | None,
    ) -> IntraoperativeResult:
        """Stage 5, the degradation ladder, match metrics and the result.

        ``simulation`` is the full-resolution solve, or ``None`` when the
        front half, the solve or a load-shed floor left none; then the
        ladder delivers the best fallback ``policy`` allows, and raises
        ``recovery.failure`` when it allows none.
        """
        cfg = self.config
        plan = cfg.fault_plan
        timeline = recovery.timeline
        report = recovery.report
        forced = policy.min_degradation

        # Stage 5 (only meaningful with a full-resolution solution; the
        # fallbacks produce their own grid field and deformed volume).
        grid_disp = None
        deformed = None
        if simulation is not None:
            guard = StageGuard(
                "visualization resample", policy.retry_for("visualization resample")
            )
            try:
                grid_disp, deformed = guard.run(
                    self._stage_resample, preop, simulation.displacement, timeline
                )
            except ReproError as exc:
                recovery.seconds += guard.last_report.seconds
                recovery.failure = exc
                simulation = None
                recovery.note(f"visualization resample failed: {exc}")

        # Degradation ladder: coarse FEM needs boundary conditions;
        # previous-field needs a previous scan; rigid-only always works.
        if simulation is None:
            fallback = None
            if (
                front.correspondence is not None
                and policy.allows(DegradationLevel.COARSE_FEM)
                and DegradationLevel.COARSE_FEM >= forced
            ):
                t0 = time.perf_counter()
                try:
                    with timeline.stage("coarse-fem fallback"):
                        fallback = coarse_fem_fallback(
                            preop.labels,
                            preop.mri,
                            preop.mesher,
                            preop.surface,
                            front.correspondence.displacements,
                            brain_labels=cfg.brain_labels,
                            materials=cfg.materials,
                            cell_mm=cfg.mesh_cell_mm,
                            coarse_factor=policy.coarse_factor,
                            tol=policy.coarse_tol,
                            restart=cfg.gmres_restart,
                            max_iter=policy.escalation_max_iter,
                            gate_mm=policy.displacement_gate_mm,
                        )
                except ReproError as exc:
                    recovery.note(f"coarse-fem fallback failed: {exc}")
                recovery.seconds += time.perf_counter() - t0
            if (
                fallback is None
                and previous is not None
                and policy.allows(DegradationLevel.PREVIOUS_FIELD)
                and DegradationLevel.PREVIOUS_FIELD >= forced
            ):
                t0 = time.perf_counter()
                with timeline.stage("previous-field fallback"):
                    fallback = previous_field_fallback(previous)
                recovery.seconds += time.perf_counter() - t0
            if fallback is None and policy.allows(DegradationLevel.RIGID_ONLY):
                t0 = time.perf_counter()
                with timeline.stage("rigid-only fallback"):
                    fallback = rigid_only_fallback(
                        preop.mri, preop.mesher.mesh.n_nodes
                    )
                recovery.seconds += time.perf_counter() - t0
            if fallback is None:
                # The operator bounded degradation above what this scan
                # needs: honor the fail-fast request.
                if recovery.failure is not None:
                    raise recovery.failure
                raise ValidationError(
                    "degradation required but disallowed by max_degradation"
                )
            report.level = fallback.level
            if not report.cause:
                report.cause = (
                    str(recovery.failure) if recovery.failure is not None else ""
                )
            recovery.note(fallback.note)
            simulation = fallback.simulation
            nodal_displacement = fallback.nodal_displacement
            grid_disp = fallback.grid_displacement
            deformed = fallback.deformed_mri
        else:
            nodal_displacement = simulation.displacement

        # Stubs for whatever the failure path skipped, so every consumer
        # of IntraoperativeResult keeps working on degraded scans.
        segmentation = front.segmentation
        if segmentation is None:
            segmentation = ImageVolume(
                np.zeros(intraop_mri.shape, dtype=np.int16),
                intraop_mri.spacing,
                intraop_mri.origin,
            )
        correspondence = front.correspondence
        if correspondence is None:
            correspondence = stub_correspondence(preop.surface)

        if front.rigid_inverse is not None and front.target_mask is not None:
            rigid_rms, sim_rms, rigid_mi, sim_mi = self._match_metrics(
                preop,
                intraop_mri,
                deformed,
                front.rigid_inverse,
                front.preop_centers,
                front.target_mask,
            )
        else:
            rigid_rms = sim_rms = rigid_mi = sim_mi = float("nan")

        report.wall_seconds = recovery.seconds
        if plan is not None:
            report.faults = [
                s.describe() for s in plan.triggered if s.scan == scan_index
            ]
        if report.degraded or report.escalated:
            timeline.note("resilience summary: " + report.summary())

        return IntraoperativeResult(
            deformed_mri=deformed,
            nodal_displacement=nodal_displacement,
            grid_displacement=grid_disp,
            segmentation=segmentation,
            rigid=front.rigid,
            correspondence=correspondence,
            simulation=simulation,
            timeline=timeline,
            prototypes=front.prototypes,
            match_rigid_rms=rigid_rms,
            match_simulated_rms=sim_rms,
            match_rigid_mi=rigid_mi,
            match_simulated_mi=sim_mi,
            degradation=report,
        )

    # -- batched orchestration -------------------------------------------------

    def process_scan_batch(
        self,
        preop: PreoperativeModel,
        items: "list[BatchScanItem]",
        x0s: list[np.ndarray | None] | None = None,
        seed_from_bank: bool = False,
    ) -> list:
        """Process one scan for several same-patient cases jointly.

        The serving tier's coalesced dispatch path: every member shares
        ``preop`` (same patient model, same solve context), so the image
        stages run per member but the biomechanical simulation becomes
        ONE multi-RHS solve through
        :func:`repro.parallel.simulate_parallel_batch` — the stiffness
        matrix and the preconditioner factors stream once per Krylov
        round for the whole batch.

        Each member runs the same guarded front and back halves as
        :meth:`process_scan`, so a member's result — displacement
        fields, match metrics and its full-fem
        :class:`repro.resilience.DegradationReport` — is bit-identical
        to a serial :meth:`process_scan` run with the same warm-start
        vector (``x0s`` entry; the shared context's own
        ``last_solution`` memory is never read or written here — the
        caller owns each member's warm chain, see
        :func:`batch_warm_vector`).

        Failure isolation is per member, and a batched member never
        degrades: a member whose image stages, solve slot, or resample
        fails gets its *exception* in the returned list — the caller
        re-runs just that member through the serial (degrading) path —
        and members carrying non-finite scans are deferred the same way
        without being attempted (input hardening and fault injection are
        serial-path concerns). Budget verdicts are not computed for
        batched members (``budget_verdict`` stays ``None``).

        Returns a list with one :class:`IntraoperativeResult` or
        exception per item, in order.
        """
        cfg = self.config
        if not items:
            raise ValidationError("process_scan_batch needs at least one item")
        m = len(items)
        if x0s is None:
            x0s = [None] * m
        if len(x0s) != m:
            raise ValidationError(f"x0s must have {m} entries, got {len(x0s)}")
        policy = replace(
            cfg.resilience,
            max_degradation=DegradationLevel.FULL_FEM,
            min_degradation=DegradationLevel.FULL_FEM,
        )
        tracer = self._tracer()
        results: list = [None] * m
        recoveries = [_Recovery(Timeline(tracer=tracer)) for _ in items]
        fronts: dict[int, _ScanFront] = {}
        with use_tracer(tracer), tracer.span(
            "process_scan_batch", kind="pipeline", n_members=m
        ) as span:
            for i, item in enumerate(items):
                if item.intraop_mri.nonfinite_count():
                    results[i] = ValidationError(
                        "non-finite intraoperative scan; "
                        "member deferred to the serial path"
                    )
                    continue
                try:
                    front = self._scan_front(
                        item.intraop_mri,
                        preop,
                        item.prototypes,
                        item.reference_labels,
                        recoveries[i],
                        policy,
                    )
                except Exception as exc:  # noqa: BLE001 - member isolation boundary
                    results[i] = exc
                    continue
                if recoveries[i].failure is not None:
                    results[i] = recoveries[i].failure
                else:
                    fronts[i] = front
            if fronts:
                live = list(fronts)
                bcs = [
                    DirichletBC(
                        preop.surface.mesh_nodes, fronts[i].correspondence.displacements
                    )
                    for i in live
                ]
                # The joint solve's wall time is shared: each member's
                # timeline records the same simulation-stage duration.
                with ExitStack() as stack:
                    for i in live:
                        stack.enter_context(
                            recoveries[i].timeline.stage("biomechanical simulation")
                        )
                    batch = simulate_parallel_batch(
                        preop.mesher.mesh,
                        bcs,
                        n_ranks=cfg.n_ranks,
                        machine=self.machine,
                        materials=cfg.materials,
                        partitioner=cfg.partitioner,
                        tol=cfg.solver_tol,
                        restart=cfg.gmres_restart,
                        context=preop.solve_context,
                        x0s=[x0s[i] for i in live],
                        seed_from_bank=seed_from_bank,
                        isolate_errors=True,
                    )
                for i, sim in zip(live, batch):
                    if not isinstance(sim, ParallelSimulation):
                        results[i] = sim  # the member's captured solve exception
                        continue
                    recovery = recoveries[i]
                    # The joint solve is the ladder's first rung.
                    recovery.report.rungs_tried = [
                        "warm-gmres" if sim.warm_started else "cold-gmres"
                    ]
                    self._note_cache(recovery.timeline, preop, sim)
                    try:
                        results[i] = self._scan_back(
                            items[i].intraop_mri,
                            preop,
                            fronts[i],
                            sim,
                            recovery,
                            policy,
                            items[i].scan_index,
                            items[i].previous,
                        )
                    except Exception as exc:  # noqa: BLE001 - member isolation boundary
                        results[i] = exc
                        continue
                    self._record_scan_metrics(results[i], recovery.timeline)
            n_solved = sum(
                isinstance(r, IntraoperativeResult) for r in results
            )
            span.set(n_solved=n_solved, n_deferred=m - n_solved)
        return results


def batch_warm_vector(result: IntraoperativeResult | object) -> np.ndarray | None:
    """Free-DOF solution vector to warm-start a member's *next* round.

    The batched path owns each member's warm-start chain explicitly
    (the shared context's ``last_solution`` belongs to no single case);
    feed this into the next round's ``x0s`` entry. Returns ``None`` for
    failed members, degraded scans (their stand-in solver records do not
    carry a compatible full-resolution solution), or anything that is
    not an :class:`IntraoperativeResult`.
    """
    if not isinstance(result, IntraoperativeResult):
        return None
    if result.degradation is not None and result.degradation.degraded:
        return None
    x = getattr(result.simulation.solver, "x", None)
    if x is None:
        return None
    return np.asarray(x, dtype=float)
