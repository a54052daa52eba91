"""Resilience policy: retry budgets, gates, and degradation bounds.

One dataclass gathers every knob of the intraoperative resilience layer,
the way :class:`repro.core.PipelineConfig` does for the pipeline proper.
The clinical contract it encodes (per the per-operative neuronavigator
framework): *always return a compensation* — full-FEM when possible, a
degraded one when not — inside a bounded time, and never let one bad
acquisition abort the session.

This module depends only on :mod:`repro.util` so the core config can
embed a policy without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.util import ValidationError


class DegradationLevel(IntEnum):
    """Ordered fallback ladder for the per-scan result.

    Lower is better; each level is the best compensation still
    achievable when everything above it has failed.
    """

    FULL_FEM = 0  #: full-resolution biomechanical result (possibly after escalation)
    COARSE_FEM = 1  #: biomechanical result on a coarser mesh
    PREVIOUS_FIELD = 2  #: previous scan's deformation field re-applied
    RIGID_ONLY = 3  #: rigid registration only, zero volumetric deformation

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]


_LEVEL_LABELS = {
    DegradationLevel.FULL_FEM: "full-fem",
    DegradationLevel.COARSE_FEM: "coarse-fem",
    DegradationLevel.PREVIOUS_FIELD: "previous-field",
    DegradationLevel.RIGID_ONLY: "rigid-only",
}

#: CLI-friendly names (``--max-degradation coarse-fem``).
LEVEL_BY_NAME = {label: level for level, label in _LEVEL_LABELS.items()}


@dataclass
class RetryPolicy:
    """Retry budget for one guarded stage.

    ``attempts`` counts *total* tries (1 = no retry); ``backoff_s`` is
    slept between tries (kept at 0 in tests; real deployments may want
    a beat for transient scanner/IO hiccups).
    """

    attempts: int = 1
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValidationError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_s < 0:
            raise ValidationError(f"backoff_s must be >= 0, got {self.backoff_s}")


def _default_stage_retries() -> dict[str, RetryPolicy]:
    # Image-side stages get one retry (transient numerical hiccups or
    # injected corruption cleared by sanitization); the simulation stage
    # has its own escalation ladder instead of blind retries.
    return {
        "rigid registration": RetryPolicy(attempts=2),
        "tissue classification": RetryPolicy(attempts=2),
        "surface displacement": RetryPolicy(attempts=2),
        "visualization resample": RetryPolicy(attempts=2),
    }


@dataclass
class ResiliencePolicy:
    """Settings for the intraoperative resilience layer.

    The defaults degrade as far as rigid-only rather than abort. The
    fail-fast policy is ``max_degradation="full-fem"``,
    ``sanitize_inputs=False`` and ``stage_retries={}``: a scan then
    raises the first failure it cannot recover from at full fidelity
    (a non-finite scan, an image stage or resample error, a solve the
    escalation ladder cannot converge).

    Parameters
    ----------
    stage_retries:
        Per-stage :class:`RetryPolicy` (stages absent run once).
    max_degradation:
        Deepest fallback the pipeline may take. A failure needing a
        deeper level re-raises the underlying error instead — the
        operator asked for fail-fast beyond this point.
    min_degradation:
        Shallowest rung the pipeline may *start* at — a forced
        degradation floor. ``FULL_FEM`` (the default) changes nothing;
        anything deeper makes the scan skip the full-resolution solve
        (and, beyond ``COARSE_FEM``, the whole image-processing front
        half) and deliver that rung directly. This is the serving
        tier's load-shedding hook: under overload the gateway stamps a
        floor on the case instead of rejecting it, trading fidelity for
        bounded latency. Must not exceed ``max_degradation``.
    sanitize_inputs:
        Replace non-finite intraoperative voxels (up to
        ``max_nonfinite_fraction``) instead of rejecting the scan.
    max_nonfinite_fraction:
        Above this corrupted-voxel fraction the acquisition is deemed
        unusable and the scan degrades immediately (previous field /
        rigid-only) rather than trusting a mostly-synthetic image.
    displacement_gate_mm:
        Reject any computed displacement field whose magnitude exceeds
        this bound (a physically impossible brain shift signals a
        diverged or corrupted solve).
    solve_deadline_s:
        Wall-clock allowance for the escalation ladder; ``None`` defers
        to the live :class:`repro.obs.BudgetMonitor` headroom when one
        is attached, else unlimited. Once exhausted, remaining rungs
        are skipped and the scan degrades.
    escalation_max_iter:
        Iteration budget for escalation-rung solves.
    coarse_factor:
        Mesh-cell multiplier for the coarse-FEM fallback.
    coarse_tol:
        Solver tolerance for the coarse-FEM fallback (looser than the
        full solve: the coarse mesh already bounds accuracy).
    """

    stage_retries: dict[str, RetryPolicy] = field(
        default_factory=_default_stage_retries
    )
    max_degradation: DegradationLevel = DegradationLevel.RIGID_ONLY
    min_degradation: DegradationLevel = DegradationLevel.FULL_FEM
    sanitize_inputs: bool = True
    max_nonfinite_fraction: float = 0.25
    displacement_gate_mm: float = 200.0
    solve_deadline_s: float | None = None
    escalation_max_iter: int = 3000
    coarse_factor: float = 2.0
    coarse_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not isinstance(self.max_degradation, DegradationLevel):
            self.max_degradation = parse_level(self.max_degradation)
        if not isinstance(self.min_degradation, DegradationLevel):
            self.min_degradation = parse_level(self.min_degradation)
        if self.min_degradation > self.max_degradation:
            raise ValidationError(
                f"min_degradation {self.min_degradation.label!r} exceeds "
                f"max_degradation {self.max_degradation.label!r}"
            )
        if not 0.0 <= self.max_nonfinite_fraction <= 1.0:
            raise ValidationError(
                "max_nonfinite_fraction must be in [0, 1], "
                f"got {self.max_nonfinite_fraction}"
            )
        if self.displacement_gate_mm <= 0:
            raise ValidationError(
                f"displacement_gate_mm must be > 0, got {self.displacement_gate_mm}"
            )
        if self.coarse_factor <= 1.0:
            raise ValidationError(
                f"coarse_factor must be > 1, got {self.coarse_factor}"
            )

    def retry_for(self, stage: str) -> RetryPolicy:
        return self.stage_retries.get(stage, RetryPolicy())

    def allows(self, level: DegradationLevel) -> bool:
        return level <= self.max_degradation


def parse_level(value) -> DegradationLevel:
    """Coerce a CLI string / int / enum into a :class:`DegradationLevel`."""
    if isinstance(value, DegradationLevel):
        return value
    if isinstance(value, int):
        return DegradationLevel(value)
    name = str(value).strip().lower().replace("_", "-")
    if name in LEVEL_BY_NAME:
        return LEVEL_BY_NAME[name]
    raise ValidationError(
        f"unknown degradation level {value!r}; options: {sorted(LEVEL_BY_NAME)}"
    )
