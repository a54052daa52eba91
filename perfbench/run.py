"""Scan benchmark: one command, every metric by name with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload session --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
wraps each layer's public entry points (``layers.py``) and reports the
per-layer metrics instead. The second-to-last line of standard output
is a JSON detail record (machine, sizes, every operation, failures,
gates); the last line is the result object. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT,
    TMP_ROOT,
    GateFailure,
    calibrate,
    check_counter_record,
    emit,
    machine_record,
    mean,
    median,
)

WORKLOADS = ("session", "solve", "served")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "deformation_rms_mm": "mm",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "registration.rigid_s": "s",
    "registration.mi_evals": "count",
    "segmentation.prototypes_s": "s",
    "segmentation.knn_s": "s",
    "segmentation.distance_evals": "count",
    "segmentation.label_change_frac": "frac",
    "surface.correspondence_s": "s",
    "surface.max_disp_mm": "mm",
    "fem.context_s": "s",
    "fem.simulate_s": "s",
    "fem.assembly_s": "s",
    "solver.factor_s": "s",
    "solver.iterations": "count",
    "solver.restarts": "count",
    "solver.matvecs": "count",
    "solver.matvec_s": "s",
    "solver.precond_applies": "count",
    "solver.precond_s": "s",
    "solver.ortho_s": "s",
    "solver.warm_iter_ratio": "frac",
    "parallel.messages": "count",
    "parallel.bytes": "B",
    "parallel.flops": "flop",
    "parallel.virtual_s": "s",
    "imaging.grid_disp_s": "s",
    "imaging.invert_s": "s",
    "imaging.warp_s": "s",
    "core.match_s": "s",
    "core.unattributed_s": "s",
    "trace.attributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "calib.numpy_s": "s",
    "serving.queue_s_p50": "s",
    "serving.service_s_p50": "s",
    "serving.preop_s": "s",
    "serving.attempts_mean": "count",
    "serving.hangs": "count",
    "serving.batch_frac": "frac",
    "serving.preop_hit_frac": "frac",
    "transport.bytes_per_scan": "B",
    "transport.frames": "count",
    "transport.retries": "count",
    "persist.bytes_per_scan": "B",
    "teardown.leaked_threads": "count",
}

#: Counters that must repeat exactly for a seed (checked across runs).
EXACT_COUNTERS = (
    "registration.mi_evals",
    "segmentation.distance_evals",
    "solver.iterations",
    "solver.restarts",
    "parallel.messages",
    "parallel.bytes",
    "parallel.flops",
    "parallel.virtual_s",
)
#: Traced-run call counts that must repeat exactly as well.
EXACT_CALLS = {"solver.matvecs": "solver.matvec", "solver.precond_applies": "solver.precond"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _per_op_counters(ops: list[dict]) -> dict[str, list]:
    series: dict[str, list] = {}
    for op in ops:
        if "failed" in op or "counters" not in op:
            continue
        for name in EXACT_COUNTERS:
            if name in op["counters"]:
                series.setdefault(name, []).append(op["counters"][name])
        if op.get("layers"):
            for name, layer in EXACT_CALLS.items():
                series.setdefault(name, []).append(op["layers"]["calls"].get(layer, 0))
    return series


def layer_metrics(workload: str, out: dict, overhead_per_call: float, calib_s: float) -> dict:
    """Per-layer metrics from the traced run: means per timed operation.

    A layer that does no work on a workload reads 0. On ``served`` the
    scan layers run in worker processes, out of the wrappers' reach, so
    only the workload's own serving, transport and persist figures (and
    the solver iterations the cases report) are filled in.
    """
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values["calib.numpy_s"] = calib_s
    if workload == "served":
        values.update(out["per_layer"])
    else:
        values.update(_scan_layer_metrics(workload, out, overhead_per_call))
    return values


def _scan_layer_metrics(workload: str, out: dict, overhead_per_call: float) -> dict:
    from layers import SCAN_LAYERS

    ops = [op for op in out["ops"] if "failed" not in op]
    secs = [op["layers"]["seconds"] for op in ops]
    calls = [op["layers"]["calls"] for op in ops]

    def s(layer):
        return mean([x.get(layer, 0.0) for x in secs])

    def c(layer):
        return mean([x.get(layer, 0) for x in calls])

    def counter(name):
        return mean([op["counters"].get(name, 0) for op in ops])

    top = SCAN_LAYERS if workload == "session" else ("fem.simulate",)
    attributed = [sum(x.get(layer, 0.0) for layer in top) for x in secs]
    walls = [op["wall_s"] for op in ops]
    warm = [op["counters"]["solver.iterations"] for op in ops if op.get("warm_started")]
    cold = [op["counters"]["solver.iterations"] for op in ops if not op.get("warm_started")]
    setup = out["setup_layers"]["seconds"] if out.get("setup_layers") else {}
    krylov = s("solver.krylov")
    return {
        "registration.rigid_s": s("registration.rigid"),
        "registration.mi_evals": counter("registration.mi_evals"),
        "segmentation.prototypes_s": s("segmentation.prototypes"),
        "segmentation.knn_s": s("segmentation.knn"),
        "segmentation.distance_evals": counter("segmentation.distance_evals"),
        "segmentation.label_change_frac": mean([op.get("label_change_frac", 0.0) for op in ops]),
        "surface.correspondence_s": s("surface.correspondence"),
        "surface.max_disp_mm": out.get("accuracy_max_surface_disp_mm", 0.0),
        "fem.context_s": setup.get("fem.context", 0.0) / len(out["setup_times_s"]),
        "fem.simulate_s": s("fem.simulate"),
        "fem.assembly_s": s("fem.assembly"),
        "solver.factor_s": s("solver.factor"),
        "solver.iterations": counter("solver.iterations"),
        "solver.restarts": counter("solver.restarts"),
        "solver.matvecs": c("solver.matvec"),
        "solver.matvec_s": s("solver.matvec"),
        "solver.precond_applies": c("solver.precond"),
        "solver.precond_s": s("solver.precond"),
        "solver.ortho_s": krylov - s("solver.matvec") - s("solver.precond"),
        "solver.warm_iter_ratio": mean(warm) / mean(cold) if warm and cold else 0.0,
        "parallel.messages": counter("parallel.messages"),
        "parallel.bytes": counter("parallel.bytes"),
        "parallel.flops": counter("parallel.flops"),
        "parallel.virtual_s": counter("parallel.virtual_s"),
        "imaging.grid_disp_s": s("imaging.grid_disp"),
        "imaging.invert_s": s("imaging.invert"),
        "imaging.warp_s": s("imaging.warp"),
        "core.match_s": s("core.match"),
        "core.unattributed_s": mean([w - a for w, a in zip(walls, attributed)]),
        "trace.attributed_frac": median([a / w for w, a in zip(walls, attributed)]),
        "trace.overhead_frac": mean(
            [op["layers"]["wrapper_calls"] * overhead_per_call / op["wall_s"] for op in ops]
        ),
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Keep every temporary file the program or its workers write inside
    # the checkout; removed when the run ends.
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        return _run(args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args) -> int:
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import layers

    calib_s = calibrate()
    trace = layers.LayerTrace().install() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "calib.numpy_s": calib_s}
    correct = True
    out: dict = {"attempted": 1, "failed": 1, "ops": []}
    try:
        out = importlib.import_module(args.workload).run(args.seed, args.seconds, trace)
        if args.workload != "served":
            # Serving-layer counts depend on timing (hangs, retries), so
            # served's are reported per run and not compared across runs.
            record["determinism"] = check_counter_record(
                args.workload, args.seed, _per_op_counters(out["ops"])
            )
    except GateFailure as exc:
        correct = False
        record["gate_failure"] = str(exc)
    finally:
        if trace is not None:
            trace.restore()
    record.update(out)

    values: dict = {}
    units: dict = {}
    if correct and args.trace:
        values = layer_metrics(args.workload, out, layers.wrapper_overhead_s(), calib_s)
        record["per_layer"] = values
        units = PER_LAYER_UNITS
    elif correct:
        values = out["end_to_end"]
        units = END_TO_END_UNITS
    record["metrics"] = values
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": _metrics(values, units),
    }
    emit(record, result)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
