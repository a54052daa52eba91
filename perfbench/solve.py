"""``solve`` workload: the paper's 77,511-equation FEM system, cold solves.

``build_clinical_system(PAPER_SYSTEM_SMALL)`` (77,250 DOF, 134,102
tets) with boundary conditions sampled from the phantom's true shift
field, solved cold by ``simulate_parallel`` at tol 1e-7 with GMRES(30)
and block Jacobi on 8 virtual Deep Flow ranks: the measurement behind
the paper's Figs. 7-9. The image stages do no work here. Every solve
repeats the same system, so its counts and field must repeat exactly.
"""

from __future__ import annotations

import time

import numpy as np

from common import GateFailure, median, peak_rss_mb, reset_peak_rss, timing_summary

N_RANKS = 8
TOL = 1e-7
RESTART = 30
SETUP_REPS = 2
MIN_SOLVES = 2
#: Allowed relative error against the reference solve, in units of TOL.
#: GMRES stops on the preconditioned residual, so the error carries the
#: system's conditioning: 12.7 x TOL is measured at this size.
ERROR_TOL_MULTIPLE = 100.0


def reference_solution(system) -> np.ndarray:
    """Free-DOF solve of the same reduced system, independent of the repo's solvers.

    SciPy CG with a Jacobi preconditioner to a 1e-12 relative residual
    on the serially assembled, Dirichlet-reduced stiffness. (A SuperLU
    factorization of this system takes about a minute and 2 GB, more than
    one run can afford; at 1e-12 the CG answer agrees with it to seven
    digits of the GMRES error.)
    """
    from scipy.sparse.linalg import LinearOperator, cg

    from repro.fem.assembly import assemble_stiffness
    from repro.fem.bc import apply_dirichlet
    from repro.fem.material import BRAIN_HOMOGENEOUS

    stiffness = assemble_stiffness(system.mesh, BRAIN_HOMOGENEOUS)
    reduced = apply_dirichlet(stiffness, np.zeros(stiffness.shape[0]), system.bc)
    inv_diag = 1.0 / reduced.matrix.diagonal()
    jacobi = LinearOperator(reduced.matrix.shape, matvec=lambda r: inv_diag * r)
    x, info = cg(reduced.matrix, reduced.rhs, rtol=1e-12, maxiter=20000, M=jacobi)
    if info != 0:
        raise GateFailure(f"reference CG did not converge (info={info})")
    return reduced.expand(x).reshape(-1, 3)


def truth_at_nodes(system) -> np.ndarray:
    from repro.imaging.resample import trilinear_sample
    from repro.imaging.volume import ImageVolume

    labels = system.case.preop_labels
    field = system.case.true_forward_mm
    return np.stack(
        [
            trilinear_sample(
                ImageVolume(np.ascontiguousarray(field[..., axis]), labels.spacing, labels.origin),
                system.mesh.nodes,
            )
            for axis in range(3)
        ],
        axis=-1,
    )


def solve_counters(sim) -> dict:
    cluster = sim.cluster
    return {
        "solver.iterations": int(sim.solver.iterations),
        "solver.restarts": int(sim.solver.restarts),
        "parallel.messages": int(cluster.messages_total),
        "parallel.bytes": float(cluster.bytes_total),
        "parallel.flops": float(cluster.flops_total),
        "parallel.virtual_s": float(cluster.elapsed),
    }


def run(seed: int, seconds: float, trace) -> dict:
    import repro.parallel.simulation as simulation
    from repro.cli import MACHINES
    from repro.experiments.common import PAPER_SYSTEM_SMALL, build_clinical_system
    from repro.util import checksum_array

    setup_times = []
    system = None
    for _ in range(SETUP_REPS):
        system = None
        t0 = time.perf_counter()
        system = build_clinical_system(PAPER_SYSTEM_SMALL, seed=seed)
        setup_times.append(time.perf_counter() - t0)
    setup_layers = trace.take() if trace else None
    reference = reference_solution(system)
    truth = truth_at_nodes(system)
    machine = MACHINES["deep_flow"]

    solves = []
    measured = 0.0
    reset_peak_rss()
    while len(solves) < MIN_SOLVES or measured < seconds:
        t0 = time.perf_counter()
        try:
            # Looked up on the module so a traced run goes through its wrapper.
            sim = simulation.simulate_parallel(
                system.mesh, system.bc, n_ranks=N_RANKS, machine=machine,
                tol=TOL, restart=RESTART,
            )
        except Exception as exc:  # a raising solve counts as failed
            measured += time.perf_counter() - t0
            if trace:
                trace.take()  # a failed operation's layer times are dropped
            solves.append({"solve": len(solves), "failed": f"{type(exc).__name__}: {exc}"})
            continue
        wall = time.perf_counter() - t0
        measured += wall
        disp = sim.displacement
        entry = {
            "solve": len(solves),
            "wall_s": wall,
            "counters": solve_counters(sim),
            "n_equations": int(sim.n_equations),
            "field_sha": checksum_array(np.asarray(disp, dtype=float)),
            "rel_error": float(np.linalg.norm(disp - reference) / np.linalg.norm(reference)),
            "deformation_rms_mm": float(np.sqrt(np.mean(np.sum((disp - truth) ** 2, axis=1)))),
            "layers": trace.take() if trace else None,
        }
        if not sim.solver.converged:
            entry["failed"] = f"GMRES did not converge (residual {sim.solver.residual_norm:.3g})"
        solves.append(entry)
    peak_mb = peak_rss_mb()

    ok = [s for s in solves if "failed" not in s]
    if not ok:
        raise GateFailure("no solve completed")
    bound = ERROR_TOL_MULTIPLE * TOL
    for s in ok:
        if not s["rel_error"] <= bound:
            raise GateFailure(
                f"solve {s['solve']}: relative error {s['rel_error']:.3g} against the "
                f"reference exceeds {ERROR_TOL_MULTIPLE:g} x tol = {bound:.3g}"
            )
        if s["field_sha"] != ok[0]["field_sha"] or s["counters"] != ok[0]["counters"]:
            raise GateFailure(
                f"solve {s['solve']} did not repeat solve {ok[0]['solve']} exactly"
            )
    walls = [s["wall_s"] for s in ok]
    mesh = system.mesh
    return {
        "sizes": {
            "nodes": int(mesh.n_nodes),
            "elements": int(mesh.n_elements),
            "dof": int(mesh.n_dof),
            "equations": ok[0]["n_equations"],
        },
        "setup_times_s": setup_times,
        "setup_layers": setup_layers,
        "ops": solves,
        "attempted": len(solves),
        "failed": len(solves) - len(ok),
        "failures": [{"op": s["solve"], "detail": s["failed"]} for s in solves if "failed" in s],
        "op_timing": timing_summary(walls),
        "end_to_end": {
            "setup_s": median(setup_times),
            "op_s_p50": median(walls),
            "deformation_rms_mm": ok[-1]["deformation_rms_mm"],
            "peak_rss_mb": peak_mb,
        },
        "extra": {
            "solves_per_s": len(ok) / measured if measured else 0.0,
            "rel_error_max": max(s["rel_error"] for s in ok),
            "rel_error_bound": bound,
        },
    }
