"""In-process contract of the coalesced scan round.

:func:`repro.core.session.process_batch_round` solves several same-patient
sessions' scans as one multi-RHS FEM solve. Each member must come out
exactly as a lone :meth:`SurgicalSession.process` run would produce it,
warm-start chain included, and one member's bad input must not stop the
others from committing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline, batch_warm_vector
from repro.core.session import SurgicalSession, process_batch_round
from repro.imaging.phantom import make_neurosurgery_case
from repro.imaging.volume import ImageVolume
from repro.util import ValidationError

SHAPE = (24, 24, 16)


@pytest.fixture(scope="module")
def env():
    patient = make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=11)
    other = make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=12)
    pipeline = IntraoperativePipeline(PipelineConfig(mesh_cell_mm=8.0))
    preop = pipeline.prepare_preoperative(patient.preop_mri, patient.preop_labels)
    # Member a sees the patient's scan then the other one; member b the
    # reverse, so the two members' boundary conditions differ each round.
    chains = {
        "a": [patient.intraop_mri, other.intraop_mri],
        "b": [other.intraop_mri, patient.intraop_mri],
    }
    return patient, pipeline, preop, chains


def _begin(env, checkpoint_dir=None):
    patient, pipeline, preop, _ = env
    return SurgicalSession.begin(
        pipeline,
        patient.preop_mri,
        patient.preop_labels,
        checkpoint_dir=checkpoint_dir,
        preop=preop,
    )


def _assert_same_scan(batched, serial):
    assert np.array_equal(batched.nodal_displacement, serial.nodal_displacement)
    assert np.array_equal(batched.grid_displacement, serial.grid_displacement)
    assert np.array_equal(batched.segmentation.data, serial.segmentation.data)
    for name in (
        "match_rigid_rms",
        "match_simulated_rms",
        "match_rigid_mi",
        "match_simulated_mi",
    ):
        assert getattr(batched, name) == getattr(serial, name), name
    assert batched.simulation.solver.iterations == serial.simulation.solver.iterations
    assert batched.degradation.label == serial.degradation.label == "full-fem"


def test_batch_round_matches_serial_sessions(env):
    _, _, preop, chains = env
    serial = {}
    for name, scans in chains.items():
        preop.solve_context.reset_warm_state()
        session = _begin(env)
        serial[name] = [session.process(scan) for scan in scans]

    preop.solve_context.reset_warm_state()
    sessions = {name: _begin(env) for name in chains}
    x0s = [None, None]
    for round_index in range(2):
        entries = [(sessions[name], chains[name][round_index]) for name in chains]
        results = process_batch_round(entries, x0s=x0s)
        for name, result in zip(chains, results):
            assert sessions[name].n_scans == round_index + 1
            _assert_same_scan(result, serial[name][round_index])
        x0s = [batch_warm_vector(result) for result in results]


def test_nonfinite_member_fails_alone(env, tmp_path):
    patient, _, preop, chains = env
    data = patient.intraop_mri.data.copy()
    data[0, 0, 0] = np.nan
    broken = ImageVolume(data, patient.intraop_mri.spacing, patient.intraop_mri.origin)

    preop.solve_context.reset_warm_state()
    healthy = _begin(env, checkpoint_dir=tmp_path / "ckpt")
    damaged = _begin(env)
    good, bad = process_batch_round(
        [(healthy, chains["a"][0]), (damaged, broken)]
    )
    assert isinstance(bad, ValidationError)
    assert damaged.n_scans == 0
    assert healthy.n_scans == 1 and healthy.latest() is good
    assert [record.scan for record in healthy.store.committed()] == [0]
