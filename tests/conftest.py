"""Shared fixtures: small phantom cases and meshes reused across tests.

Session-scoped because phantom construction and meshing dominate test
runtime; tests must not mutate these objects (copy first).
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.imaging.phantom import Tissue, make_neurosurgery_case
from repro.mesh.generator import mesh_labeled_volume

BRAIN_LABELS = (
    int(Tissue.BRAIN),
    int(Tissue.VENTRICLE),
    int(Tissue.FALX),
    int(Tissue.TUMOR),
)


@pytest.fixture(scope="session")
def small_case():
    """A 32x32x24 neurosurgery case with 5 mm peak shift."""
    return make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)


@pytest.fixture(scope="session")
def medium_case():
    """A 48x48x36 case for integration tests needing finer voxels."""
    return make_neurosurgery_case(shape=(48, 48, 36), shift_mm=6.0, seed=43)


@pytest.fixture(scope="session")
def brain_mesher(small_case):
    """Coarse brain mesh (plus locator) of the small case."""
    return mesh_labeled_volume(small_case.preop_labels, 9.0, BRAIN_LABELS)


@pytest.fixture(scope="session")
def brain_mesh(brain_mesher):
    return brain_mesher.mesh


@pytest.fixture(scope="session")
def medium_mesher(medium_case):
    return mesh_labeled_volume(medium_case.preop_labels, 7.0, BRAIN_LABELS)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


#: How long a finished test's threads and child processes get to exit
#: (feeder threads flush, terminated workers are reaped) before they
#: count as leaked.
LEAK_GRACE_S = 2.0


@pytest.fixture()
def no_leaks():
    """Fail the test when it leaves new threads or child processes alive.

    Serving tests start worker processes, queue feeder threads, event
    loops and socket servers; every one must be stopped by the time the
    test returns. Apply with ``pytestmark = pytest.mark.usefixtures("no_leaks")``.
    """
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        threads = [t for t in threading.enumerate() if t not in threads_before]
        # active_children() also reaps children that already exited.
        children = [
            p for p in multiprocessing.active_children() if p not in children_before
        ]
        if not (threads or children) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    assert not threads, f"test leaked threads: {[t.name for t in threads]}"
    assert not children, f"test leaked child processes: {[p.name for p in children]}"
