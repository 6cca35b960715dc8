"""Memory shape of the two dense oracle steps, from tracemalloc's record of numpy's arrays.

At n buses and n_x device states the eigenvalue oracle needs only the Kron
blocks of the (n_x + 2n)-square energy Hessian, and the certificate one
2n-square condition matrix at a time.
"""

import tracemalloc

import numpy as np

import gridcert as gc

from _oracles import random_system


def test_dense_steps_hold_no_whole_matrix(monkeypatch):
    system, flow = random_system(np.random.default_rng(0), angle_scale=0.1, n_bus=150)
    eq = system.equilibrium(flow)
    n, n_x = system.n_bus, system.n_states
    whole = (n_x + 2 * n) ** 2 * 8  # bytes of the whole energy Hessian
    square = (2 * n) ** 2 * 8  # bytes of the condition matrix
    largest, at_eigh = [], []

    def largest_array_alive(fn):
        def watched(*args, **kwargs):
            largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
            return fn(*args, **kwargs)
        return watched

    def eigh_from_here(fn):
        def watched(*args, **kwargs):
            at_eigh.append([memory - base for memory in tracemalloc.get_traced_memory()])
            tracemalloc.reset_peak()
            return fn(*args, **kwargs)
        return watched

    tracemalloc.start()
    try:
        with monkeypatch.context() as patch:
            for name in ("eigvalsh", "solve", "eigvals"):
                patch.setattr(np.linalg, name, largest_array_alive(getattr(np.linalg, name)))
            gc.eigenvalue_verdict(system, eq)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh_from_here(np.linalg.eigh))
            report = gc.certify(flow, system)
            eigh_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    assert len(largest) == 3 and max(largest) < whole
    assert report.min_eig is not None and len(at_eigh) == 1
    (alive, deflation_peak), = at_eigh
    # the deflation holds at most three of M, the reflector, Z^T M and Z^T M Z at once
    assert deflation_peak < 3.5 * square
    # only the deflated matrix is alive when eigh starts; from there on, it and the eigenvectors
    assert alive < 1.5 * square
    assert eigh_peak < 2.5 * square
