"""Batched sweep evaluation against the one-point-at-a-time library calls it replaces.

Byte equality of whole sweeps with the per-point oracle is tested in
test_cli.py; these tests cover what those grids cannot reach.
"""

import numpy as np
import pytest

import gridcert as gc
from gridcert.linearization import (
    KRON_COND_LIMIT,
    assemble_energy_hessian,
    damping_matrix,
    kron_reduce,
)
from gridcert.sweep import _eigen_verdicts, _spectrum_verdicts, sweep_verdicts

from _oracles import solved


@pytest.fixture
def fixture_cfg():
    return gc.load_config(gc.fixture_path("three_bus.json"))


@pytest.fixture
def fixture_matrices(fixture_cfg):
    """Energy Hessian, damping matrix and state count of the fixture at its equilibrium."""
    system = fixture_cfg.system
    eq = system.equilibrium(solved(fixture_cfg))
    assert gc.eigenvalue_verdict(system, eq).verdict == "stable"
    return assemble_energy_hessian(system, eq).matrix, damping_matrix(system), system.n_states


def test_lapack_failure_stays_with_its_matrix(fixture_matrices):
    H, R, n_x = fixture_matrices
    bad_kron = H.copy()
    bad_kron[n_x, n_x] = np.nan  # the stacked cond raises
    bad_spectrum = H.copy()
    bad_spectrum[0, 0] = np.inf  # the stacked eigvals raises
    with np.errstate(invalid="ignore"):  # inf times the zeros of R
        for bad in (bad_kron, bad_spectrum):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvals(-R @ kron_reduce(bad, n_x))
        verdicts = _eigen_verdicts(np.stack([H, bad_kron, bad_spectrum, H]), np.stack([R] * 4), n_x)
    assert verdicts == ["stable", "infeasible", "infeasible", "stable"]


def test_kron_condition_limit(fixture_matrices):
    H, R, n_x = fixture_matrices
    stack = []
    for scale in (1e-4, 1e-9):  # shrink one voltage row and column of the algebraic block
        Hs = H.copy()
        Hs[n_x + 1, :] *= scale
        Hs[:, n_x + 1] *= scale
        stack.append(Hs)
    conds = [np.linalg.cond(Hs[n_x:, n_x:]) for Hs in stack]
    assert 1e6 < conds[0] < KRON_COND_LIMIT < conds[1] < np.inf
    kron_reduce(stack[0], n_x)
    with pytest.raises(np.linalg.LinAlgError):
        kron_reduce(stack[1], n_x)
    verdicts = _eigen_verdicts(np.stack(stack), np.stack([R, R]), n_x)
    assert verdicts[0] != "infeasible"
    assert verdicts[1] == "infeasible"


@pytest.mark.parametrize("spectrum, verdict", [
    ([-1.0, 0.0, -2 + 1j, -2 - 1j], "stable"),
    ([0.0], "stable"),  # the zero mode alone
    ([0.0, 0.5, -1.0], "unstable"),
    ([0.0, 1e-8 + 1j, 1e-8 - 1j, -1.0], "marginal"),
    ([0.0, 1e-8, -1.0], "infeasible"),  # two eigenvalues within EIG_TOL of zero
    ([-1e-3, -1.0, -2.0], "infeasible"),  # no structural zero mode
])
def test_spectrum_verdicts(spectrum, verdict):
    spectra = np.array([spectrum, spectrum], dtype=complex)
    assert _spectrum_verdicts(spectra) == [verdict, verdict]
    if np.isrealobj(np.array(spectrum)):
        assert _spectrum_verdicts(spectra.real) == [verdict, verdict]


def test_load_bus_rejected(fixture_cfg):
    cfg = gc.apply_load_mode(fixture_cfg, "following")
    with pytest.raises(ValueError, match="sweep bus"):
        next(sweep_verdicts(cfg.system, solved(cfg), 1, [0.1], [0.1]))
