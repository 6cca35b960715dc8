"""Batched sweep evaluation against the one-point-at-a-time library calls it replaces.

Byte equality of whole sweeps with the per-point oracle is tested in
test_cli.py; these tests cover what those grids cannot reach.
"""

import math

import numpy as np
import pytest

import gridcert as gc
from gridcert.certificate import bus_stiffness_block, synchronizing_coefficient
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


def test_overflowing_closed_forms_are_certificate_infeasible(fixture_cfg, monkeypatch):
    cfg = gc.apply_load_mode(fixture_cfg, "forming")
    flow = solved(cfg)
    op = cfg.system.operating_point(flow, 2)
    with np.errstate(all="ignore"):
        assert not math.isfinite(synchronizing_coefficient(op, 1e-320, 0.069))
        assert math.isfinite(synchronizing_coefficient(op, 1e-299, 1e-10))
        assert not math.isfinite(bus_stiffness_block(op, 1e-299, 1e-10)[1, 1])
    finite_inputs = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        finite_inputs.append(bool(np.isfinite(a).all()))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    with np.errstate(all="ignore"):
        gamma_row = list(sweep_verdicts(cfg.system, flow, 2, [1e-320], [0.069]))
        stiffness_row = list(sweep_verdicts(cfg.system, flow, 2, [1e-299], [1e-10, 0.069]))
    # the verdict does not wait for LAPACK to fail: only (1e-299, 0.069) reaches eigh
    assert finite_inputs == [True]
    for point in (gamma_row[0], stiffness_row[0]):
        assert point[2] == "infeasible" and point[4] is None
    assert stiffness_row[1][2] in ("stable", "unstable")


@pytest.mark.parametrize("name, column", [("eigh", 2), ("cond", 3)])
def test_rejected_matrix_stays_with_its_point(fixture_cfg, monkeypatch, name, column):
    # eigh takes the certificate's condition matrices, cond the Kron blocks H_vv
    cfg = gc.apply_load_mode(fixture_cfg, "forming")
    flow = solved(cfg)
    grid = ([0.1, 4.0], [0.069, 4.0])
    expected = list(sweep_verdicts(cfg.system, flow, 2, *grid))
    assert all(row[2] in ("stable", "unstable") for row in expected)
    assert all(row[3] in ("stable", "unstable") for row in expected)
    original = getattr(np.linalg, name)
    calls = []

    def fussy(a):  # rejects every stack, and the first matrix redone on its own
        calls.append(a.ndim)
        if a.ndim == 3 or calls.count(2) == 1:
            raise np.linalg.LinAlgError("rejected")
        return original(a)

    monkeypatch.setattr(np.linalg, name, fussy)
    rows = list(sweep_verdicts(cfg.system, flow, 2, *grid))
    first = list(expected[0])
    first[column] = "infeasible"
    if name == "eigh":
        first[4] = None
    assert rows[0] == tuple(first)
    assert rows[1:] == expected[1:]
