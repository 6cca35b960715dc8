"""Batched sweep evaluation against the one-point-at-a-time library calls it replaces.

Byte equality of whole sweeps with the per-point oracle is tested in
test_cli.py; these tests cover what those grids cannot reach: the verdicts
do not depend on where the grid is cut into stacks, a stack never holds more
points than its memory bound allows, a stack a kernel rejects is halved until
the rejected point stands alone, a clean stack is evaluated by one stacked
call per kernel, and what the flow alone fixes is computed once per load
mode. The kernels the sweep shares with `certify` and
`eigenvalue_verdict` are tested beside them, in test_certificate.py and
test_linearization.py.
"""

import dataclasses
import math

import numpy as np
import pytest

import gridcert as gc
from gridcert import certificate, cli, devices, sweep
from gridcert import system as system_module
from gridcert.certificate import bus_stiffness_block, synchronizing_coefficient
from gridcert.linearization import DegenerateEquilibriumError, _spectrum_verdicts
from gridcert.sweep import sweep_verdicts

from _oracles import random_system, solved, sweep_point, three_bus_doc


@pytest.fixture
def fixture_cfg():
    return gc.load_config(gc.fixture_path("three_bus.json"))


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
    inputs = [spectra, spectra.real] if np.isrealobj(np.array(spectrum)) else [spectra]
    for eig in inputs:
        if verdict == "infeasible":
            with pytest.raises(DegenerateEquilibriumError):
                _spectrum_verdicts(eig)
        else:
            assert _spectrum_verdicts(eig)[0] == [verdict, verdict]


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


@pytest.mark.parametrize("name, column", [("eigh", 2), ("eigvalsh", 3)])
def test_rejected_matrix_stays_with_its_point(fixture_cfg, monkeypatch, name, column):
    # eigh takes the certificate's condition matrices, eigvalsh the Kron blocks H_vv
    cfg = gc.apply_load_mode(fixture_cfg, "forming")
    flow = solved(cfg)
    grid = ([0.1, 4.0], [0.069, 4.0])
    expected = list(sweep_verdicts(cfg.system, flow, 2, *grid))
    assert all(row[2] in ("stable", "unstable") for row in expected)
    assert all(row[3] in ("stable", "unstable") for row in expected)
    original = getattr(np.linalg, name)
    target, sizes = [], []

    def fussy(a):  # rejects every stack that holds the first point's matrix
        if not target:
            target.append(a[0].copy())
        sizes.append(len(a))
        if any(np.array_equal(m, target[0]) for m in a):
            raise np.linalg.LinAlgError("rejected")
        return original(a)

    monkeypatch.setattr(np.linalg, name, fussy)
    rows = list(sweep_verdicts(cfg.system, flow, 2, *grid))
    # the grid's one stack, its first half, that half's halves, then the second half
    assert sizes == [4, 2, 1, 1, 2]
    first = list(expected[0])
    first[column] = "infeasible"
    if name == "eigh":
        first[4] = None
    assert rows[0] == tuple(first)
    assert rows[1:] == expected[1:]


def _rows_and_oracle(cfg, bus, xd_values, xq_values):
    """The sweep's rows at bus index `bus` as text cells, and `sweep_point`'s for each point."""
    flow = solved(cfg)
    rows = [(v_cert, v_eig, "" if min_eig is None else f"{min_eig:.12g}")
            for _, _, v_cert, v_eig, min_eig in sweep_verdicts(cfg.system, flow, bus, xd_values,
                                                               xq_values)]
    return rows, [sweep_point(cfg, flow, bus, x_d, x_q) for x_d in xd_values for x_q in xq_values]


def test_uncertifiable_bus_makes_every_point_infeasible():
    doc = three_bus_doc()
    # bus 2's device leaves its capability region at the fixture's flow
    doc["buses"][1]["device"] = {"kind": "vsg", "M": 0.2, "D": 1.0, "X_d": 5.0, "X_q": 5.0}
    rows, expected = _rows_and_oracle(gc.parse_config(doc), 2, [0.1, 4.0], [0.069, 4.0])
    assert rows == expected == [("infeasible", "infeasible", "")] * 4


def test_load_off_its_flow_makes_every_point_infeasible():
    doc = three_bus_doc()
    # bus 2's load draws Q = -3.0 where the flow's pq spec sets -0.5
    doc["buses"][1]["device"] = {"kind": "load", "P_ref": -3.5, "Q_ref": -3.0}
    rows, expected = _rows_and_oracle(gc.parse_config(doc), 2, [0.1, 4.0], [0.069, 4.0])
    assert rows == expected == [("infeasible", "infeasible", "")] * 4


def test_unbalanced_flow_makes_every_point_infeasible(fixture_cfg):
    cfg = gc.apply_load_mode(fixture_cfg, "forming")
    flow = solved(cfg)
    unbalanced = dataclasses.replace(flow, P=flow.P + 0.5)
    rows = list(sweep_verdicts(cfg.system, unbalanced, 2, [0.1, 4.0], [0.069]))
    assert [row[2:] for row in rows] == [("infeasible", "infeasible", None)] * 2


def test_missing_equilibrium_makes_every_eigen_verdict_infeasible():
    # bus 3's VSG has no stationary state at these reactances; the certificate needs none
    cfg = gc.parse_config(three_bus_doc(x3=(1e-6, 5e5)))
    rows, expected = _rows_and_oracle(cfg, 0, [0.08, 0.1, 0.5], [0.069, 0.2])
    assert rows == expected
    assert {v_eig for _, v_eig, _ in rows} == {"infeasible"}
    assert all(v_cert in ("stable", "unstable") and min_eig for v_cert, _, min_eig in rows)


def test_clean_stacks_take_one_call_per_kernel(fixture_cfg, monkeypatch):
    # the benchmark grid: no kernel rejects a point, so no stack is evaluated twice, and the
    # swept device's closed forms are evaluated once per stack, over arrays of its points
    calls = {"eigh": 0, "eigvalsh": 0, "eigvals": 0, "internal_phase": 0}
    for name in ("eigh", "eigvalsh", "eigvals"):
        def counting(a, _original=getattr(np.linalg, name), _name=name):
            calls[_name] += 1
            return _original(a)
        monkeypatch.setattr(np.linalg, name, counting)

    def counting_phase(op, X_q, _original=devices.internal_phase):
        calls["internal_phase"] += 1
        return _original(op, X_q)
    for module in (devices, certificate):
        monkeypatch.setattr(module, "internal_phase", counting_phase)
    grid = np.linspace(0.1, 12, 40)
    for mode in ("forming", "following"):
        cfg = gc.apply_load_mode(fixture_cfg, mode)
        rows = list(sweep_verdicts(cfg.system, solved(cfg), cfg.bus_ids.index(3), grid, grid))
        assert "infeasible" not in {v for row in rows for v in row[2:4]}
    phases = calls.pop("internal_phase")
    # 1,600 points per mode: 5 stacks of <= 334 forming points (energy Hessian 14 x 14) and
    # 4 of <= 455 following points (12 x 12) at 2**16 entries a stack
    assert sweep._STACK_ENTRIES == 2**16
    assert calls == {"eigh": 9, "eigvalsh": 9, "eigvals": 9}
    # a handful of calls per stack, where one per point would be 3,200
    assert 9 <= phases <= 8 * 9


def _cut_sweeps(monkeypatch, cfg, bus, xd_values, xq_values, per_stack):
    """The sweep's points with `_STACK_ENTRIES` set so that stacks hold `per_stack` points."""
    size = cfg.system.n_states + 2 * cfg.system.n_bus
    monkeypatch.setattr(sweep, "_STACK_ENTRIES", per_stack * size**2)
    return list(sweep_verdicts(cfg.system, solved(cfg), bus, xd_values, xq_values))


@pytest.mark.parametrize("mode", ["forming", "following"])
def test_stack_cuts_do_not_change_the_sweep(fixture_cfg, monkeypatch, mode):
    cfg = gc.apply_load_mode(fixture_cfg, mode)
    bus = cfg.bus_ids.index(3)
    # X_d = 0 cannot be built; the rest of the grid is stable or unstable in both modes
    xd_values, xq_values = [0.0, 0.1, 1.0, 3.0, 8.0, 12.0], [0.069, 0.4, 1.0, 1.6, 6.0]
    # one point a stack, 7 (cutting the 5-point rows mid-row), and the whole grid as one stack
    one, seven, whole = (_cut_sweeps(monkeypatch, cfg, bus, xd_values, xq_values, k)
                         for k in (1, 7, 30))
    assert one == seven == whole
    assert [(x_d, x_q) for x_d, x_q, *_ in one] == [(x_d, x_q) for x_d in xd_values
                                                    for x_q in xq_values]
    verdicts = {v for row in one for v in row[2:4]}
    assert verdicts == {"infeasible", "stable", "unstable"}
    flow = solved(cfg)
    cells = [(v_cert, v_eig, "" if min_eig is None else f"{min_eig:.12g}")
             for _, _, v_cert, v_eig, min_eig in one]
    assert cells == [sweep_point(cfg, flow, bus, x_d, x_q)
                     for x_d in xd_values for x_q in xq_values]
    assert _cut_sweeps(monkeypatch, cfg, bus, [], xq_values, 7) == []
    assert _cut_sweeps(monkeypatch, cfg, bus, xd_values, [], 7) == []


def test_stacks_stay_bounded_on_a_large_system(monkeypatch):
    drawn, flow = random_system(np.random.default_rng(1), n_bus=30)
    bus = next(i for i, dev in enumerate(drawn.devices)
               if not isinstance(dev, devices.ConstantPowerLoad))
    bound = max(1, sweep._STACK_ENTRIES // (drawn.n_states + 2 * drawn.n_bus) ** 2)
    sizes, eigvals = [], np.linalg.eigvals

    def recording_eigvals(a):
        sizes.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    dev = drawn.devices[bus]
    rows = list(sweep_verdicts(drawn, flow, bus, [dev.X_d * s for s in (0.5, 1, 2)],
                               [dev.X_q * s for s in (0.5, 1, 2, 4)]))
    assert len(rows) == 12 and bound < 12
    assert sizes and max(sizes) == bound  # 12 points take several stacks, the first full


def test_flow_terms_once_per_mode(capsys, monkeypatch):
    # the balance check's power_balance and the network Hessian run once per load mode, never
    # per stack or point
    calls = {"network_hessian": 0, "power_balance": 0, "evaluate": 0}
    for owner, name in ((sweep, "network_hessian"), (system_module, "power_balance"),
                        (sweep._Sweep, "evaluate")):
        def counting(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    # 2 points a stack in both modes (energy Hessians 14 x 14 and 12 x 12): 5 stacks per mode
    monkeypatch.setattr(sweep, "_STACK_ENTRIES", 2 * 14**2)
    argv = ["sweep", "--config", str(gc.fixture_path("three_bus.json")), "--sweep-bus", "3",
            "--xd-range", "0.1:4:3", "--xq-range", "0.1:4:3", "--no-timestamp"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 19  # header, then 9 points per mode
    assert calls == {"network_hessian": 2, "power_balance": 2, "evaluate": 10}


def test_min_eig_equals_certify_bit_for_bit(fixture_cfg):
    # the CSV's 12 digits would hide a last-bit slip in the row's closed forms
    grid = np.linspace(0.1, 12, 12)
    for mode in ("forming", "following"):
        cfg = gc.apply_load_mode(fixture_cfg, mode)
        flow = solved(cfg)
        bus = cfg.bus_ids.index(3)
        for x_d, x_q, _, _, min_eig in sweep_verdicts(cfg.system, flow, bus, grid, grid):
            swept = list(cfg.system.devices)
            swept[bus] = dataclasses.replace(swept[bus], X_d=x_d, X_q=x_q)
            system = gc.PowerSystem(cfg.system.net, swept, cfg.system.omega0)
            assert min_eig == gc.certify(flow, system, bus_ids=cfg.bus_ids).min_eig
