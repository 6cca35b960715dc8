"""Batched reactance sweep: both stability verdicts over an (X_d, X_q) grid at one bus.

Between grid points only the swept bus's device changes, so the balance
check, the network Hessian and the other buses' coefficients, stiffness and
energy blocks are computed once per system and flow (`_FlowInvariants`).
Each X_d row of the grid is one row of swept devices: their closed forms are
evaluated once, over arrays of the row's points, and the row goes as one
stack through the kernels that `certify` and `eigenvalue_verdict` run on a
stack of one, so every point's verdicts and `min_eig` are those of
evaluating it on its own. A kernel raises if it rejects any point of its
stack; the sweep then halves the stack and evaluates each half again, until
the failing point stands alone and is infeasible in that column. A clean row
takes one call per kernel.
"""

from __future__ import annotations

import numpy as np

from .certificate import (
    CertificateError,
    _add_stiffness,
    _band,
    _check_balance,
    _complement_basis,
    _deflated_eigh,
    _gamma_gate,
    _stiffness_block,
    bus_stiffness_block,
    structural_null_vector,
    synchronizing_coefficient,
)
from .devices import CapabilityError, ConstantPowerLoad, _capability
from .linearization import (
    DegenerateEquilibriumError,
    _add_device_block,
    _kron_reduce,
    _residual_error,
    _spectra,
    _spectrum_verdicts,
)
from .network import network_hessian

__all__ = ["sweep_verdicts"]


def sweep_verdicts(system, flow, bus, xd_values, xq_values):
    """Certificate and eigenvalue verdicts with bus index `bus`'s device at each (X_d, X_q).

    Yields (x_d, x_q, certificate verdict, eigenvalue verdict, min_eig) for
    every grid point, X_d-major; min_eig is None where the certificate stops
    at a synchronizing coefficient. A verdict is infeasible where the library
    call behind it would raise, and both are where the device cannot be built.
    A non-positive bus voltage in `flow` raises ValueError.
    """
    if isinstance(system.devices[bus], ConstantPowerLoad):
        raise ValueError("sweep bus must host a generator or grid-forming inverter")
    invariants = _FlowInvariants(system, flow, bus)
    for x_d in xd_values:
        for x_q, verdicts in zip(xq_values, invariants.row(x_d, xq_values)):
            yield (x_d, x_q, *verdicts)


class _FlowInvariants:
    """What the swept device does not change, and the evaluation of one X_d row."""

    def __init__(self, system, flow, bus):
        net, n, devices = system.net, system.n_bus, system.devices
        self.device, self.bus, self.omega0 = devices[bus], bus, system.omega0
        self.theta = float(flow.theta[bus])
        # certificate: each point sets the swept bus's coefficient and stiffness block
        self.gens = [i for i, dev in enumerate(devices) if not isinstance(dev, ConstantPowerLoad)]
        self.col, self.certifiable = self.gens.index(bus), True
        try:
            residual = _check_balance(system, flow)
            ops = [system.operating_point(flow, i) for i in range(n)]
            self.gammas = np.array([np.nan if i == bus else synchronizing_coefficient(
                ops[i], devices[i].X_d, devices[i].X_q) for i in self.gens])
        except (CertificateError, CapabilityError):
            self.certifiable = False
            return
        self.op, self.Z = ops[bus], _complement_basis(structural_null_vector(n))
        self.nh = nh = network_hessian(flow.theta, flow.V, net.B)
        try:
            self.blocks = np.array([np.zeros((2, 2)) if i == bus else _stiffness_block(dev, ops[i])
                                    for i, dev in enumerate(devices)])
        except CertificateError:
            self.blocks = None  # a coefficient <= 0 decides every point before the matrix

        # eigenvalue oracle: energy Hessian and damping matrix without the swept device
        self.n_x = n_x = system.n_states
        slices = system.state_slices()
        self.states, self.bus_col = slices[bus], n_x + 2 * bus
        self.H = np.pad(nh, (n_x, 0))  # device states first, then the bus (theta, V) pairs
        self.R = np.zeros((n_x, n_x))
        self.equilibrium = _residual_error(residual) is None
        for i, dev in enumerate(devices):
            if i == bus:
                continue
            try:
                hessian, damping, holds = _device_blocks(dev, float(flow.theta[i]), ops[i],
                                                         self.omega0)
            except ValueError:  # capability, or a load the flow does not match
                holds = False
            if not holds:
                self.equilibrium = False
                break
            _add_device_block(self.H, hessian, slices[i], n_x + 2 * i)
            self.R[slices[i], slices[i]] = damping

    def row(self, x_d, xq_values):
        """(certificate verdict, eigenvalue verdict, min_eig) at each (x_d, x_q)."""
        n = len(xq_values)
        out = [np.full(n, value, dtype=object) for value in ("infeasible", "infeasible", None)]
        if not self.certifiable:
            return list(zip(*out))
        xd, xq = np.full(n, x_d, dtype=float), np.asarray(xq_values, dtype=float)
        # a closed form that overflows is left to the kernels, which reject its point
        with np.errstate(all="ignore"):
            # where the device can be built and has an internal phase; both verdicts stay
            # infeasible elsewhere
            points = np.flatnonzero(self.device.admits(X_d=xd, X_q=xq)
                                    & ~_capability(self.op, xq)[1])
            dev = self.device.with_reactances(xd[points], xq[points])
            if points.size:
                gammas = synchronizing_coefficient(self.op, dev.X_d, dev.X_q)
                _settle(out, 0, self._certify, points, gammas, dev.X_d, dev.X_q)
            if self.equilibrium:
                hessians, dampings, holds = _device_blocks(dev, self.theta, self.op, self.omega0)
                dampings = np.broadcast_to(dampings, hessians.shape[:1] + dampings.shape[-2:])
                if holds.any():
                    _settle(out, 1, self._eigen, points[holds], hessians[holds], dampings[holds])
        return list(zip(*out))

    def _certify(self, out, points, gammas, xd, xq):
        G = np.repeat(self.gammas[None], len(points), axis=0)
        G[:, self.col] = gammas
        verdicts = np.array(_gamma_gate(G, self.gens)[0], dtype=object)
        min_eigs = np.full(len(points), None, dtype=object)
        matrix = np.flatnonzero(np.equal(verdicts, None))  # what the condition matrix decides
        if matrix.size:
            blocks = np.repeat(self.blocks[None], matrix.size, axis=0)
            blocks[:, self.bus] = bus_stiffness_block(self.op, xd[matrix], xq[matrix])
            M = np.repeat(self.nh[None], matrix.size, axis=0)
            _add_stiffness(M, blocks, range(blocks.shape[1]))
            lam = _deflated_eigh(M, self.Z)[0]
            verdicts[matrix], min_eigs[matrix] = _band(lam, "stable"), lam.tolist()
        out[0][points], out[2][points] = verdicts, min_eigs

    def _eigen(self, out, points, hessians, dampings):
        H = np.repeat(self.H[None], len(points), axis=0)
        _add_device_block(H, hessians, self.states, self.bus_col)
        R = np.repeat(self.R[None], len(points), axis=0)
        R[:, self.states, self.states] = dampings
        out[1][points] = _spectrum_verdicts(_spectra(R, _kron_reduce(H, self.n_x)[0]))[0]


def _settle(out, column, evaluate, points, *stacks):
    """Run `evaluate(out, points, *stacks)`; where it raises, run each half of the stack again.

    A point that still raises on its own is infeasible in `column`.
    """
    try:
        evaluate(out, points, *stacks)
    except (CertificateError, DegenerateEquilibriumError, np.linalg.LinAlgError):
        if len(points) == 1:
            out[column][points[0]] = "infeasible"
            return
        half = len(points) // 2
        for part in (slice(None, half), slice(half, None)):
            _settle(out, column, evaluate, points[part], *(stack[part] for stack in stacks))


def _device_blocks(dev, theta, op, omega0):
    """Energy Hessian and damping block of a device, or of a row of devices, at its stationary
    state, and where that state passes `stationary_state`'s check; where it does,
    `assemble_energy_hessian`'s check passes too."""
    setpoint, state, holds, _ = dev.stationary(theta, op, omega0)
    return dev.energy_hessian(state, theta, op.V, setpoint, omega0), dev.damping_block(omega0), holds
