"""Batched reactance sweep: both stability verdicts over an (X_d, X_q) grid at one bus.

Between grid points only the swept bus's device changes, so the balance
check, the network Hessian and the other buses' coefficients, stiffness and
energy blocks are computed once per system and flow (`_FlowInvariants`).
Each X_d row of the grid then goes as one stack of its X_q points through the
kernels that `certify` and `eigenvalue_verdict` run on a stack of one, so
every point's verdicts and `min_eig` are those of evaluating it on its own.
A kernel raises if it rejects any point of its stack; the sweep then halves
the stack and evaluates each half again, until the failing point stands alone
and is infeasible in that column. A clean row takes one call per kernel.
"""

from __future__ import annotations

import dataclasses

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
    structural_null_vector,
    synchronizing_coefficient,
)
from .devices import CapabilityError, ConstantPowerLoad
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

_INFEASIBLE = ("infeasible", "infeasible", None)


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
            blocks = _device_blocks(dev, float(flow.theta[i]), ops[i], self.omega0)
            if blocks is None:
                self.equilibrium = False
                break
            _add_device_block(self.H, blocks[0], slices[i], n_x + 2 * i)
            self.R[slices[i], slices[i]] = blocks[1]

    def row(self, x_d, xq_values):
        """(certificate verdict, eigenvalue verdict, min_eig) at each (x_d, x_q)."""
        if not self.certifiable:
            return [_INFEASIBLE] * len(xq_values)
        out, cert, eig = [], [], []  # (point, gamma, device) and (point, Hessian, damping block)
        for k, x_q in enumerate(xq_values):
            try:
                dev = dataclasses.replace(self.device, X_d=x_d, X_q=x_q)
                cert.append((k, synchronizing_coefficient(self.op, dev.X_d, dev.X_q), dev))
            except ValueError:  # reactances the device rejects, or a CapabilityError
                out.append(_INFEASIBLE)
                continue
            out.append([None, "infeasible", None])
            if self.equilibrium and (blocks := _device_blocks(dev, self.theta, self.op, self.omega0)):
                eig.append((k, *blocks))
        if cert:
            _settle(out, 0, self._certify, *zip(*cert))
        if eig:
            _settle(out, 1, self._eigen, *zip(*eig))
        return out

    def _certify(self, out, points, gammas, devices):
        G = np.repeat(self.gammas[None], len(points), axis=0)
        G[:, self.col] = gammas
        verdicts, _ = _gamma_gate(G, self.gens)
        min_eigs = [None] * len(points)
        matrix = [j for j, v in enumerate(verdicts) if v is None]  # what the condition matrix decides
        if matrix:
            blocks = np.repeat(self.blocks[None], len(matrix), axis=0)
            blocks[:, self.bus] = [_stiffness_block(devices[j], self.op) for j in matrix]
            M = np.repeat(self.nh[None], len(matrix), axis=0)
            _add_stiffness(M, blocks, range(blocks.shape[1]))
            lam = _deflated_eigh(M, self.Z)[0]
            for j, v, m in zip(matrix, _band(lam, "stable"), lam):
                verdicts[j], min_eigs[j] = v, float(m)
        for k, v, m in zip(points, verdicts, min_eigs):
            out[k][0], out[k][2] = v, m

    def _eigen(self, out, points, hessians, dampings):
        H = np.repeat(self.H[None], len(points), axis=0)
        _add_device_block(H, np.array(hessians), self.states, self.bus_col)
        R = np.repeat(self.R[None], len(points), axis=0)
        R[:, self.states, self.states] = np.array(dampings)
        verdicts, _ = _spectrum_verdicts(_spectra(R, _kron_reduce(H, self.n_x)[0]))
        for k, v in zip(points, verdicts):
            out[k][1] = v


def _settle(out, column, evaluate, points, *stacks):
    """Run `evaluate(out, points, *stacks)`; where it raises, run each half of the stack again.

    A point that still raises on its own is infeasible in `column`.
    """
    try:
        evaluate(out, points, *stacks)
    except (CertificateError, DegenerateEquilibriumError, np.linalg.LinAlgError):
        if len(points) == 1:
            out[points[0]][column] = "infeasible"
            return
        half = len(points) // 2
        for part in (slice(None, half), slice(half, None)):
            _settle(out, column, evaluate, points[part], *(stack[part] for stack in stacks))


def _device_blocks(dev, theta, op, omega0):
    """Energy Hessian and damping block of a device at its stationary state, or None where
    `PowerSystem.equilibrium` would raise, after which `assemble_energy_hessian`'s check holds."""
    try:
        setpoint = dev.stationary_setpoint(op)
        state = dev.stationary_state(theta, op, omega0)
    except ValueError:  # capability, stationary residual, or a load the flow does not match
        return None
    return dev.energy_hessian(state, theta, op.V, setpoint, omega0), dev.damping_block(omega0)
