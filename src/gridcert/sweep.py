"""Batched reactance sweep: both stability verdicts over an (X_d, X_q) grid at one bus.

Between grid points only the swept bus's device changes. The certificate's
condition matrix moves only in that bus's (V, V) stiffness entry, and the
energy Hessian and damping matrix only in that device's blocks. So for one
system and power flow, the balance check, the network Hessian, the other
buses' synchronizing coefficients, stiffness blocks, equilibria, energy
Hessian and damping blocks and the complement basis of the uniform phase
shift are computed once (`_FlowInvariants`). Each X_d row of the grid is then
evaluated as one stack of its X_q points: the deflated condition matrices
under one `eigh`, the Kron reductions under one `cond` and one `solve`, the
state matrices under one `eigvals`.

Each point's matrices are formed and reduced with the same floating-point
operations, in the same order, as `certify` and `eigenvalue_verdict` apply to
the system holding that point's device, so the verdicts and `min_eig` are
those of evaluating the points one at a time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .certificate import (
    CERT_TOL,
    _complement_basis,
    bus_stiffness_block,
    load_stiffness_block,
    structural_null_vector,
    synchronizing_coefficient,
)
from .devices import CapabilityError, ConstantPowerLoad
from .linearization import _EQUILIBRIUM_TOL, EIG_TOL, KRON_COND_LIMIT, _add_device_block
from .network import network_hessian

__all__ = ["sweep_verdicts"]

_INFEASIBLE = ("infeasible", "infeasible", None)


def sweep_verdicts(system, flow, bus, xd_values, xq_values):
    """Certificate and eigenvalue verdicts with bus index `bus`'s device at each (X_d, X_q).

    Yields (x_d, x_q, certificate verdict, eigenvalue verdict, min_eig) for
    every grid point, X_d-major, evaluating one X_d row at a time; min_eig is
    None where the certificate stops at a synchronizing coefficient. A point
    is infeasible under both verdicts where its device cannot be built, an
    operating point leaves a capability region or the flow fails certify's
    balance check; under the eigenvalue verdict alone where the equilibrium
    cannot be built or Kron-reduced or the spectrum has no single zero mode.
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
        net, n = system.net, system.n_bus
        self.device = system.devices[bus]
        self.omega0 = system.omega0
        self.theta = float(flow.theta[bus])

        residual = system.balance_residual(flow)
        scale = max(1.0, float(np.max(np.abs(net.B))) if n > 1 else 1.0)
        self.certifiable = residual <= 1e-6 * scale  # certify's check of the flow
        if not self.certifiable:
            return
        ops = [system.operating_point(flow, i) for i in range(n)]
        self.op = ops[bus]
        nh = network_hessian(flow.theta, flow.V, net.B)

        # certificate: the other buses' coefficients and the condition matrix without
        # the swept bus's (V, V) stiffness, which each point adds to nh[vv, vv]
        gammas = []
        for i, dev in enumerate(system.devices):
            if i != bus and not isinstance(dev, ConstantPowerLoad):
                try:
                    gammas.append(synchronizing_coefficient(ops[i], dev.X_d, dev.X_q))
                except CapabilityError:
                    self.certifiable = False
                    return
        self.gamma = min(gammas, default=np.inf)
        self.vv = 2 * bus + 1
        self.nh_vv = nh[self.vv, self.vv]
        if self.gamma > CERT_TOL:
            M = nh.copy()
            for i, dev in enumerate(system.devices):
                if i == bus:
                    block = np.zeros((2, 2))
                elif isinstance(dev, ConstantPowerLoad):
                    block = load_stiffness_block(dev.Q_ref, ops[i].V)
                else:
                    block = bus_stiffness_block(ops[i], dev.X_d, dev.X_q)
                M[2 * i:2 * i + 2, 2 * i:2 * i + 2] += block
            self.M = M
            self.Z = _complement_basis(structural_null_vector(n))

        # eigenvalue oracle: energy Hessian and damping matrix without the swept device
        self.n_x = n_x = system.n_states
        slices = system.state_slices()
        self.states, self.bus_col = slices[bus], n_x + 2 * bus
        self.H = np.zeros((n_x + 2 * n, n_x + 2 * n))
        self.H[n_x:, n_x:] = nh
        self.R = np.zeros((n_x, n_x))
        self.equilibrium = residual <= _EQUILIBRIUM_TOL
        for i, dev in enumerate(system.devices):
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
        out = []
        cert, stiffness = [], []  # points that reach the condition matrix
        eig, hessians, dampings = [], [], []  # points that reach the spectrum
        for k, x_q in enumerate(xq_values):
            try:
                dev = dataclasses.replace(self.device, X_d=x_d, X_q=x_q)
            except ValueError:
                out.append(_INFEASIBLE)
                continue
            if not self.certifiable:
                out.append(_INFEASIBLE)
                continue
            try:
                gamma = synchronizing_coefficient(self.op, dev.X_d, dev.X_q)
            except CapabilityError:
                out.append(_INFEASIBLE)
                continue
            worst = min(gamma, self.gamma)
            v_cert = "unstable" if worst < -CERT_TOL else "marginal" if worst <= CERT_TOL else None
            if v_cert is None:
                cert.append(k)
                stiffness.append(bus_stiffness_block(self.op, dev.X_d, dev.X_q)[1, 1])
            blocks = (_device_blocks(dev, self.theta, self.op, self.omega0)
                      if self.equilibrium else None)
            if blocks is None:
                out.append([v_cert, "infeasible", None])
                continue
            eig.append(k)
            hessians.append(blocks[0])
            dampings.append(blocks[1])
            out.append([v_cert, None, None])

        if cert:
            M = np.repeat(self.M[None], len(cert), axis=0)
            M[:, self.vv, self.vv] = self.nh_vv + np.array(stiffness)
            min_eigs = np.linalg.eigh(self.Z.T @ M @ self.Z)[0][:, 0].tolist()
            for k, min_eig in zip(cert, min_eigs):
                out[k][0] = ("stable" if min_eig > CERT_TOL
                             else "marginal" if min_eig >= -CERT_TOL else "unstable")
                out[k][2] = min_eig
        if eig:
            H = np.repeat(self.H[None], len(eig), axis=0)
            _add_device_block(H, np.array(hessians), self.states, self.bus_col)
            R = np.repeat(self.R[None], len(eig), axis=0)
            R[:, self.states, self.states] = np.array(dampings)
            for k, v_eig in zip(eig, _eigen_verdicts(H, R, self.n_x)):
                out[k][1] = v_eig
        return out


def _device_blocks(dev, theta, op, omega0):
    """Energy Hessian and damping block of a device at its stationary state.

    None where `PowerSystem.equilibrium` or the equilibrium check of
    `assemble_energy_hessian` would raise.
    """
    try:
        setpoint = dev.stationary_setpoint(op)
        state = dev.stationary_state(theta, op, omega0)
    except ValueError:  # capability, stationary residual, or a load the flow does not match
        return None
    d = dev.state_derivative(state, theta, op.V, setpoint, omega0)
    if d.size and float(np.max(np.abs(d))) > _EQUILIBRIUM_TOL:
        return None
    return dev.energy_hessian(state, theta, op.V, setpoint, omega0), dev.damping_block(omega0)


def _eigen_verdicts(H, R, n_x):
    """`eigenvalue_verdict` on stacked energy Hessians and damping matrices.

    'infeasible' where `kron_reduce` or `eigvals` would raise, or where the
    spectrum has no single zero mode.
    """
    verdicts = ["infeasible"] * len(H)
    Hvv = H[:, n_x:, n_x:]
    cond = _stacked(np.linalg.cond, Hvv, np.nan)
    keep = np.flatnonzero(np.isfinite(cond) & (cond <= KRON_COND_LIMIT))
    if not keep.size:
        return verdicts
    Hxv = H[keep, :n_x, n_x:]
    S = H[keep, :n_x, :n_x] - Hxv @ np.linalg.solve(Hvv[keep], Hxv.transpose(0, 2, 1))
    S = 0.5 * (S + S.transpose(0, 2, 1))
    # an all-inf spectrum has no zero mode, so a matrix eigvals rejects stays infeasible
    spectra = _stacked(np.linalg.eigvals, -R[keep] @ S, np.full(n_x, np.inf))
    for k, v_eig in zip(keep, _spectrum_verdicts(spectra)):
        verdicts[k] = v_eig
    return verdicts


def _spectrum_verdicts(eig, tol=EIG_TOL):
    """`eigenvalue_verdict`'s verdict for each row of a stack of spectra.

    Once the zero mode is the single eigenvalue within `tol` of zero, which
    one it is does not depend on how the spectrum is sorted.
    """
    rows = np.arange(len(eig))
    mods = np.abs(eig)
    zero = np.argmin(mods, axis=1)
    degenerate = (np.sum(mods <= tol, axis=1) > 1) | (mods[rows, zero] > tol)
    rest = np.array(eig.real)
    rest[rows, zero] = -np.inf  # a spectrum of the zero mode alone is stable
    top = rest.max(axis=1)
    verdict = np.where(top < -tol, "stable", np.where(top > tol, "unstable", "marginal"))
    return np.where(degenerate, "infeasible", verdict).tolist()


def _stacked(fn, stack, fill):
    """`fn` over a stack of matrices in one call.

    If LAPACK rejects the stack, the matrices are redone one at a time and
    each one it rejects gets `fill`, so one bad point does not sink its row.
    """
    try:
        return fn(stack)
    except np.linalg.LinAlgError:
        results = []
        for a in stack:
            try:
                results.append(fn(a))
            except np.linalg.LinAlgError:
                results.append(fill)
        return np.array(results)
