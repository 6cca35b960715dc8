"""Linearized differential-algebraic dynamics and the eigenvalue stability oracle.

Independent of the closed-form certificate: the total energy Hessian is
assembled from the per-device closed forms plus the network Hessian, the bus
voltage variables are eliminated by Kron reduction (a Schur complement), and
stability is decided from the spectrum of the reduced state matrix

    A = -R * (H / H_vv)

where R collects per-device damping/interconnection blocks. A carries exactly
one structural zero eigenvalue (the uniform rotation of all angles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import ConstantPowerLoad
from .network import network_hessian
from .system import Equilibrium, PowerSystem

__all__ = [
    "EIG_TOL",
    "KRON_COND_LIMIT",
    "DegenerateEquilibriumError",
    "EnergyHessian",
    "assemble_energy_hessian",
    "damping_matrix",
    "factorized_voltage_block",
    "kron_reduce",
    "EigenReport",
    "eigenvalue_verdict",
]

#: Absolute tolerance on eigenvalue real parts for the stability verdict.
EIG_TOL = 1e-7

#: Largest condition number of the algebraic block that `kron_reduce` eliminates.
KRON_COND_LIMIT = 1e12

_EQUILIBRIUM_TOL = 1e-7


class DegenerateEquilibriumError(RuntimeError):
    """More than one eigenvalue of the reduced state matrix is numerically zero."""


@dataclass(frozen=True)
class EnergyHessian:
    """Hessian of the total energy over (device states...) + interleaved bus (theta, V)."""

    matrix: np.ndarray
    n_states: int

    @property
    def vv(self):
        return self.matrix[self.n_states:, self.n_states:]


def _check_equilibrium(system: PowerSystem, eq: Equilibrium):
    flow_res = system.balance_residual(eq.flow)
    deriv_res = 0.0
    for i, dev in enumerate(system.devices):
        d = dev.state_derivative(eq.states[i], float(eq.flow.theta[i]), float(eq.flow.V[i]),
                                 eq.setpoints[i], system.omega0)
        if d.size:
            deriv_res = max(deriv_res, float(np.max(np.abs(d))))
    if flow_res > _EQUILIBRIUM_TOL or deriv_res > _EQUILIBRIUM_TOL:
        raise ValueError(
            f"inconsistent equilibrium: balance residual {flow_res:.3e}, "
            f"state derivative residual {deriv_res:.3e}"
        )


def assemble_energy_hessian(system: PowerSystem, eq: Equilibrium, check=True):
    """Total energy Hessian at an equilibrium: per-device blocks plus the network.

    Coordinates: each bus's device states in order, then the bus pairs
    (theta_1, V_1, ..., theta_N, V_N). Raises if the claimed equilibrium does
    not satisfy the balance and zero-derivative residuals.
    """
    if check:
        _check_equilibrium(system, eq)
    n = system.n_bus
    n_x = system.n_states
    slices = system.state_slices()
    H = np.zeros((n_x + 2 * n, n_x + 2 * n))
    H[n_x:, n_x:] = network_hessian(eq.flow.theta, eq.flow.V, system.net.B)
    for i, dev in enumerate(system.devices):
        Hd = dev.energy_hessian(eq.states[i], float(eq.flow.theta[i]), float(eq.flow.V[i]),
                                eq.setpoints[i], system.omega0)
        _add_device_block(H, Hd, slices[i], n_x + 2 * i)
    return EnergyHessian(matrix=H, n_states=n_x)


def _add_device_block(H, Hd, states, bus_col):
    """Add a device Hessian over (states..., theta, V) into the total energy Hessian.

    `states` is the device's slice of the state coordinates and `bus_col` the
    column of its bus theta. Works on one matrix or on a stack of them.
    """
    k = states.stop - states.start
    bus = slice(bus_col, bus_col + 2)
    H[..., states, states] += Hd[..., :k, :k]
    H[..., states, bus] += Hd[..., :k, k:]
    H[..., bus, states] += Hd[..., k:, :k]
    H[..., bus, bus] += Hd[..., k:, k:]


def damping_matrix(system: PowerSystem):
    """Block-diagonal damping/interconnection matrix R over all device states.

    R + R^T is positive semidefinite by construction: the skew angle/frequency
    couplings cancel, leaving only nonnegative diagonal damping terms.
    """
    n_x = system.n_states
    R = np.zeros((n_x, n_x))
    for dev, sl in zip(system.devices, system.state_slices()):
        R[sl, sl] = dev.damping_block(system.omega0)
    return R


def factorized_voltage_block(system: PowerSystem, eq: Equilibrium):
    """Algebraic (theta, V) block of the energy Hessian in factorized form.

    Every bus must host a voltage-source device (generator or grid-forming
    inverter); the block then decomposes into a positive definite rotation
    term through the device connection reactances plus the positive
    semidefinite network term, proving invertibility for the Kron reduction.
    Two-axis machines connect through their transient reactances, inverters
    through their synchronous ones.
    """
    n = system.n_bus
    theta = np.asarray(eq.flow.theta, dtype=float)
    V = np.asarray(eq.flow.V, dtype=float)
    phi_cols = np.zeros((2 * n, 2 * n))
    react = np.zeros(2 * n)
    theta_cols = np.zeros((2 * n, 2 * n))
    for i, dev in enumerate(system.devices):
        if isinstance(dev, ConstantPowerLoad):
            raise ValueError("factorized voltage block requires a voltage-source device at every bus")
        xd_eff, xq_eff = dev.connection_reactances
        a = float(eq.states[i][0]) - theta[i]  # internal phase at equilibrium
        c, s = np.cos(a), np.sin(a)
        phi_cols[2 * i:2 * i + 2, 2 * i:2 * i + 2] = np.array([[V[i] * c, -s], [V[i] * s, c]])
        react[2 * i:2 * i + 2] = (1.0 / xq_eff, 1.0 / xd_eff)
        ct, st = np.cos(theta[i]), np.sin(theta[i])
        theta_cols[2 * i:2 * i + 2, 2 * i:2 * i + 2] = np.array([[-V[i] * st, ct], [V[i] * ct, st]])
    minus_b_kron = np.kron(-system.net.B, np.eye(2))
    return phi_cols.T @ (react[:, None] * phi_cols) + theta_cols.T @ minus_b_kron @ theta_cols


def kron_reduce(H, n_keep, cond_limit=KRON_COND_LIMIT):
    """Schur complement of a symmetric matrix onto its first `n_keep` coordinates.

    Eliminates the trailing (algebraic) block; errors out if that block is
    numerically singular instead of guessing.
    """
    H = np.asarray(H, dtype=float)
    Hxx = H[:n_keep, :n_keep]
    Hxv = H[:n_keep, n_keep:]
    Hvv = H[n_keep:, n_keep:]
    if Hvv.size == 0:
        return Hxx.copy()
    cond = np.linalg.cond(Hvv)
    if not np.isfinite(cond) or cond > cond_limit:
        raise np.linalg.LinAlgError(
            f"algebraic block numerically singular (condition {cond:.3e} > {cond_limit:.1e})"
        )
    S = Hxx - Hxv @ np.linalg.solve(Hvv, Hxv.T)
    return 0.5 * (S + S.T)


@dataclass
class EigenReport:
    """Spectrum-based stability outcome of the linearized dynamics."""

    eigenvalues: np.ndarray
    verdict: str
    zero_eigenvalue: complex
    state_matrix: np.ndarray
    reduced_hessian: np.ndarray

    def to_csv_rows(self):
        return [(ev.real, ev.imag) for ev in self.eigenvalues]


def eigenvalue_verdict(system: PowerSystem, eq: Equilibrium, tol_eig=EIG_TOL):
    """Decide stability from the spectrum of the Kron-reduced state matrix.

    Stable iff every eigenvalue besides the single structural zero has real
    part below -tol_eig; marginal if any other real part sits inside the
    tolerance band. Raises DegenerateEquilibriumError when more than one
    eigenvalue is numerically zero.
    """
    if system.n_states == 0:
        raise ValueError("system has no dynamic states; eigenvalue verdict undefined")
    H = assemble_energy_hessian(system, eq)
    S = kron_reduce(H.matrix, H.n_states)
    A = -damping_matrix(system) @ S
    eig = np.linalg.eigvals(A)
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]

    mods = np.abs(eig)
    zero_idx = int(np.argmin(mods))
    near_zero = int(np.sum(mods <= tol_eig))
    if near_zero > 1:
        raise DegenerateEquilibriumError(
            f"degenerate equilibrium: {near_zero} eigenvalues within {tol_eig:.1e} of zero"
        )
    if mods[zero_idx] > tol_eig:
        raise DegenerateEquilibriumError(
            f"no structural zero mode found (smallest |eig| = {mods[zero_idx]:.3e})"
        )

    rest = np.delete(eig, zero_idx)
    if rest.size == 0:
        verdict = "stable"
    elif np.max(rest.real) < -tol_eig:
        verdict = "stable"
    elif np.max(rest.real) > tol_eig:
        verdict = "unstable"
    else:
        verdict = "marginal"

    return EigenReport(
        eigenvalues=eig,
        verdict=verdict,
        zero_eigenvalue=complex(eig[zero_idx]),
        state_matrix=A,
        reduced_hessian=S,
    )
