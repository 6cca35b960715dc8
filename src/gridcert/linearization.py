"""Linearized differential-algebraic dynamics and the eigenvalue stability oracle.

Independent of the closed-form certificate: the total energy Hessian is
assembled from the per-device closed forms plus the network Hessian, the bus
voltage variables are eliminated by Kron reduction (a Schur complement), and
stability is decided from the spectrum of the reduced state matrix

    A = -R * (H / H_vv)

where R collects per-device damping/interconnection blocks. A carries exactly
one structural zero eigenvalue (the uniform rotation of all angles). Each step
of the oracle is one kernel on a stack of matrices, which `eigenvalue_verdict`
runs on a stack of one and the reactance sweep on a stack of grid points. A
kernel raises if it rejects any matrix of its stack, as numpy's LAPACK wrappers do; a
non-finite algebraic block is rejected before LAPACK sees it.
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
    """Hessian of the total energy by blocks: device states (x) and bus pairs (v).

    The bus pairs are interleaved as (theta_1, V_1, ..., theta_N, V_N). The
    (x, x) block is zero but for one block per device, and `diagonal` holds
    each device's (slice of the states, block); the (v, x) block is the
    transpose of `xv`.
    """

    diagonal: list
    xv: np.ndarray
    vv: np.ndarray

    @property
    def n_states(self):
        return self.xv.shape[0]

    @property
    def matrix(self):
        """The whole matrix over (device states...) + (theta, V) pairs, built on each access."""
        n_x = self.n_states
        H = np.zeros((n_x + len(self.vv),) * 2)
        for states, block in self.diagonal:
            H[states, states] = block
        H[:n_x, n_x:] = self.xv
        H[n_x:, :n_x] = self.xv.T
        H[n_x:, n_x:] = self.vv
        return H


def _residual_error(flow_res, deriv_res=0.0):
    """The ValueError of an equilibrium whose residuals exceed its tolerance, or None."""
    if flow_res > _EQUILIBRIUM_TOL or deriv_res > _EQUILIBRIUM_TOL:
        return ValueError(
            f"inconsistent equilibrium: balance residual {flow_res:.3e}, "
            f"state derivative residual {deriv_res:.3e}"
        )


def assemble_energy_hessian(system: PowerSystem, eq: Equilibrium):
    """Total energy Hessian at an equilibrium: per-device blocks plus the network.

    Coordinates: each bus's device states in order, then the bus pairs
    (theta_1, V_1, ..., theta_N, V_N). Raises if the claimed equilibrium does
    not satisfy the balance and zero-derivative residuals.
    """
    deriv = [dev.state_derivative(eq.states[i], float(eq.flow.theta[i]), float(eq.flow.V[i]),
                                  eq.setpoints[i], system.omega0)
             for i, dev in enumerate(system.devices)]
    error = _residual_error(system.balance_residual(eq.flow),
                            max([0.0, *(float(np.max(np.abs(d))) for d in deriv if d.size)]))
    if error:
        raise error
    n_x = system.n_states
    slices = system.state_slices()
    blocks = ([], np.zeros((n_x, 2 * system.n_bus)),
              network_hessian(eq.flow.theta, eq.flow.V, system.net))
    for i, dev in enumerate(system.devices):
        Hd = dev.energy_hessian(eq.states[i], float(eq.flow.theta[i]), float(eq.flow.V[i]),
                                eq.setpoints[i], system.omega0)
        _add_device_block(blocks, Hd, slices[i], i)
    return EnergyHessian(*blocks)


def _add_device_block(blocks, Hd, states, bus):
    """Add a device Hessian over (states..., theta, V) into the energy Hessian's blocks.

    `blocks` is (diagonal, xv, vv) as in EnergyHessian, `states` the
    device's slice of the state coordinates and `bus` the index of its bus.
    The device's state block joins the list `diagonal`. Device Hessians are
    symmetric, so the (v, x) block is left to the transpose of xv. Works on
    one set of blocks or on stacks of them.
    """
    diagonal, xv, vv = blocks
    k = states.stop - states.start
    pair = slice(2 * bus, 2 * bus + 2)
    diagonal.append((states, Hd[..., :k, :k] + 0.0))  # the bits of adding it to a zero block
    xv[..., states, pair] += Hd[..., :k, k:]
    vv[..., pair, pair] += Hd[..., k:, k:]


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


def kron_reduce(H, n_keep):
    """Schur complement of a symmetric matrix onto its first `n_keep` coordinates.

    Eliminates the trailing (algebraic) block; errors out if that block is
    not finite or numerically singular instead of guessing. The block is
    symmetric, so its condition number is the ratio of its largest to its
    smallest |eigenvalue|, which is its 2-norm condition number.
    """
    return _kron_reduce(np.asarray(H, dtype=float)[None], n_keep)[0][0]


def _kron_reduce(H, n_keep):
    """`kron_reduce` on a stack; raises if it rejects any matrix of the stack.

    Also returns the smallest eigenvalue of each trailing block: its
    voltage-regularity margin, positive where regular.
    """
    if H.shape[-1] == n_keep:
        return H.copy(), np.full(len(H), np.inf)
    return _schur([[(slice(0, n_keep), H[:, :n_keep, :n_keep])],
                   H[:, :n_keep, n_keep:], H[:, n_keep:, n_keep:]])


def _schur(blocks):
    """`_kron_reduce` from the list [diagonal, xv, vv] of a stack's blocks, as in EnergyHessian.

    Empties the list and drops each block after its last use, so that a
    block the caller holds no other reference to is freed there.
    """
    diagonal, xv, vv = blocks
    blocks.clear()
    if not np.isfinite(vv).all():
        # a non-finite block has no condition number, and LAPACK prints errors on some
        raise np.linalg.LinAlgError("algebraic block is not finite")
    cond, lam = _condition(vv)
    rejected = cond[~(cond <= KRON_COND_LIMIT)]  # a nan fails the limit too
    if rejected.size:
        raise np.linalg.LinAlgError(
            f"algebraic block numerically singular (condition {rejected[0]:.3e} > "
            f"{KRON_COND_LIMIT:.1e})"
        )
    S = np.linalg.solve(vv, xv.swapaxes(1, 2))
    del vv
    S = xv @ S
    del xv
    # xx - S, xx being zero off its diagonal blocks
    on_blocks = [(states, block - S[:, states, states]) for states, block in diagonal]
    np.subtract(0.0, S, out=S)
    for states, block in on_blocks:
        S[:, states, states] = block
    S = S + S.swapaxes(1, 2)
    S *= 0.5
    return S, lam[:, 0]


def _condition(A):
    """2-norm condition numbers and ascending eigenvalues of a stack of symmetric matrices.

    The singular values of a symmetric matrix are its |eigenvalues|, so one
    `eigvalsh` gives the ratio of the extreme singular values. A singular
    matrix has condition inf.
    """
    lam = np.linalg.eigvalsh(A)
    mags = np.abs(lam)
    smallest = mags.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smallest == 0, np.inf, mags.max(axis=-1) / smallest), lam


def _spectra(R, S):
    """Spectra of the state matrices -R S of a stack; negates R in place."""
    return np.linalg.eigvals(np.negative(R, out=R) @ S)


def _spectrum_verdicts(eig):
    """`eigenvalue_verdict`'s verdict and zero-mode index for each row of a stack of spectra.

    Raises DegenerateEquilibriumError for the first spectrum without exactly
    one eigenvalue within EIG_TOL of zero. The verdict does not depend on how a
    spectrum is sorted.
    """
    rows = np.arange(len(eig))
    mods = np.abs(eig)
    zero = np.argmin(mods, axis=1)
    near_zero = np.sum(mods <= EIG_TOL, axis=1)
    rejected = np.flatnonzero((near_zero > 1) | (mods[rows, zero] > EIG_TOL))
    if rejected.size:
        k = rejected[0]
        raise DegenerateEquilibriumError(
            f"degenerate equilibrium: {near_zero[k]} eigenvalues within {EIG_TOL:.1e} of zero"
            if near_zero[k] > 1 else
            f"no structural zero mode found (smallest |eig| = {mods[k, zero[k]]:.3e})"
        )
    rest = np.array(eig.real)
    rest[rows, zero] = -np.inf  # a spectrum of the zero mode alone is stable
    top = rest.max(axis=1)
    verdicts = np.where(top < -EIG_TOL, "stable", np.where(top > EIG_TOL, "unstable", "marginal"))
    return verdicts.tolist(), zero


@dataclass
class EigenReport:
    """Spectrum-based stability outcome of the linearized dynamics."""

    eigenvalues: np.ndarray
    verdict: str
    zero_eigenvalue: complex
    #: smallest eigenvalue of the algebraic (theta, V) block; voltage-regular where positive
    voltage_margin: float


def eigenvalue_verdict(system: PowerSystem, eq: Equilibrium):
    """Decide stability from the spectrum of the Kron-reduced state matrix.

    Stable iff every eigenvalue besides the single structural zero has real
    part below -EIG_TOL; marginal if any other real part sits inside the
    tolerance band. Raises DegenerateEquilibriumError when more than one
    eigenvalue is numerically zero. The report carries the voltage-regularity
    margin, outside of which the verdict need not match the certificate's.
    """
    if system.n_states == 0:
        raise ValueError("system has no dynamic states; eigenvalue verdict undefined")
    H = assemble_energy_hessian(system, eq)
    blocks = [H.diagonal, H.xv[None], H.vv[None]]
    del H  # the Schur kernel frees each block after its last use
    S, margins = _schur(blocks)
    eig = _spectra(damping_matrix(system)[None], S)[0]
    eig = eig[np.lexsort((eig.imag, eig.real))]
    verdicts, zero = _spectrum_verdicts(eig[None])
    return EigenReport(
        eigenvalues=eig,
        verdict=verdicts[0],
        zero_eigenvalue=complex(eig[zero[0]]),
        voltage_margin=float(margins[0]),
    )
