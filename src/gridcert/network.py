"""Lossless transmission network: susceptance matrix, power balance, Newton power flow.

All quantities are per-unit; angles are radians. Lines are purely reactive
(susceptance only), so the bus power balance is

    P_i = sum_j B_ij V_i V_j sin(theta_i - theta_j)
    Q_i = sum_j -B_ij V_i V_j cos(theta_i - theta_j)

with B the (negated) weighted Laplacian of the line graph. (P, Q/V) is the
gradient of the network energy -1/2 sum_ij B_ij V_i V_j cos(theta_i - theta_j)
= sum(Q)/2, and `network_hessian` is its 2N x 2N Hessian over interleaved
(theta_i, V_i); the Newton power-flow Jacobian is built from its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Line",
    "Network",
    "Slack",
    "PV",
    "PQ",
    "BusSpec",
    "PowerFlowSolution",
    "PowerFlowError",
    "build_susceptance",
    "power_balance",
    "network_hessian",
    "power_flow_jacobian",
    "solve_power_flow",
    "normalize_angle",
]


class PowerFlowError(RuntimeError):
    """Raised when the Newton power flow diverges or hits a singular Jacobian."""


@dataclass(frozen=True)
class Line:
    """Transmission line between two buses with positive susceptance b [pu]."""

    from_bus: int
    to_bus: int
    b: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"line endpoints must differ, got {self.from_bus}--{self.to_bus}")
        if not self.b > 0:
            raise ValueError(f"line susceptance must be positive, got b={self.b}")


@dataclass(frozen=True)
class Slack:
    """Bus with fixed voltage angle and magnitude."""

    theta: float = 0.0
    V: float = 1.0


@dataclass(frozen=True)
class PV:
    """Bus with fixed active power injection and voltage magnitude."""

    P: float
    V: float


@dataclass(frozen=True)
class PQ:
    """Bus with fixed active and reactive power injection."""

    P: float
    Q: float


BusSpec = Slack | PV | PQ


def build_susceptance(n_bus, lines):
    """Assemble the N x N susceptance matrix from a line list.

    Off-diagonal entries are the (summed) line susceptances, diagonal entries
    the negated row sums, so -B is the weighted graph Laplacian. Parallel
    lines between the same pair add up. Raises if any bus index is out of
    range or the line graph does not connect all buses.
    """
    if n_bus < 1:
        raise ValueError("network needs at least one bus")
    B = np.zeros((n_bus, n_bus))
    for ln in lines:
        if not (0 <= ln.from_bus < n_bus and 0 <= ln.to_bus < n_bus):
            raise ValueError(f"line {ln.from_bus}--{ln.to_bus} references a bus outside 0..{n_bus - 1}")
        B[ln.from_bus, ln.to_bus] += ln.b
        B[ln.to_bus, ln.from_bus] += ln.b
    np.fill_diagonal(B, 0.0)
    np.fill_diagonal(B, -B.sum(axis=1))
    _check_connected(n_bus, B)
    return B


def _check_connected(n_bus, B):
    if n_bus == 1:
        return
    seen = np.zeros(n_bus, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(B[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    if not seen.all():
        missing = np.nonzero(~seen)[0].tolist()
        raise ValueError(f"line graph is disconnected; unreachable buses {missing}")


@dataclass(frozen=True)
class Network:
    """Lossless network: bus count, line list, and susceptance matrix."""

    n_bus: int
    lines: tuple[Line, ...]
    B: np.ndarray = field(repr=False)

    @classmethod
    def from_lines(cls, n_bus, lines):
        lines = tuple(lines)
        return cls(n_bus=n_bus, lines=lines, B=build_susceptance(n_bus, lines))


def _angle_terms(theta, V, B):
    """cos(D), sin(D) and W = B * V V^T with D_ij = theta_i - theta_j; formed nowhere else."""
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    D = np.subtract.outer(theta, theta)
    return np.cos(D), np.sin(D, out=D), B * np.outer(V, V)  # sin reuses D once cos has read it


def power_balance(theta, V, net):
    """Evaluate the lossless power balance at every bus.

    Returns (P, Q) arrays. `net` may be a Network or a susceptance matrix.
    """
    B = net.B if isinstance(net, Network) else np.asarray(net)
    C, S, W = _angle_terms(theta, V, B)
    S *= W  # in place: the n x n temporaries dominate the cost at large n
    C *= W
    return S.sum(axis=1), -C.sum(axis=1)


def _balance(C, S, W):
    """(P, Q) from `_angle_terms` as `power_balance` forms them, leaving the terms intact."""
    return (S * W).sum(axis=1), -(C * W).sum(axis=1)


def _hessian_blocks(theta, V, B, terms=None):
    """(theta, theta), (theta, V) and (V, V) blocks of the network energy Hessian."""
    C, S, W = _angle_terms(theta, V, B) if terms is None else terms
    V = np.asarray(V, dtype=float)

    tt = -W * C
    np.fill_diagonal(tt, 0.0)
    np.fill_diagonal(tt, -tt.sum(axis=1))

    tv = B * S * V[:, None]
    np.fill_diagonal(tv, (B * S * V[None, :]).sum(axis=1))

    vv = -B * C
    np.fill_diagonal(vv, -np.diag(B))
    return tt, tv, vv


def network_hessian(theta, V, B, terms=None):
    """2N x 2N Hessian of the network energy over interleaved (theta_i, V_i).

    Built from the susceptance matrix and the voltage phasors alone; it is
    the Jacobian of (P, Q/V), the transmission network's contribution to the
    stability condition, and annihilates the uniform phase-shift direction.
    A caller that already holds `_angle_terms(theta, V, B)` passes it as
    `terms`, so the cosines and sines are not formed again.
    """
    tt, tv, vv = _hessian_blocks(theta, V, B, terms)
    n = tt.shape[0]
    L = np.empty((2 * n, 2 * n))
    L[0::2, 0::2] = tt
    L[0::2, 1::2] = tv
    L[1::2, 0::2] = tv.T
    L[1::2, 1::2] = vv
    return L


def power_flow_jacobian(theta, V, B):
    """Full Jacobian of (P, Q) with respect to (theta, V), ordered block-wise.

    Rows are (P_1..P_N, Q_1..Q_N), columns (theta_1..theta_N, V_1..V_N).
    With H the network Hessian, the Jacobian of (P, Q/V), it is
    [[H_tt, H_tv], [V H_vt, V H_vv + diag(Q/V)]].
    """
    V = np.asarray(V, dtype=float)
    tt, tv, vv = _hessian_blocks(theta, V, B)
    _, Q = power_balance(theta, V, B)
    return np.block([[tt, tv], [V[:, None] * tv.T, V[:, None] * vv + np.diag(Q / V)]])


@dataclass(frozen=True)
class PowerFlowSolution:
    """Stationary power flow distribution: per-bus angle, magnitude and injections."""

    theta: np.ndarray
    V: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    residual: float
    iterations: int


def solve_power_flow(net, bus_specs, initial_guess=None, tol=1e-10, max_iter=50):
    """Newton solve of the power balance for the given bus specifications.

    Exactly one Slack spec is required; PV buses fix (P, V), PQ buses fix
    (P, Q). Starts from a flat profile (theta=0, V=1) unless `initial_guess`
    provides (theta, V) arrays. Full Newton steps, residual measured in the
    infinity norm. Raises PowerFlowError on non-convergence or a singular
    Jacobian.
    """
    n = net.n_bus
    if len(bus_specs) != n:
        raise ValueError(f"expected {n} bus specs, got {len(bus_specs)}")
    slack = [i for i, s in enumerate(bus_specs) if isinstance(s, Slack)]
    if len(slack) != 1:
        raise ValueError(f"exactly one slack bus required, got {len(slack)}")

    if initial_guess is None:
        theta = np.zeros(n)
        V = np.ones(n)
    else:
        theta = np.array(initial_guess[0], dtype=float)
        V = np.array(initial_guess[1], dtype=float)

    P_set = np.zeros(n)
    Q_set = np.zeros(n)
    theta_rows = []  # buses with a P equation / free theta
    v_rows = []  # buses with a Q equation / free V
    for i, s in enumerate(bus_specs):
        if isinstance(s, Slack):
            theta[i] = s.theta
            V[i] = s.V
        elif isinstance(s, PV):
            P_set[i] = s.P
            V[i] = s.V
            theta_rows.append(i)
        else:
            P_set[i] = s.P
            Q_set[i] = s.Q
            theta_rows.append(i)
            v_rows.append(i)

    theta_rows = np.array(theta_rows, dtype=int)
    v_rows = np.array(v_rows, dtype=int)
    n_th = theta_rows.size

    residual = np.inf
    for it in range(max_iter + 1):
        P, Q = power_balance(theta, V, net.B)
        mismatch = np.concatenate([P_set[theta_rows] - P[theta_rows], Q_set[v_rows] - Q[v_rows]])
        residual = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        if not np.isfinite(residual):
            raise PowerFlowError(f"power flow diverged at iteration {it} (non-finite residual)")
        if residual <= tol:
            P, Q = power_balance(theta, V, net.B)
            return PowerFlowSolution(theta=theta, V=V, P=P, Q=Q, residual=residual, iterations=it)
        if it == max_iter:
            break
        J = power_flow_jacobian(theta, V, net.B)
        rows = np.concatenate([theta_rows, n + v_rows])
        cols = np.concatenate([theta_rows, n + v_rows])
        try:
            step = np.linalg.solve(J[np.ix_(rows, cols)], mismatch)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular power flow Jacobian at iteration {it}") from exc
        theta[theta_rows] += step[:n_th]
        V[v_rows] += step[n_th:]

    raise PowerFlowError(
        f"power flow did not converge in {max_iter} iterations (residual {residual:.3e}, tol {tol:.1e})"
    )


def normalize_angle(theta):
    """Map angles to the reporting interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.remainder(-theta + np.pi, 2 * np.pi)
    return -(wrapped - np.pi) + 0.0  # the +0.0 clears negative zeros
