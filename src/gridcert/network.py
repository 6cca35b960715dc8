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

import functools
import math
import operator
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
        if not 0 < self.b < np.inf:
            raise ValueError(f"line susceptance must be positive and finite, got b={self.b}")


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

_FLOW_TOL, _FLOW_MAX_ITER = 1e-10, 50  # Newton power flow: residual to reach, iterations to try


def build_susceptance(n_bus, lines):
    """Assemble the N x N susceptance matrix from a line list.

    Off-diagonal entries are the (summed) line susceptances, diagonal entries
    the negated row sums, so -B is the weighted graph Laplacian. Parallel
    lines between the same pair add up. Raises if any bus index is out of
    range, a bus's line susceptances do not sum to a finite value or the
    line graph does not connect all buses.
    """
    if n_bus < 1:
        raise ValueError("network needs at least one bus")
    B = np.zeros((n_bus, n_bus))
    with np.errstate(over="ignore"):  # finite susceptances can sum past the float range
        for ln in lines:
            if not (0 <= ln.from_bus < n_bus and 0 <= ln.to_bus < n_bus):
                raise ValueError(f"line {ln.from_bus}--{ln.to_bus} references a bus outside 0..{n_bus - 1}")
            B[ln.from_bus, ln.to_bus] += ln.b
            B[ln.to_bus, ln.from_bus] += ln.b
        np.fill_diagonal(B, 0.0)
        row_sums = B.sum(axis=1)
    overflowed = np.flatnonzero(~np.isfinite(row_sums))
    if overflowed.size:
        raise ValueError(f"line susceptances at bus {overflowed[0]} do not sum to a finite value")
    np.fill_diagonal(B, -row_sums)
    _check_connected(n_bus, B)
    return B


def _check_connected(n_bus, B):
    """Raise unless every bus is reachable from bus 0 over lines, one breadth level at a time."""
    seen = frontier = np.arange(n_bus) == 0
    while frontier.any():
        frontier = (B[frontier] > 0).any(axis=0) & ~seen
        seen = seen | frontier
    if not seen.all():
        missing = np.nonzero(~seen)[0].tolist()
        raise ValueError(f"line graph is disconnected; unreachable buses {missing}")


@dataclass(frozen=True)
class Network:
    """Lossless network: bus count and susceptance matrix."""

    n_bus: int
    B: np.ndarray = field(repr=False)

    @classmethod
    def from_lines(cls, n_bus, lines):
        return cls(n_bus=n_bus, B=build_susceptance(n_bus, lines))


def _angle_terms(theta, V, B):
    """cos(D), sin(D) and W = B * V V^T with D_ij = theta_i - theta_j.

    `_float_network` forms the same terms on Python floats, in its one loop.
    """
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    D = np.subtract.outer(theta, theta)
    return np.cos(D), np.sin(D, out=D), B * np.multiply.outer(V, V)  # sin reuses D once cos has read it


_FLOAT_BUSES = 8  # numpy sums a row of fewer entries left to right, as `_float_network` does


def _voltage_kernel(B):
    """The voltage Newton's network evaluation for susceptance matrix `B`.

    Returns `(evaluate, with_blocks)`. `evaluate(v, values)` takes the
    interleaved voltages as an array and as a list, and gives the network's
    P and Q as lists and its Hessian there. `with_blocks(hessian, blocks)`
    returns that Hessian as a new 2N x 2N array with each bus's device block
    (h_tt, h_tV, h_VV) added into its diagonal (theta, V) block. Below 8
    buses both run on Python floats (`_float_network`, `_float_hessian`),
    which equal the array kernel there bit for bit and skip numpy's call
    overhead; from 8 buses on the array kernel is the only bit-identical one.
    """
    if B.shape[0] < _FLOAT_BUSES:
        rows = B.tolist()

        def evaluate(v, values):
            return _float_network(values[0::2], values[1::2], rows)
        return evaluate, _float_hessian

    def evaluate(v, values):
        theta, V = v[0::2], v[1::2]
        terms = _angle_terms(theta, V, B)
        P, Q = _balance(*terms)
        return P.tolist(), Q.tolist(), network_hessian(theta, V, B, terms)
    return evaluate, _add_blocks


def _add_blocks(H, blocks):
    """A copy of `H`, each bus's (h_tt, h_tV, h_VV) added into its diagonal (theta, V) block."""
    H = H.copy()
    for j, (h_tt, h_tV, h_VV) in zip(range(0, H.shape[0], 2), blocks):
        H[j, j] += h_tt
        H[j, j + 1] += h_tV
        H[j + 1, j] += h_tV
        H[j + 1, j + 1] += h_VV
    return H


def _float_network(theta, V, B):
    """`power_balance` and the blocks of `network_hessian`, on Python floats, in one pass.

    `theta` and `V` are lists and `B` the susceptance matrix as a list of
    rows. Returns the lists P and Q, and the Hessian's (theta, theta),
    (theta, V) and (V, V) blocks, each a row-major list of N x N entries with
    its diagonal finished. Each product takes the operands of the array
    kernel (`_angle_terms`, `_balance`, `_hessian_blocks`), and each row is
    summed left to right from +0.0, the (theta, theta) row with +0.0 in the
    diagonal's place. numpy sums a row of fewer than 8 entries the same way
    (longer rows in pairwise blocks), so below 8 buses this equals the array
    kernel bit for bit.
    """
    n = len(B)
    P, Q, tt, tv, vv = [], [], [], [], []
    for i, (th_i, V_i, B_i) in enumerate(zip(theta, V, B)):
        p = q = tt_sum = tv_sum = 0.0
        for j, (th_j, V_j, b) in enumerate(zip(theta, V, B_i)):
            d = th_i - th_j
            c, s, w = math.cos(d), math.sin(d), b * (V_i * V_j)
            p += s * w
            q += c * w
            h, bs = -w * c, b * s
            tt_sum += 0.0 if j == i else h
            tv_sum += bs * V_j
            tt.append(h)
            tv.append(bs * V_i)
            vv.append(-b * c)
        diag = i * (n + 1)
        tt[diag], tv[diag], vv[diag] = -tt_sum, tv_sum, -B_i[i]
        P.append(p)
        Q.append(-q)
    return P, Q, (tt, tv, vv)


def _float_hessian(hessian, blocks):
    """`_float_network`'s Hessian blocks as a 2N x 2N array, with a device block on each bus.

    Each bus's (h_tt, h_tV, h_VV) is added to its finished (theta, theta),
    (theta, V) and (V, V) diagonal entry, as `_add_blocks` adds it to
    `network_hessian`'s, so below 8 buses the two agree bit for bit.
    """
    tt, tv, vv = hessian
    n = len(blocks)
    nn = n * n
    H = tt + tv + vv
    for k, (h_tt, h_tV, h_VV) in zip(range(0, nn, n + 1), blocks):
        H[k] += h_tt
        H[nn + k] += h_tV
        H[2 * nn + k] += h_VV
    return np.array(_interleaved(n)(H)).reshape(2 * n, 2 * n)


@functools.cache
def _interleaved(n):
    """Getter from the Hessian's three N x N blocks to its 2N x 2N interleaved entries.

    It takes the (theta, theta), (theta, V) and (V, V) blocks laid end to
    end, each row-major, and returns the entries over interleaved
    (theta_i, V_i) row by row.
    """
    nn = n * n
    order = []
    for i in range(n):
        for j in range(n):
            order += (i * n + j, nn + i * n + j)
        for j in range(n):
            order += (nn + j * n + i, 2 * nn + i * n + j)
    return operator.itemgetter(*order)


def power_balance(theta, V, net):
    """Evaluate the lossless power balance at every bus.

    Returns (P, Q) arrays at the buses of Network `net`.
    The angle terms go through `_balance`, the one (P, Q) reduction on arrays,
    which the power flow and the voltage Newton's array kernel also use, so
    all three agree bit for bit; below 8 buses `_float_network` equals it.
    """
    return _balance(*_angle_terms(theta, V, net.B))


def _balance(C, S, W):
    """(P, Q) from `_angle_terms`, leaving the terms intact for the Hessian blocks."""
    return (S * W).sum(axis=1), -(C * W).sum(axis=1)


def _hessian_blocks(theta, V, B, terms=None, out=None):
    """(theta, theta), (theta, V) and (V, V) blocks of the network energy Hessian.

    Written into `out`, three N x N arrays or views, when given, else into new arrays.
    """
    C, S, W = _angle_terms(theta, V, B) if terms is None else terms
    V = np.asarray(V, dtype=float)
    tt, tv, vv = (None,) * 3 if out is None else out
    diag = slice(None, None, B.shape[0] + 1)  # the diagonal of a block's .flat

    tt = np.multiply(-W, C, out=tt)
    tt.flat[diag] = 0.0
    tt.flat[diag] = -tt.sum(axis=1)

    BS = B * S
    tv = np.multiply(BS, V[:, None], out=tv)
    tv.flat[diag] = (BS * V).sum(axis=1)

    vv = np.multiply(-B, C, out=vv)
    vv.flat[diag] = -B.diagonal()
    return tt, tv, vv


def network_hessian(theta, V, B, terms=None):
    """2N x 2N Hessian of the network energy over interleaved (theta_i, V_i).

    Built from the susceptance matrix and the voltage phasors alone; it is
    the Jacobian of (P, Q/V), the transmission network's contribution to the
    stability condition, and annihilates the uniform phase-shift direction.
    A caller that already holds `_angle_terms(theta, V, B)` passes it as
    `terms`, so the cosines and sines are not formed again. The blocks are
    written straight into the strided views of the result.
    """
    n = B.shape[0]
    L = np.empty((2 * n, 2 * n))
    _, tv, _ = _hessian_blocks(theta, V, B, terms,
                               out=(L[0::2, 0::2], L[0::2, 1::2], L[1::2, 1::2]))
    L[1::2, 0::2] = tv.T
    return L


def power_flow_jacobian(theta, V, B):
    """Full Jacobian of (P, Q) with respect to (theta, V), ordered block-wise.

    Rows are (P_1..P_N, Q_1..Q_N), columns (theta_1..theta_N, V_1..V_N).
    With H the network Hessian, the Jacobian of (P, Q/V), it is
    [[H_tt, H_tv], [V H_vt, V H_vv + diag(Q/V)]].
    """
    V = np.asarray(V, dtype=float)
    terms = _angle_terms(theta, V, B)
    every = np.arange(V.size)
    return _jacobian(V, _balance(*terms)[1], _hessian_blocks(theta, V, B, terms), every, every)


def _jacobian(V, Q, blocks, free_theta, free_V):
    """The rows and columns of `power_flow_jacobian` for the free angles and magnitudes.

    Rows are (P, Q) at the buses `free_theta` and `free_V`, columns (theta, V)
    there, written from the `_hessian_blocks` at one point straight into one
    array. Each entry takes the full Jacobian's products and sums; adding
    diag(Q/V) as a whole matrix also turns the off-diagonal -0.0 of -B * C
    into +0.0, as in the full one. So this equals the full matrix's
    [np.ix_(rows, rows)] bit for bit, signs of zeros included.
    """
    tt, tv, vv = blocks
    k = free_theta.size
    V_free = V[free_V]
    J = np.empty((k + free_V.size,) * 2)
    tv_free = tv.take(free_theta, axis=0).take(free_V, axis=1)
    J[:k, :k] = tt.take(free_theta, axis=0).take(free_theta, axis=1)
    J[:k, k:] = tv_free
    J[k:, :k] = V_free[:, None] * tv_free.T
    vv_free = vv.take(free_V, axis=0).take(free_V, axis=1)
    J[k:, k:] = V_free[:, None] * vv_free + np.diag(Q[free_V] / V_free)
    return J


@dataclass(frozen=True)
class PowerFlowSolution:
    """Stationary power flow distribution: per-bus angle, magnitude and injections."""

    theta: np.ndarray
    V: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    residual: float
    iterations: int


def solve_power_flow(net, bus_specs):
    """Newton solve of the power balance for the given bus specifications.

    Exactly one Slack spec is required; PV buses fix (P, V), PQ buses fix
    (P, Q). Starts from a flat profile (theta=0, V=1) and takes full Newton
    steps until the infinity-norm residual is at most 1e-10. Raises
    PowerFlowError when 50 iterations do not get there, the residual turns
    non-finite or the Jacobian is singular.
    """
    n = net.n_bus
    if len(bus_specs) != n:
        raise ValueError(f"expected {n} bus specs, got {len(bus_specs)}")
    slack = [i for i, s in enumerate(bus_specs) if isinstance(s, Slack)]
    if len(slack) != 1:
        raise ValueError(f"exactly one slack bus required, got {len(slack)}")

    theta = np.zeros(n)
    V = np.ones(n)

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
    # a diverging iterate overflows; the non-finite residual check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_FLOW_MAX_ITER + 1):
            terms = _angle_terms(theta, V, net.B)  # the one pass of this iterate
            P, Q = _balance(*terms)
            mismatch = np.concatenate([P_set[theta_rows] - P[theta_rows], Q_set[v_rows] - Q[v_rows]])
            residual = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
            if not np.isfinite(residual):
                raise PowerFlowError(f"power flow diverged at iteration {it} (non-finite residual)")
            if residual <= _FLOW_TOL:
                return PowerFlowSolution(theta=theta, V=V, P=P, Q=Q, residual=residual, iterations=it)
            if it == _FLOW_MAX_ITER:
                break
            J = _jacobian(V, Q, _hessian_blocks(theta, V, net.B, terms), theta_rows, v_rows)
            try:
                step = np.linalg.solve(J, mismatch)
            except np.linalg.LinAlgError as exc:
                raise PowerFlowError(f"singular power flow Jacobian at iteration {it}") from exc
            theta[theta_rows] += step[:n_th]
            V[v_rows] += step[n_th:]

    raise PowerFlowError(
        f"power flow did not converge in {_FLOW_MAX_ITER} iterations "
        f"(residual {residual:.3e}, tol {_FLOW_TOL:.1e})"
    )


def normalize_angle(theta):
    """Map angles to the reporting interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.remainder(-theta + np.pi, 2 * np.pi)
    return -(wrapped - np.pi) + 0.0  # the +0.0 clears negative zeros
