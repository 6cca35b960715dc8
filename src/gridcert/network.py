"""Lossless transmission network: susceptance matrix, power balance, Newton power flow.

All quantities are per-unit; angles are radians. Lines are purely reactive
(susceptance only), so the bus power balance is

    P_i = sum_j B_ij V_i V_j sin(theta_i - theta_j)
    Q_i = sum_j -B_ij V_i V_j cos(theta_i - theta_j)

with B the (negated) weighted Laplacian of the line graph. (P, Q/V) is the
gradient of the network energy -1/2 sum_ij B_ij V_i V_j cos(theta_i - theta_j)
= sum(Q)/2, and `network_hessian` is its 2N x 2N Hessian over interleaved
(theta_i, V_i); the Newton power-flow Jacobian is built from its blocks.

B is sparse: a bus couples only to its neighbours over lines. One kernel,
`_Lines.evaluate`, forms P, Q and the Hessian's entries over B's nonzero
entries alone, on Python floats, and the power flow, `power_balance`,
`network_hessian`, `power_flow_jacobian` and the simulator's voltage Newton
all call it, through the `_Lines` a `Network` builds once and holds; the
entries are scattered into dense arrays through indices formed there
(Tinney & Hart, "Power flow solution by Newton's method", IEEE Trans.
PAS-86(11), 1967, build Newton's power flow on the same sparsity). Its cos
and sin are formed once per off-diagonal entry rather than for every bus pair.
"""

from __future__ import annotations

import functools
import math
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
    "NetworkError",
    "build_susceptance",
    "power_balance",
    "network_hessian",
    "power_flow_jacobian",
    "solve_power_flow",
    "normalize_angle",
]


class PowerFlowError(RuntimeError):
    """Raised when the Newton power flow diverges or hits a singular Jacobian."""


class NetworkError(ValueError):
    """A line graph fault at bus positions `buses`; `naming(ids)` names position k `ids[k]`."""

    def __init__(self, template, buses):
        self.template, self.buses = template, buses
        super().__init__(template.format(buses))

    def naming(self, ids):
        return self.template.format([ids[k] for k in self.buses])


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
    range; raises NetworkError, naming bus positions, if a bus's line
    susceptances do not sum to a finite value or the line graph does not
    connect all buses.
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
        raise NetworkError("line susceptances at bus {0[0]} do not sum to a finite value",
                           overflowed[:1].tolist())
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
        raise NetworkError("line graph is disconnected; unreachable buses {0}",
                           np.flatnonzero(~seen).tolist())


@dataclass(frozen=True)
class Network:
    """Lossless network: bus count and susceptance matrix.

    B is held read-only, so the line kernel cached from it stays its image: a
    write into `B` raises, and a later write into the array the network was
    made from does not reach it. That array is copied unless it is read-only
    and owns its data, as `from_lines` makes it. B must be n_bus x n_bus and
    symmetric, else ValueError.
    """

    n_bus: int
    B: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.B.flags.writeable or not self.B.flags.owndata:  # the caller may write into it
            B = np.array(self.B, dtype=float)
            B.flags.writeable = False
            object.__setattr__(self, "B", B)
        if self.B.shape != (self.n_bus, self.n_bus):
            raise ValueError(f"B must be {self.n_bus} x {self.n_bus}, got shape {self.B.shape}")
        if not np.array_equal(self.B, self.B.T):
            raise ValueError("B must be symmetric")

    @classmethod
    def from_lines(cls, n_bus, lines):
        B = build_susceptance(n_bus, lines)
        B.flags.writeable = False  # no copy: nothing else holds B
        return cls(n_bus=n_bus, B=B)

    @functools.cached_property
    def _lines(self):
        """B over its lines, formed on first use and held for every later evaluation."""
        return _Lines(self.B)


class _Lines:
    """A susceptance matrix over its lines, and the one network evaluation there.

    `rows[i]` holds bus i's nonzero columns of B in column order, the
    diagonal always among them, and their entries. `evaluate` gives three
    Hessian entries per (i, j) of them: (theta_i, theta_j), (theta_i, V_j) and
    (V_i, V_j). Entry `source[k]` goes to `flat[k]` in the flat 2N x 2N
    Hessian, each (theta_i, V_j) also to (V_j, theta_i); `diagonal[i]` is
    where bus i's (theta_i, theta_i) entry sits among the entries.
    """

    def __init__(self, B):
        n = self.n = B.shape[0]
        i, j = np.nonzero((B != 0) | np.eye(n, dtype=bool))  # row-major
        cols, entries = j.tolist(), B[i, j].tolist()
        starts = np.searchsorted(i, np.arange(n + 1)).tolist()
        self.rows = [(cols[a:b], entries[a:b]) for a, b in zip(starts, starts[1:])]
        m, k = 2 * n, 3 * np.arange(i.size)
        self.flat = np.concatenate([2 * i * m + 2 * j, 2 * i * m + 2 * j + 1,
                                    (2 * i + 1) * m + 2 * j + 1, (2 * j + 1) * m + 2 * i])
        self.source = np.concatenate([k, k + 1, k + 2, k + 1])
        self.diagonal = k[i == j].tolist()

    def evaluate(self, theta, V):
        """P and Q at each bus, and the network Hessian's entries, from the lists `theta` and `V`.

        All three are lists of Python floats; angles must be finite (math.cos
        raises on inf). Each row sum runs left to right from +0.0, as numpy
        sums a row of fewer than 8 entries; such a sum is never -0.0, so the
        signed zeros of the pairs off the lines would not change it, and
        below 8 buses every sum keeps the bits of the dense formula's.
        """
        cos, sin = math.cos, math.sin
        P, Q, h = [], [], []
        for i, (cols, entries) in enumerate(self.rows):
            th_i, V_i = theta[i], V[i]
            p = q = tt_sum = tv_sum = 0.0
            for j, b in zip(cols, entries):
                if j == i:
                    q += b * (V_i * V_i)
                    diag = len(h)
                    h += (0.0, 0.0, -b)  # (theta, theta) and (theta, V) finished below
                    continue
                V_j = V[j]
                d = th_i - theta[j]
                c, s = cos(d), sin(d)
                w = b * (V_i * V_j)
                p += s * w
                q += c * w
                h_tt, bs = -w * c, b * s
                tt_sum += h_tt
                tv_sum += bs * V_j
                h += (h_tt, bs * V_i, -b * c)
            h[diag] = -tt_sum
            h[diag + 1] = tv_sum
            P.append(p)
            Q.append(-q)
        return P, Q, h

    def hessian(self, h, blocks=()):
        """The 2N x 2N Hessian from `evaluate`'s entries `h`, +0.0 off the lines.

        Each bus's device block (h_tt, h_tV, h_VV) in `blocks` is first added
        to its diagonal (theta, V) entries; `h` itself is not changed.
        """
        h = list(h)
        for k, (h_tt, h_tV, h_VV) in zip(self.diagonal, blocks):
            h[k] += h_tt
            h[k + 1] += h_tV
            h[k + 2] += h_VV
        m = 2 * self.n
        H = np.zeros(m * m)
        H[self.flat] = np.array(h)[self.source]
        return H.reshape(m, m)

    def jacobian_index(self, free_theta, free_V):
        """Where `evaluate`'s entries go in the power-flow Jacobian at the free buses.

        Its rows are (P, Q) at the buses `free_theta` and `free_V`, its columns
        (theta, V) there: the Hessian's rows and columns at those unknowns,
        each Q row scaled by its bus's V. Returns what `_jacobian` reads.
        """
        m, size = 2 * self.n, free_theta.size + free_V.size
        at = np.full(m, -1)  # each interleaved unknown's row and column, -1 where it is fixed
        at[2 * free_theta] = np.arange(free_theta.size)
        at[2 * free_V + 1] = np.arange(free_theta.size, size)
        r, c = np.divmod(self.flat, m)
        row, col = at[r], at[c]
        kept = (row >= 0) & (col >= 0)
        by = np.where(r % 2 == 1, r // 2, self.n)  # a Q row's bus; N scales by 1.0
        return (size, self.source[kept], row[kept] * size + col[kept], by[kept],
                at[2 * free_V + 1] * (size + 1), free_V)


def _jacobian(index, V, Q, h):
    """The power-flow Jacobian at the free buses of `index` (`_Lines.jacobian_index`).

    Each entry takes the full Jacobian's product, V H_vv + Q/V on the (Q, V)
    diagonal, so this equals the full one's rows and columns at the free
    buses bit for bit, signs of zeros included.
    """
    size, source, target, scale, diagonal, rows = index
    J = np.zeros(size * size)
    J[target] = np.array(h)[source] * np.append(V, 1.0)[scale]
    J[diagonal] += Q[rows] / V[rows]
    return J.reshape(size, size)


def _terms(theta, V, lines):
    """`lines.evaluate` at angles and magnitudes given as any float sequences."""
    return lines.evaluate(np.asarray(theta, dtype=float).tolist(),
                          np.asarray(V, dtype=float).tolist())


def power_balance(theta, V, net):
    """Evaluate the lossless power balance at every bus.

    Returns (P, Q) arrays at the buses of Network `net`, from the one
    network evaluation that the power flow and the voltage Newton also use.
    """
    P, Q, _ = _terms(theta, V, net._lines)
    return np.array(P), np.array(Q)


def network_hessian(theta, V, net):
    """2N x 2N Hessian of the network energy over interleaved (theta_i, V_i).

    Built from the susceptance matrix of Network `net` and the voltage
    phasors alone; it is the Jacobian of (P, Q/V), the transmission network's
    contribution to the stability condition, and annihilates the uniform
    phase-shift direction. Its entries are formed over the network's lines
    only, by the kernel the network holds.
    """
    return net._lines.hessian(_terms(theta, V, net._lines)[2])


def power_flow_jacobian(theta, V, net):
    """Full Jacobian of (P, Q) with respect to (theta, V) at the buses of Network `net`.

    Ordered block-wise: rows are (P_1..P_N, Q_1..Q_N), columns
    (theta_1..theta_N, V_1..V_N). With H the network Hessian, the Jacobian of
    (P, Q/V), it is [[H_tt, H_tv], [V H_vt, V H_vv + diag(Q/V)]].
    """
    V = np.asarray(V, dtype=float)
    lines = net._lines
    _, Q, h = _terms(theta, V, lines)
    every = np.arange(V.size)
    return _jacobian(lines.jacobian_index(every, every), V, np.array(Q), h)


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

    lines = net._lines
    index = lines.jacobian_index(theta_rows, v_rows)
    residual = np.inf
    # a diverging iterate overflows; the non-finite residual check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_FLOW_MAX_ITER + 1):
            # an infinite angle or magnitude gives a non-finite residual, and math.cos raises on it
            finite = np.isfinite(theta).all() and np.isfinite(V).all()
            if finite:
                P, Q, h = lines.evaluate(theta.tolist(), V.tolist())  # the one pass of this iterate
                P, Q = np.array(P), np.array(Q)
                mismatch = np.concatenate([P_set[theta_rows] - P[theta_rows],
                                           Q_set[v_rows] - Q[v_rows]])
                residual = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
            if not (finite and np.isfinite(residual)):
                raise PowerFlowError(f"power flow diverged at iteration {it} (non-finite residual)")
            if residual <= _FLOW_TOL:
                return PowerFlowSolution(theta=theta, V=V, P=P, Q=Q, residual=residual, iterations=it)
            if it == _FLOW_MAX_ITER:
                break
            J = _jacobian(index, V, Q, h)
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
