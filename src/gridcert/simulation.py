"""Nonlinear time-domain integration of the differential-algebraic power system.

Semi-explicit index-1 treatment, the partitioned scheme of Stott (Proc. IEEE
67(2), 1979): device states advance with classical fixed-step RK4 while the
bus voltages (theta_i, V_i) are re-solved by Newton at every stage so that
device outputs match the network power balance.

Each Newton iterate is evaluated once: one network evaluation, giving the
network's (P, Q) and Hessian, and one voltage source per device give the
energy gradient and, while the iterate has not converged, the voltage
Hessian, to which each device adds its (theta, V) block as four scalars. On
a few buses an iterate costs numpy calls rather than arithmetic, so the
feasibility check, the device sources, the gradient and the convergence
test run on Python floats, as does the network evaluation over the lines
(`network._Lines`), whose Hessian entries take each device's block before
they fill the dense voltage Hessian. At the converged iterate the same
network (P, Q) and sources give the residual post-check, with each source's
(P, Q) formed once, and the stage's state derivative.
Each solve returns its last network evaluation with its voltages; the next
stage starts from those voltages, so it takes that evaluation for its first
iterate. The solve that ends an RK4 step is at the next step's starting
point, so it also supplies that step's first stage, the Bregman storage
recorded for the step and each device's (P, Q) in `Trajectory.powers`.
Python floats and numpy scalars round alike, and each product, row sum and
`np.dot` takes the operands of the per-piece evaluation, so trajectories do
not change by a bit.

Each Newton step solves its 6x6 (on three buses) system with the LAPACK
gufunc that `np.linalg.solve` wraps, `numpy.linalg._umath_linalg.solve1`,
called directly: at this size the wrapper's checks, conversions and the
`np.errstate` it enters on every call cost about as much as LAPACK itself.
The gufunc reports a singular matrix through numpy's floating-point error
state, so `simulate` enters `np.linalg.solve`'s own error state once per
run and `solve_bus_voltages` once per call (`_solve_errors`). Inside it an
invalid operation of any numpy float work raises LinAlgError, so that work
is kept to the solves and to the Bregman storage's sums and dots, which
read finite operands: a converged solve's voltages and powers, and device
states, as each energy squares its states other than the angle with
Python's `**`, which raises OverflowError near 1e154, long before a state
or an angle driven by one could overflow. The RK4 stages and the state
derivatives run on Python floats, which numpy's error state does not see.
The gufunc has been in that private module since numpy 1.8, so every numpy
the project allows has it; a numpy without it fails at import, and there
is no fallback path.

Along trajectories the total Bregman storage (relative to a chosen
equilibrium) is tracked; for exact solutions it decays at the analytic
dissipation rate. The public functions take device states as one vector
`x`, concatenated in `state_slices` order like `simulate`'s `x0` and
`Trajectory.x`, and bus voltages `v` interleaved as (theta_i, V_i).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve1 as _lapack_solve  # what np.linalg.solve calls

from .network import power_balance
from .network import network_hessian  # noqa: F401 -- unused; bench/tests traces simulation.network_hessian
from .system import Equilibrium, PowerSystem

__all__ = [
    "AlgebraicSolveError",
    "solve_bus_voltages",
    "algebraic_residual",
    "bregman_storage",
    "dissipation_rate",
    "Trajectory",
    "perturbed_state",
    "simulate",
]


_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-10, 30  # voltage Newton: (P, Q) mismatch bound, iterations


class AlgebraicSolveError(RuntimeError):
    """Per-stage Newton solve of the bus voltages failed to converge."""


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _solve_errors():
    """The error state `np.linalg.solve` runs its gufunc under, as a fresh context manager.

    A singular matrix, which the gufunc reports as an invalid operation,
    raises LinAlgError; overflow, division by zero and underflow pass
    silently.
    """
    return np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _split_states(x, slices):
    x = np.asarray(x, dtype=float).tolist()
    return [x[sl] for sl in slices]


def _max_abs(values):
    """Largest |value|, or NaN when any is NaN, which Python's `max` would skip unless first."""
    gaps = [abs(x) for x in values]
    return math.nan if any(map(math.isnan, gaps)) else max(gaps, default=0.0)


def _mismatch(powers, P_net, Q_net):
    """Infinity norm of the (P, Q) mismatch between device outputs and network balance."""
    return _max_abs(x - x_net for (P, Q), P_i, Q_i in zip(powers, P_net, Q_net)
                    for x, x_net in ((P, P_i), (Q, Q_i)))


def _voltage_newton(system, states, setpoints, v_guess, network=None):
    """`solve_bus_voltages` on per-device `states`.

    `network` is the network evaluation at `v_guess` that an earlier solve
    ended with, when there is one; it stands in for the first iterate's.
    Also returns each device's source and (P, Q), and the network
    evaluation (P, Q, Hessian), all at the solution. Runs under
    `_solve_errors`, which turns LAPACK's report of a singular voltage
    Hessian into LinAlgError.
    """
    lines = system.net._lines
    v = np.array(v_guess, dtype=float)
    for _ in range(_NEWTON_MAX_ITER):
        values = v.tolist()
        V_l = values[1::2]
        if min(V_l) <= 0 or not all(map(math.isfinite, values)):
            raise AlgebraicSolveError("bus voltage iterate left the feasible region")
        if network is None:
            network = lines.evaluate(values[0::2], V_l)
        P_l, Q_l, hessian = network
        sources = [dev._source(states[i], values[2 * i], V_l[i], setpoints[i])
                   for i, dev in enumerate(system.devices)]
        # gradient of the total energy over interleaved (theta, V)
        g = []
        for P, Q, V_i, src in zip(P_l, Q_l, V_l, sources):
            g_theta, g_V = src.bus_gradient()
            g += (P + g_theta, Q / V_i + g_V)
        if all(abs(g_i) <= 0.1 * _NEWTON_TOL for g_i in g):  # a NaN never passes, unlike max()'s
            break
        H = lines.hessian(hessian, [src.bus_block() for src in sources])
        try:
            step = _lapack_solve(H, g)
        except LinAlgError as exc:
            raise AlgebraicSolveError("singular voltage Jacobian") from exc
        v = v - step
        network = None
    else:
        raise AlgebraicSolveError(
            f"voltage Newton did not converge in {_NEWTON_MAX_ITER} iterations "
            f"(residual {_max_abs(g):.3e})"
        )
    powers = [src.power() for src in sources]
    res = _mismatch(powers, P_l, Q_l)
    if not res <= _NEWTON_TOL:  # a NaN residual fails too
        raise AlgebraicSolveError(f"voltage solve residual {res:.3e} exceeds {_NEWTON_TOL:.1e}")
    return v, sources, powers, network


def algebraic_residual(system, x, v, setpoints):
    """Infinity norm of the (P, Q) mismatch between device outputs and network balance."""
    states = _split_states(x, system.state_slices())
    theta = v[0::2]
    V = v[1::2]
    P_net, Q_net = power_balance(theta, V, system.net)
    powers = [dev.output_power(states[i], theta[i], V[i], setpoints[i])
              for i, dev in enumerate(system.devices)]
    return _mismatch(powers, P_net, Q_net)


def solve_bus_voltages(system, x, v_guess, setpoints):
    """Newton solve of the bus voltages for the fixed concatenated device states `x`.

    The residual is the gradient of the total energy in the bus variables
    (equivalently the device/network power mismatch with Q scaled by 1/V);
    the Jacobian is the corresponding voltage Hessian. Converges from the
    previous step's voltages during integration. Raises AlgebraicSolveError
    when an iterate leaves V > 0, the Jacobian is singular, 30 iterations do
    not converge or the (P, Q) mismatch at the solution exceeds 1e-10;
    simulate() treats this as a step rejection. Each call enters numpy's
    error state for the LAPACK solves once (see the module docstring), and
    leaves the caller's error state as it found it.
    """
    states = _split_states(x, system.state_slices())
    with _solve_errors():
        return _voltage_newton(system, states, setpoints, v_guess)[0]


def _storage(system, eq: Equilibrium):
    """`bregman_storage` against `eq` from the pieces of a voltage solve.

    The function returned takes per-device states, the bus voltages v, the
    network's Q at v and each device's source there. The equilibrium-side
    terms are formed once, here.
    """
    omega0 = system.omega0
    theta_s = np.asarray(eq.flow.theta, dtype=float)
    V_s = np.asarray(eq.flow.V, dtype=float)
    _, Q_net_s = power_balance(theta_s, V_s, system.net)
    Q_sum_s = Q_net_s.sum()
    dV_s = Q_net_s / V_s  # network gradient at the equilibrium: (P*, Q*/V*) per bus
    device_s = [
        (dev, xs.tolist(), dev.energy(xs, theta_s[i], V_s[i], sp, omega0),
         dev.energy_gradient(xs, theta_s[i], V_s[i], sp, omega0))
        for i, (dev, sp, xs) in enumerate(zip(system.devices, eq.setpoints, eq.states))
    ]
    v_s = eq.v().tolist()

    def storage(states, v, Q_net, sources):
        # the network energy -1/2 sum_ij B_ij V_i V_j cos(theta_i - theta_j) is sum(Q)/2
        W = 0.5 * float(np.sum(Q_net) - Q_sum_s)
        W -= float(np.dot(eq.flow.P, v[0::2] - theta_s) + np.dot(dV_s, v[1::2] - V_s))
        dv = [a - b for a, b in zip(v.tolist(), v_s)]
        for i, ((dev, xs, U_s, gs), state, src) in enumerate(zip(device_s, states, sources)):
            W += dev._energy(state, src, omega0)
            W -= U_s
            dz = [a - b for a, b in zip(state, xs)] + dv[2 * i:2 * i + 2]
            W -= float(np.dot(gs, dz))
        return float(W)

    return storage


def bregman_storage(system, eq: Equilibrium, x, v):
    """Total storage: energy minus its first-order expansion at the equilibrium.

    Zero with zero gradient at the equilibrium itself; serves as the Lyapunov
    function along simulated trajectories.
    """
    states = _split_states(x, system.state_slices())
    v = np.asarray(v, dtype=float)
    theta = v[0::2]
    V = v[1::2]
    _, Q_net = power_balance(theta, V, system.net)
    sources = [dev._source(states[i], theta[i], V[i], sp)
               for i, (dev, sp) in enumerate(zip(system.devices, eq.setpoints))]
    return _storage(system, eq)(states, v, Q_net, sources)


def dissipation_rate(system, x, v, setpoints):
    """Analytic storage decay rate: -sum D ddelta^2/omega0 - sum tau dE^2/(X - X')."""
    states = _split_states(x, system.state_slices())
    theta = v[0::2]
    V = v[1::2]
    rate = 0.0
    for i, dev in enumerate(system.devices):
        deriv = dev.state_derivative(states[i], theta[i], V[i], setpoints[i], system.omega0)
        rate += dev.dissipation_rate(deriv, system.omega0)
    return rate


@dataclass
class Trajectory:
    """States of one simulation run: the start, then one row per integration step.

    x rows are concatenated device states, v rows interleaved (theta, V),
    W the Bregman storage per sample. `powers[k, i]` is device i's (P, Q)
    at row k, from the voltage solve behind that row. `diagnostic` is set
    when the run was truncated by an algebraic solve failure.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    W: np.ndarray
    powers: np.ndarray | None = field(default=None, repr=False)
    truncated: bool = False
    diagnostic: str | None = None
    system: PowerSystem | None = field(default=None, repr=False)
    equilibrium: Equilibrium | None = field(default=None, repr=False)

    def deviations(self):
        """Per-sample 2-norm distance to the reference stationary set.

        Stationarity is defined up to a uniform phase shift of all angles, so
        the distance is minimized over that shift: the mean deviation of the
        angle coordinates (device deltas and bus thetas) is projected out.
        """
        system = self.system
        x_s = self.equilibrium.x()
        v_s = self.equilibrium.v()
        n_x = x_s.size
        angle_mask = np.zeros(n_x + v_s.size, dtype=bool)
        for dev, sl in zip(system.devices, system.state_slices()):
            if dev.n_states:
                angle_mask[sl.start] = True
        angle_mask[n_x::2] = True
        dz = np.hstack([self.x - x_s, self.v - v_s])
        shift = dz[:, angle_mask].mean(axis=1)
        dz[:, angle_mask] -= shift[:, None]
        return np.linalg.norm(dz, axis=1)


def perturbed_state(eq: Equilibrium, bus, delta_shift):
    """Equilibrium device states with bus index `bus`'s rotor angle shifted by `delta_shift`
    radians. A bus index outside 0..n_bus-1 raises ValueError."""
    n = eq.system.n_bus
    if not 0 <= bus < n:
        raise ValueError(f"bus index must be in 0..{n - 1}, got {bus}")
    dev = eq.system.devices[bus]
    if dev.n_states == 0:
        raise ValueError(f"bus {bus} hosts a load; it has no angle to perturb")
    x0 = eq.x().copy()
    sl = eq.system.state_slices()[bus]
    x0[sl.start] += delta_shift
    return x0


def simulate(system, eq: Equilibrium, x0=None, dt=1e-3, t_end=1.0):
    """Fixed-step RK4 integration with a Newton voltage solve at every stage.

    Starts from device states `x0` (default: the equilibrium itself) with the
    bus voltages re-solved for consistency; if that initial solve fails, the
    AlgebraicSolveError is raised, as there is no trajectory to return. Every
    step is recorded. On a later algebraic solve failure the trajectory is
    truncated and returned with a diagnostic instead of raising. `dt` and
    `t_end` must be positive and finite, else ValueError names the one that
    is not; so does a step count `t_end / dt` that overflows or exceeds
    sys.maxsize, which no trajectory could hold, or that is not a whole
    number (within 1e-9 of t_end), as no run of whole steps ends at t_end.
    `x0` must be a finite vector of `system.n_states` entries, else
    ValueError, before any solve. The run enters numpy's error state for the
    LAPACK solves once, whatever its step count (see the module docstring),
    and leaves the caller's error state as it found it.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not 0 < value < math.inf:  # also rejects nan
            raise ValueError(f"{name} must be positive and finite, got {value}")
    n_steps = t_end / dt
    if not n_steps <= sys.maxsize:  # also rejects an overflow to inf
        raise ValueError(f"t_end / dt must be finite, got {t_end:g} / {dt:g} "
                         f"(a trajectory holds at most {sys.maxsize} steps)")
    n_steps = int(round(n_steps))
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:  # also rejects a run of no steps
        raise ValueError(f"t_end / dt must be a whole number of steps, got {t_end:g} / {dt:g}")
    x = np.asarray(eq.x() if x0 is None else x0, dtype=float)
    if x.shape != (system.n_states,) or not np.isfinite(x).all():
        raise ValueError(f"x0 must be a finite vector of {system.n_states} device states, "
                         f"got {x.tolist()}")
    x = x.tolist()
    setpoints = eq.setpoints
    slices = system.state_slices()
    storage = _storage(system, eq)

    def rhs(x_stage, start):
        """State derivative at the list `x_stage`, and the voltage solve there.

        `start` holds the voltages to start from and, where an earlier solve
        ended at them, that solve's network evaluation; the solve returns
        the same pair for the next stage.
        """
        states = [x_stage[sl] for sl in slices]
        v_stage, sources, powers, network = _voltage_newton(system, states, setpoints, *start)
        deriv = [d for dev, state, src, (P, _), sp in zip(system.devices, states, sources, powers,
                                                          setpoints)
                 for d in dev._state_derivative(state, src, P, sp, system.omega0)]
        return deriv, (v_stage, network), (states, v_stage, network[1], sources), powers

    # RK4 on Python floats, each operation in the order numpy took it, so the bits are numpy's
    def stage(x, h, k):
        return [a + h * b for a, b in zip(x, k)]

    half, sixth = 0.5 * dt, dt / 6.0
    diagnostic = None
    with _solve_errors():
        k1, start, solved, powers = rhs(x, (eq.v(),))
        xs = [x]
        vs = [start[0]]
        Ws = [storage(*solved)]
        Ps = [powers]
        for k in range(n_steps):
            try:
                k2, start, _, _ = rhs(stage(x, half, k1), start)
                k3, start, _, _ = rhs(stage(x, half, k2), start)
                k4, start, _, _ = rhs(stage(x, dt, k3), start)
                x = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
                k1, start, solved, powers = rhs(x, start)  # the next step's first stage, and its row
            except AlgebraicSolveError as exc:
                diagnostic = f"truncated at t={k * dt:.6g}s: {exc}"  # the time of the last row
                break
            xs.append(x)
            vs.append(start[0])
            Ws.append(storage(*solved))
            Ps.append(powers)

    return Trajectory(
        t=np.arange(len(xs)) * dt,  # row k is step k
        x=np.array(xs),
        v=np.array(vs),
        W=np.array(Ws),
        powers=np.array(Ps),
        truncated=diagnostic is not None,
        diagnostic=diagnostic,
        system=system,
        equilibrium=eq,
    )
