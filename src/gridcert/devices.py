"""Bus component models and their energy functions.

Four device kinds can sit at a bus:

* TwoAxisGenerator -- synchronous machine with rotor angle, frequency
  deviation and d/q internal voltages behind transient reactances.
* VsgInverter -- virtual synchronous generator (swing equation with an
  internal voltage source behind the synchronous reactances).
* DroopInverter -- frequency droop control, the small-inertia limit of the
  VSG (first-order angle dynamics).
* ConstantPowerLoad -- grid-following load drawing fixed (P, Q).

Each device exposes its grid output power, the right-hand side of its state
equation, the stationary setpoint/state realizing a given operating point,
and its stored-energy function together with closed-form gradients and
Hessians over (internal states..., theta, V). The Hessians feed both the
stability certificate cross-checks and the linearized-dynamics oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

__all__ = [
    "OMEGA0_DEFAULT",
    "OperatingPoint",
    "Setpoint",
    "CapabilityError",
    "StationaryStateError",
    "internal_phase",
    "stationary_setpoint",
    "reduced_stiffness_blocks",
    "Device",
    "TwoAxisGenerator",
    "VsgInverter",
    "DroopInverter",
    "ConstantPowerLoad",
    "device_from_dict",
]

#: Nominal angular frequency [rad/s]; only trajectories and eigenvalues scale
#: with it, the certificate verdict does not.
OMEGA0_DEFAULT = 2 * math.pi * 60.0

_STATIONARY_TOL = 1e-10

# The closed forms below take floats, or the arrays of a reactance sweep's stack of grid
# points, and give an array the bits of the float code at each element. numpy's cos and sin
# match libm's bit for bit; its arctan and its squares (x*x) do not, so those go through libm's
# atan and pow (Python's float x**2) element by element. A float takes the scalar code behind
# one class test, the cheapest dispatch: the simulator's inner loop and every device of a
# 500-bus config pass floats, where a numpy call would cost microseconds.
def _libm(f, x, *args):
    """f(element, *args) for each element of the array x, through Python floats."""
    values = map(f, x.ravel().tolist(), *(repeat(a) for a in args))
    return np.fromiter(values, float, x.size).reshape(x.shape)


def _atan(x):
    return _libm(math.atan, x) if x.__class__ is np.ndarray else math.atan(x)


def _sq(x):
    return _libm(math.pow, x, 2.0) if x.__class__ is np.ndarray else x ** 2


def _cos_sin(x):
    return (np.cos(x), np.sin(x)) if x.__class__ is np.ndarray else (math.cos(x), math.sin(x))


def _any(x):
    return x.any() if x.__class__ is np.ndarray else x


def _all(x):
    return x.all() if x.__class__ is np.ndarray else x


@dataclass(frozen=True)
class OperatingPoint:
    """Stationary voltage magnitude and power injection seen at one bus."""

    V: float
    P: float
    Q: float

    def __post_init__(self):
        if not self.V > 0:
            raise ValueError(f"bus voltage must be positive, got V={self.V}")


@dataclass(frozen=True)
class Setpoint:
    """Constant inputs realizing an operating point: mechanical power and field voltage."""

    P_m: float
    V_fd: float


class CapabilityError(ValueError):
    """Operating point outside generator capability: Q + V^2/X_q must be positive."""


class StationaryStateError(ValueError):
    """A closed-form stationary state misses the zero-derivative condition beyond tolerance."""


def _capability(op, X_q):
    """(Q + V^2/X_q, where it is not positive): outside there, `internal_phase` is undefined."""
    den = op.Q + op.V**2 / X_q
    return den, den <= 0


def internal_phase(op, X_q):
    """Phase of the internal voltage source relative to the bus voltage.

    phi = arctan(P / (Q + V^2/X_q)), well-defined in (-pi/2, pi/2) only when
    the denominator is positive; otherwise the operating point cannot be
    realized on the principal branch and CapabilityError is raised.
    """
    den, outside = _capability(op, X_q)
    if _any(outside):
        raise CapabilityError(
            f"operating point outside generator capability: Q + V^2/X_q = {np.min(den):.6g} <= 0"
        )
    return _atan(op.P / den)


def _phase(op, X_q):
    """`internal_phase` with its cos, sin and their squares: all the closed forms read of it."""
    phi = internal_phase(op, X_q)
    cos_phi, sin_phi = _cos_sin(phi)
    return phi, cos_phi, sin_phi, _sq(cos_phi), _sq(sin_phi)


def stationary_setpoint(op, X_d, X_q):
    """Mechanical power and field voltage that hold the device at `op`.

    Invariant under uniform phase shifts of the target flow (depends on the
    operating point only through V, P, Q).
    """
    return _setpoint(op, X_d, _phase(op, X_q))


def _setpoint(op, X_d, phase):
    _, cos_phi, sin_phi = phase[:3]
    V_fd = (X_d * op.P / op.V) * sin_phi + (X_d * op.Q / op.V + op.V) * cos_phi
    return Setpoint(P_m=op.P, V_fd=V_fd)


def reduced_stiffness_blocks(op, X_d, X_q):
    """Closed-form blocks of the reduced energy Hessian at an operating point.

    Returns (h_dd, h_dv, h_vv): the scalar angle-angle entry, the 1x2
    angle-(theta, V) row and the 2x2 (theta, V) block of the device energy
    Hessian after the internal voltages are eliminated. h_dd is the
    synchronizing power coefficient d P / d delta at the operating point.
    """
    phi = internal_phase(op, X_q)
    vq = op.V * math.cos(phi)
    vd = op.V * math.sin(phi)
    h_dd = vq**2 / X_q + vd**2 / X_d + op.Q
    c = (op.P + (1.0 / X_q - 1.0 / X_d) * vd * vq) / op.V
    h_dv = np.array([-h_dd, c])
    h_vv = np.array([[h_dd, -c], [-c, (vd**2 / X_q + vq**2 / X_d) / op.V**2]])
    return h_dd, h_dv, h_vv


class _Source:
    """Internal voltage source E_q + j E_d behind reactances (x_d, x_q), seen from its bus.

    With the internal phase a = delta - theta, V_q = V cos a and V_d = V sin a,
    the currents are

        I_d = (E_q - V_q)/x_d,   I_q = (V_d - E_d)/x_q

    and the reactances store U = (V_d - E_d)^2/(2 x_q) + (E_q - V_q)^2/(2 x_d).
    Derivatives are stated once, over the bus's (theta, V), as the voltage
    Newton reads them. U depends on delta and theta only through a, so every
    delta entry is the exact negation of its theta entry (signed zeros too).
    The two-axis machine passes its states (E_q, E_d) and transient
    reactances, the grid-forming inverters (V_fd, 0) and their synchronous
    ones. Phasor and currents are evaluated once, on construction; the
    voltage Newton takes its gradient, Hessian block, residual, the state
    derivative and the storage from one source per device and iterate.
    Phasor, currents, power and second derivatives are elementwise over a
    sweep stack's arrays.
    """

    __slots__ = ("E_q", "E_d", "x_d", "x_q", "c", "s", "vq", "vd", "I_d", "I_q",
                 "c2", "s2", "vq2", "vd2")

    def __init__(self, a, V, E_q, E_d, x_d, x_q):
        self.E_q, self.E_d, self.x_d, self.x_q = E_q, E_d, x_d, x_q
        # `_cos_sin` and `_sq` inlined: the voltage Newton builds a source per device and
        # iterate, and every one of them needs these squares, through power() or bus_block()
        row = a.__class__ is np.ndarray
        self.c, self.s = c, s = (np.cos(a), np.sin(a)) if row else (math.cos(a), math.sin(a))
        self.vq, self.vd = vq, vd = V * c, V * s
        self.I_d = (E_q - vq) / x_d
        self.I_q = (vd - E_d) / x_q
        self.c2, self.s2, self.vq2, self.vd2 = (
            map(_sq, (c, s, vq, vd)) if row else (c ** 2, s ** 2, vq ** 2, vd ** 2))

    def power(self):
        """(P, Q) delivered to the bus."""
        vq, vd, x_d, x_q = self.vq, self.vd, self.x_d, self.x_q
        P = self.E_q * vd / x_d - self.E_d * vq / x_q + (1.0 / x_q - 1.0 / x_d) * vd * vq
        Q = self.E_q * vq / x_d + self.E_d * vd / x_q - (self.vd2 / x_q + self.vq2 / x_d)
        return P, Q

    def potential(self):
        """(q-axis, d-axis) terms of U, summed by each device in its own fixed order."""
        return (self.vd - self.E_d) ** 2 / (2 * self.x_q), (self.E_q - self.vq) ** 2 / (2 * self.x_d)

    def bus_gradient(self):
        """(dU/dtheta, dU/dV): the source's term in the voltage Newton residual."""
        return -(self.I_q * self.vq + self.I_d * self.vd), self.I_q * self.s - self.I_d * self.c

    def bus_block(self):
        """(theta, theta), (theta, V) and (V, V) entries of U's Hessian over the bus's (theta, V)."""
        c, s, vq, vd, x_d, x_q = self.c, self.s, self.vq, self.vd, self.x_d, self.x_q
        h_tt = self.vq2 / x_q + self.vd2 / x_d + self.I_d * vq - self.I_q * vd
        h_tV = -(s * vq / x_q - c * vd / x_d + self.I_q * c + self.I_d * s)
        return h_tt, h_tV, self.s2 / x_q + self.c2 / x_d

    def hessian(self, size):
        """size x size matrix holding the Hessian of U over (delta, theta, V).

        Delta is the first coordinate, theta and V the last two; entries for
        any coordinates in between are left zero. A (..., size, size) stack
        over a stack of devices.
        """
        h_tt, h_tV, h_VV = self.bus_block()
        H = np.zeros(np.shape(h_tt) + (size, size))
        H[..., 0, 0] = H[..., -2, -2] = h_tt
        H[..., 0, -2] = H[..., -2, 0] = -h_tt
        H[..., 0, -1] = H[..., -1, 0] = -h_tV
        H[..., -2, -1] = H[..., -1, -2] = h_tV
        H[..., -1, -1] = h_VV
        return H


class _ConstantPower:
    """A constant-power load seen from its bus, with the bus methods of `_Source`.

    Its energy is -P theta - Q ln V, so it adds (-P, -Q/V) to the voltage
    Newton residual and Q/V^2 to the (V, V) entry of its Hessian.
    """

    __slots__ = ("P", "Q", "theta", "V")

    def __init__(self, P, Q, theta, V):
        self.P, self.Q, self.theta, self.V = P, Q, theta, V

    def power(self):
        return self.P, self.Q

    def bus_gradient(self):
        return -self.P, -self.Q / self.V

    def bus_block(self):
        return 0.0, 0.0, self.Q / self.V**2


class Device:
    """Common interface of all bus components.

    State vectors are 1-d arrays ordered as `state_names`; energy gradients
    and Hessians are over (states..., theta, V).

    A device whose X_d and X_q are arrays (`with_reactances`) is a stack of
    devices: its stationary setpoint, state and residual, energy Hessian and
    damping block are evaluated elementwise. States then hold one column per
    device, and Hessian and damping blocks come as (..., k, k) stacks.
    """

    kind = ""
    state_names: tuple[str, ...] = ()

    def __post_init__(self):
        params = vars(self)
        for holds, message in self._rules(params):
            if not _all(holds):
                raise ValueError(message.format(**params))

    @classmethod
    def _rules(cls, p):
        """Each check of the constructor on parameters `p`: where it holds, and its message."""
        for name, value in p.items():
            yield ((0 < value) & (value < math.inf),
                   f"{name} must be positive and finite, got {{{name}}}")

    def admits(self, **changes):
        """Where this device with `changes` would pass its constructor's checks, elementwise."""
        ok = True
        for holds, _ in self._rules({**vars(self), **changes}):
            ok = ok & holds
        return ok

    def with_reactances(self, X_d, X_q):
        """This device with its synchronous reactances replaced; arrays give a stack of devices."""
        return replace(self, X_d=X_d, X_q=X_q)

    @property
    def n_states(self):
        return len(self.state_names)

    def stationary_setpoint(self, op):
        return stationary_setpoint(op, self.X_d, self.X_q)

    def _phase(self, op):
        """The internal phase terms at `op` (`_phase`); None for a load, which has no setpoint."""
        return _phase(op, self.X_q)

    @property
    def connection_reactances(self):
        """(x_d, x_q) between the internal voltage source and the bus."""
        return self.X_d, self.X_q

    def stationary(self, theta_star, op, omega0=OMEGA0_DEFAULT):
        """Setpoint and state at bus angle `theta_star` and operating point `op`, where the
        state meets the zero-derivative condition, and its largest |state derivative|."""
        return self._stationary(theta_star, op, omega0, self._phase(op))

    def _stationary(self, theta_star, op, omega0, phase):
        """`stationary`, given the device's `_phase` terms at `op`."""
        setpoint = None if phase is None else _setpoint(op, self.X_d, phase)
        state = self._stationary_state(theta_star, op, setpoint, phase)
        deriv = self.state_derivative(state, theta_star, op.V, setpoint, omega0)
        residual = np.abs(deriv).max(axis=0, initial=0.0)
        return setpoint, state, ~(residual > _STATIONARY_TOL), residual

    def stationary_point(self, theta_star, op, omega0=OMEGA0_DEFAULT):
        """Setpoint and state at equilibrium for bus angle `theta_star` and operating point `op`.

        The state is verified against the zero-derivative post-condition
        before returning; raises StationaryStateError if it fails.
        """
        setpoint, state, holds, residual = self.stationary(theta_star, op, omega0)
        if not _all(holds):
            raise StationaryStateError(
                f"{self.kind} stationary state residual {np.max(residual):.3e} "
                f"exceeds {_STATIONARY_TOL:.1e}"
            )
        return setpoint, state

    def stationary_state(self, theta_star, op, omega0=OMEGA0_DEFAULT):
        """The state of `stationary_point`."""
        return self.stationary_point(theta_star, op, omega0)[1]

    def output_power(self, state, theta, V, setpoint=None):
        return self._source(state, theta, V, setpoint).power()

    def state_derivative(self, state, theta, V, setpoint=None, omega0=OMEGA0_DEFAULT):
        src = self._source(state, theta, V, setpoint)
        return np.array(self._state_derivative(state, src, src.power()[0], setpoint, omega0))

    def energy(self, state, theta, V, setpoint=None, omega0=OMEGA0_DEFAULT):
        return self._energy(state, self._source(state, theta, V, setpoint), omega0)

    # subclasses implement, with src from _source and P its active power:
    #   _source(state, theta, V, setpoint) -> _Source or _ConstantPower
    #   _state_derivative(state, src, P, setpoint, omega0) -> list, one entry per state
    #   _stationary_state(theta_star, op, setpoint) -> ndarray
    #   _energy(state, src, omega0) -> float
    #   energy_gradient(state, theta, V, setpoint, omega0) -> ndarray
    #   energy_hessian(state, theta, V, setpoint, omega0) -> ndarray
    #   damping_block(omega0) -> ndarray over internal states
    #   dissipation_rate(deriv, omega0) -> float


@dataclass(frozen=True, eq=False)
class TwoAxisGenerator(Device):
    """Two-axis synchronous generator.

    States (delta, omega, E_q, E_d): rotor angle, per-unit frequency
    deviation, and q/d internal voltages. The grid connection goes through
    the transient reactances:

        I_d = (E_q - V_q)/X_d',   I_q = (V_d - E_d)/X_q'

    with V_q = V cos(delta - theta), V_d = V sin(delta - theta).
    """

    M: float
    D: float
    tau_d: float
    tau_q: float
    X_d: float
    X_q: float
    X_d_prime: float
    X_q_prime: float

    kind = "two_axis"
    state_names = ("delta", "omega", "E_q", "E_d")

    @classmethod
    def _rules(cls, p):
        yield from super()._rules(p)
        yield p["X_d_prime"] < p["X_d"], "transient reactance X_d'={X_d_prime} must be below X_d={X_d}"
        yield p["X_q_prime"] < p["X_q"], "transient reactance X_q'={X_q_prime} must be below X_q={X_q}"

    @property
    def connection_reactances(self):
        return self.X_d_prime, self.X_q_prime

    def _source(self, state, theta, V, setpoint=None):
        return _Source(state[0] - theta, V, state[2], state[3], *self.connection_reactances)

    def _state_derivative(self, state, src, P, setpoint, omega0):
        return [
            omega0 * state[1],
            (-self.D * state[1] - P + setpoint.P_m) / self.M,
            (-state[2] - (self.X_d - self.X_d_prime) * src.I_d + setpoint.V_fd) / self.tau_d,
            (-state[3] + (self.X_q - self.X_q_prime) * src.I_q) / self.tau_q,
        ]

    def _stationary_state(self, theta_star, op, setpoint, phase):
        phi, cos_phi, sin_phi = phase[:3]
        vq = op.V * cos_phi
        vd = op.V * sin_phi
        E_d = (1.0 - self.X_q_prime / self.X_q) * vd
        E_q = (self.X_d_prime * setpoint.V_fd + (self.X_d - self.X_d_prime) * vq) / self.X_d
        return np.array([theta_star + phi, np.zeros_like(phi), E_q, E_d])

    def _energy(self, state, src, omega0):
        U_q, U_d = src.potential()
        _, omega, E_q, E_d = state
        return (omega0 * self.M * omega**2 / 2
                + E_q**2 / (2 * (self.X_d - self.X_d_prime))
                + E_d**2 / (2 * (self.X_q - self.X_q_prime))
                + U_q + U_d)

    def energy_gradient(self, state, theta, V, setpoint=None, omega0=OMEGA0_DEFAULT):
        src = self._source(state, theta, V, setpoint)
        dU_dtheta, dU_dV = src.bus_gradient()
        return np.array([
            -dU_dtheta,
            omega0 * self.M * state[1],
            state[2] / (self.X_d - self.X_d_prime) + src.I_d,
            state[3] / (self.X_q - self.X_q_prime) - src.I_q,
            dU_dtheta,
            dU_dV,
        ])

    def energy_hessian(self, state, theta, V, setpoint=None, omega0=OMEGA0_DEFAULT):
        src = self._source(state, theta, V, setpoint)
        c, s, vq, vd = src.c, src.s, src.vq, src.vd
        xdp, xqp = self.X_d_prime, self.X_q_prime
        # order: delta, omega, E_q, E_d, theta, V
        H = src.hessian(6)
        H[..., 0, 2] = H[..., 2, 0] = vd / xdp
        H[..., 0, 3] = H[..., 3, 0] = -vq / xqp
        H[..., 1, 1] = omega0 * self.M
        H[..., 2, 2] = 1.0 / (self.X_d - xdp) + 1.0 / xdp
        H[..., 2, 4] = H[..., 4, 2] = -vd / xdp
        H[..., 2, 5] = H[..., 5, 2] = -c / xdp
        H[..., 3, 3] = 1.0 / (self.X_q - xqp) + 1.0 / xqp
        H[..., 3, 4] = H[..., 4, 3] = vq / xqp
        H[..., 3, 5] = H[..., 5, 3] = -s / xqp
        return H

    def damping_block(self, omega0=OMEGA0_DEFAULT):
        d_term = (self.X_d - self.X_d_prime) / self.tau_d
        R = np.zeros(np.shape(d_term) + (4, 4))
        R[..., 0, 1], R[..., 1, 0] = -1.0 / self.M, 1.0 / self.M
        R[..., 1, 1] = self.D / (omega0 * self.M**2)
        R[..., 2, 2] = d_term
        R[..., 3, 3] = (self.X_q - self.X_q_prime) / self.tau_q
        return R

    def dissipation_rate(self, deriv, omega0=OMEGA0_DEFAULT):
        d_delta, _, d_Eq, d_Ed = deriv
        return -(self.D * d_delta**2 / omega0
                 + self.tau_d * d_Eq**2 / (self.X_d - self.X_d_prime)
                 + self.tau_q * d_Ed**2 / (self.X_q - self.X_q_prime))


class _GridFormingBase(Device):
    """Shared connection of the VSG and droop inverters.

    Both act as a voltage source V_fd behind the synchronous reactances:

        I_d = (V_fd - V_q)/X_d,   I_q = V_d/X_q.
    """

    def _source(self, state, theta, V, setpoint):
        return _Source(state[0] - theta, V, setpoint.V_fd, 0.0, *self.connection_reactances)

    def dissipation_rate(self, deriv, omega0=OMEGA0_DEFAULT):
        return -self.D * deriv[0] ** 2 / omega0


@dataclass(frozen=True, eq=False)
class VsgInverter(_GridFormingBase):
    """Virtual synchronous generator: swing equation behind synchronous reactances."""

    M: float
    D: float
    X_d: float
    X_q: float

    kind = "vsg"
    state_names = ("delta", "omega")

    def _state_derivative(self, state, src, P, setpoint, omega0):
        return [
            omega0 * state[1],
            (-self.D * state[1] - P + setpoint.P_m) / self.M,
        ]

    def _stationary_state(self, theta_star, op, setpoint, phase):
        phi = phase[0]
        return np.array([theta_star + phi, np.zeros_like(phi)])

    def _energy(self, state, src, omega0):
        U_q, U_d = src.potential()
        return omega0 * self.M * state[1] ** 2 / 2 + (U_q + U_d)

    def energy_gradient(self, state, theta, V, setpoint, omega0=OMEGA0_DEFAULT):
        dU_dtheta, dU_dV = self._source(state, theta, V, setpoint).bus_gradient()
        return np.array([-dU_dtheta, omega0 * self.M * state[1], dU_dtheta, dU_dV])

    def energy_hessian(self, state, theta, V, setpoint, omega0=OMEGA0_DEFAULT):
        H = self._source(state, theta, V, setpoint).hessian(4)
        H[..., 1, 1] = omega0 * self.M
        return H

    def damping_block(self, omega0=OMEGA0_DEFAULT):
        return np.array([
            [0.0, -1.0 / self.M],
            [1.0 / self.M, self.D / (omega0 * self.M**2)],
        ])


@dataclass(frozen=True, eq=False)
class DroopInverter(_GridFormingBase):
    """Frequency droop control: first-order angle dynamics D*ddelta/dt = omega0 (P_m - P)."""

    D: float
    X_d: float
    X_q: float

    kind = "fdc"
    state_names = ("delta",)

    def _state_derivative(self, state, src, P, setpoint, omega0):
        return [omega0 * (setpoint.P_m - P) / self.D]

    def _stationary_state(self, theta_star, op, setpoint, phase):
        return np.array([theta_star + phase[0]])

    def _energy(self, state, src, omega0):
        return sum(src.potential())

    def energy_gradient(self, state, theta, V, setpoint, omega0=OMEGA0_DEFAULT):
        dU_dtheta, dU_dV = self._source(state, theta, V, setpoint).bus_gradient()
        return np.array([-dU_dtheta, dU_dtheta, dU_dV])

    def energy_hessian(self, state, theta, V, setpoint, omega0=OMEGA0_DEFAULT):
        return self._source(state, theta, V, setpoint).hessian(3)

    def damping_block(self, omega0=OMEGA0_DEFAULT):
        return np.array([[omega0 / self.D]])


@dataclass(frozen=True, eq=False)
class ConstantPowerLoad(Device):
    """Grid-following load: consumes (P_ref, Q_ref) regardless of the bus voltage.

    Consumption is negative under the device-to-bus sign convention. The load
    has no internal state; its energy function is -P_ref*theta - Q_ref*ln(V).
    """

    P_ref: float
    Q_ref: float

    kind = "load"
    state_names = ()

    @classmethod
    def _rules(cls, p):
        for name, value in p.items():  # either sign
            yield abs(value) < math.inf, f"{name} must be finite, got {{{name}}}"

    def stationary_setpoint(self, op):
        return None

    def _phase(self, op):
        return None

    def _stationary_state(self, theta_star, op, setpoint, phase):
        scale = max(1.0, abs(self.P_ref), abs(self.Q_ref))
        if abs(op.P - self.P_ref) > 1e-8 * scale or abs(op.Q - self.Q_ref) > 1e-8 * scale:
            raise ValueError(
                f"constant-power load ({self.P_ref}, {self.Q_ref}) cannot realize "
                f"operating point (P={op.P}, Q={op.Q})"
            )
        return np.zeros(0)

    def _source(self, state, theta, V, setpoint=None):
        return _ConstantPower(self.P_ref, self.Q_ref, theta, V)

    def _state_derivative(self, state, src, P, setpoint, omega0):
        return []

    def _energy(self, state, src, omega0):
        return -self.P_ref * src.theta - self.Q_ref * math.log(src.V)

    def energy_gradient(self, state, theta, V, setpoint=None, omega0=OMEGA0_DEFAULT):
        return np.array(self._source(state, theta, V).bus_gradient())

    def energy_hessian(self, state, theta, V, setpoint=None, omega0=OMEGA0_DEFAULT):
        h_tt, h_tV, h_VV = self._source(state, theta, V).bus_block()
        return np.array([[h_tt, h_tV], [h_tV, h_VV]])

    def damping_block(self, omega0=OMEGA0_DEFAULT):
        return np.zeros((0, 0))

    def dissipation_rate(self, deriv, omega0=OMEGA0_DEFAULT):
        return 0.0


_DEVICE_FIELDS = {cls.kind: (cls, tuple(f.name for f in fields(cls)))
                  for cls in (TwoAxisGenerator, VsgInverter, DroopInverter, ConstantPowerLoad)}


def device_from_dict(doc):
    """Build a device from a config mapping with a `kind` key."""
    doc = dict(doc)
    kind = doc.pop("kind", None)
    if kind not in _DEVICE_FIELDS:
        raise ValueError(f"unknown device kind {kind!r}; expected one of {sorted(_DEVICE_FIELDS)}")
    cls, fields = _DEVICE_FIELDS[kind]
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ValueError(f"device kind {kind!r} missing parameters {missing}")
    extra = [f for f in doc if f not in fields]
    if extra:
        raise ValueError(f"device kind {kind!r} got unexpected parameters {extra}")
    return cls(**{f: _real(doc[f], f) for f in fields})


def _real(value, key):
    """`value` as a float; a boolean or a string is not a number, though float() takes both."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"key '{key}' must be a number, not {type(value).__name__}")
    return float(value)
