"""Command-line interface: powerflow, certify, eigen, simulate, sweep.

Exit codes are uniform across subcommands: 0 success/stable, 1 unstable,
2 error (bad config or option, solver failure, capability violation), 3 marginal.
Outputs are deterministic for identical configs; the timestamp header/field
is suppressed with --no-timestamp. CSV files use 12 significant digits.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .certificate import CertificateError, certify
from .config import ConfigError, apply_load_mode, load_config
from .linearization import DegenerateEquilibriumError, eigenvalue_verdict
from .network import PowerFlowError, normalize_angle, solve_power_flow
from .simulation import AlgebraicSolveError, simulate
from .sweep import sweep_verdicts

__all__ = ["main"]

_VERDICT_EXIT = {"stable": 0, "unstable": 1, "marginal": 3}


def _fmt(x):
    return f"{x:.12g}"


def _generated():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _output(args, header):
    """Output buffer holding the timestamp line (unless --no-timestamp) and `header`."""
    buf = io.StringIO()
    if not args.no_timestamp:
        buf.write(f"# generated {_generated()}\n")
    buf.write(header)
    return buf


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror}") from exc
    sys.stdout.write(text)


def _setup(config, load_mode=None):
    """The config at `config` with the load mode applied, and its solved power flow."""
    cfg = apply_load_mode(load_config(config), load_mode)
    return cfg, solve_power_flow(cfg.system.net, cfg.bus_specs)


def cmd_powerflow(args):
    cfg, flow = _setup(args.config)
    buf = _output(args, f"{'bus':>4} {'theta[rad]':>12} {'V[pu]':>10} {'P[pu]':>10} {'Q[pu]':>10}\n")
    theta = normalize_angle(flow.theta)
    for i, bus_id in enumerate(cfg.bus_ids):
        buf.write(f"{bus_id:>4} {theta[i]:>12.4f} {flow.V[i]:>10.4f} "
                  f"{flow.P[i]:>10.4f} {flow.Q[i]:>10.4f}\n")
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_certify(args):
    cfg, flow = _setup(args.config, args.load_mode)
    report = certify(flow, cfg.system, bus_ids=cfg.bus_ids)
    doc = report.to_json_dict()
    if not args.no_timestamp:
        doc["generated"] = _generated()
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    print(report.to_text(), file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def cmd_eigen(args):
    cfg, flow = _setup(args.config, args.load_mode)
    report = eigenvalue_verdict(cfg.system, cfg.system.equilibrium(flow))
    buf = _output(args, "re,im\n")
    for ev in report.eigenvalues:
        buf.write(f"{_fmt(ev.real)},{_fmt(ev.imag)}\n")
    _emit(buf.getvalue(), args.out)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    if report.voltage_margin <= 0:  # outside the set where the certificate must agree
        print("note: equilibrium is not voltage-regular (smallest algebraic-block eigenvalue "
              f"{report.voltage_margin:.6g})", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def _perturbed_state(items, cfg, eq):
    """Equilibrium device states with each --perturb BUS=RAD added to that bus's rotor angle."""
    x0 = eq.x()
    index = {bus_id: i for i, bus_id in enumerate(cfg.bus_ids)}
    for item in items or []:
        try:
            bus_text, rad_text = item.split("=", 1)
            bus, rad = int(bus_text), float(rad_text)
        except ValueError as exc:
            raise ConfigError(f"--perturb expects BUS=RAD, got {item!r}") from exc
        if not math.isfinite(rad):
            raise ConfigError(f"--perturb RAD must be finite, got {item!r}")
        if bus not in index:
            raise ConfigError(f"--perturb references unknown bus id {bus}")
        sl = cfg.system.state_slices()[index[bus]]
        if sl.stop == sl.start:
            raise ConfigError(f"bus id {bus} hosts a load; nothing to perturb")
        x0[sl.start] += rad
    return x0


def cmd_simulate(args):
    for flag, value in (("--dt", args.dt), ("--t-end", args.t_end)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{flag} must be positive and finite, got {value}")
    cfg, flow = _setup(args.config, args.load_mode)
    eq = cfg.system.equilibrium(flow)
    x0 = _perturbed_state(args.perturb, cfg, eq)
    traj = simulate(cfg.system, eq, x0=x0, dt=args.dt, t_end=args.t_end)

    buf = _output(args, "t,bus,theta,V,P,Q,delta,omega,E_q,E_d,W\n")
    slices = cfg.system.state_slices()
    # rows as Python floats, which format like numpy's and skip its scalar arithmetic; each
    # device's (P, Q) is the one the row's voltage solve formed
    rows = zip(traj.t.tolist(), traj.x.tolist(), traj.v.tolist(), traj.powers.tolist(),
               traj.W.tolist())
    for t, x, v, powers, W in rows:
        t_text, W_text = _fmt(t), _fmt(W)
        for i, (P, Q) in enumerate(powers):
            # each kind's state_names is a prefix of (delta, omega, E_q, E_d)
            states = [_fmt(value) for value in x[slices[i]]]
            buf.write(",".join([t_text, str(cfg.bus_ids[i]), _fmt(v[2 * i]), _fmt(v[2 * i + 1]),
                                _fmt(P), _fmt(Q), *states, *[""] * (4 - len(states)),
                                W_text]) + "\n")
    _emit(buf.getvalue(), args.out)
    if traj.truncated:
        print(traj.diagnostic, file=sys.stderr)
        return 2
    return 0


def _parse_range(flag, text):
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ConfigError(f"{flag} must be 'a:b:n', got {text!r}") from exc
    if not (0 < a < math.inf and 0 < b < math.inf) or n < 1:
        raise ConfigError(f"{flag} endpoints must be positive and finite and n >= 1, got {text!r}")
    return np.linspace(a, b, n)


def cmd_sweep(args):
    cfg = load_config(args.config)
    if args.sweep_bus not in cfg.bus_ids:
        raise ConfigError(f"--sweep-bus references unknown bus id {args.sweep_bus}")
    bus_index = cfg.bus_ids.index(args.sweep_bus)
    xd_values = _parse_range("--xd-range", args.xd_range)
    xq_values = _parse_range("--xq-range", args.xq_range)
    modes = [args.load_mode] if args.load_mode else ["forming", "following"]
    systems = [apply_load_mode(cfg, mode).system for mode in modes]
    flow = solve_power_flow(cfg.system.net, cfg.bus_specs)  # a load mode swaps a device, not a spec
    buf = _output(args, "X_d,X_q,load_mode,verdict_certificate,verdict_eigen,min_eig\n")
    text = {x: _fmt(x) for x in (*xd_values, *xq_values)}  # each grid value formatted once
    sweeps = sweep_verdicts(systems, flow, bus_index, xd_values, xq_values)
    for mode, points in zip(modes, sweeps):
        for x_d, x_q, v_cert, v_eig, min_eig in points:
            min_eig = _fmt(min_eig) if min_eig is not None else ""
            buf.write(f"{text[x_d]},{text[x_q]},{mode},{v_cert},{v_eig},{min_eig}\n")
    _emit(buf.getvalue(), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridcert",
        description="Stationary power flow and small-signal stability certificates "
                    "for lossless inverter-integrated power systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, load_mode=True):
        p.add_argument("--config", required=True, help="path to a JSON system config")
        p.add_argument("--out", help="also write the output to this file")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the timestamp header/field")
        if load_mode:
            p.add_argument("--load-mode", choices=["forming", "following"],
                           help="device mode at the consumption bus")

    p = sub.add_parser("powerflow", help="solve the stationary power flow")
    common(p, load_mode=False)
    p.set_defaults(func=cmd_powerflow)

    p = sub.add_parser("certify", help="closed-form stability certificate (JSON report)")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("eigen", help="eigenvalue stability verdict (spectrum CSV)")
    common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("simulate", help="nonlinear time-domain simulation (trajectory CSV)")
    common(p)
    p.add_argument("--dt", type=float, default=1e-3, help="integration step [s]")
    p.add_argument("--t-end", type=float, default=1.0, help="simulation horizon [s]")
    p.add_argument("--perturb", action="append", metavar="BUS=RAD",
                   help="shift a bus rotor angle by RAD radians (repeatable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="stability verdicts over a reactance grid (CSV)")
    common(p)
    p.add_argument("--sweep-bus", type=int, required=True,
                   help="bus id whose (X_d, X_q) is swept")
    p.add_argument("--xd-range", required=True, metavar="a:b:n")
    p.add_argument("--xq-range", required=True, metavar="a:b:n")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PowerFlowError as exc:
        print(f"error: power flow failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CertificateError, DegenerateEquilibriumError, AlgebraicSolveError) as exc:
        # ValueError covers ConfigError, CapabilityError and numpy's LinAlgError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
