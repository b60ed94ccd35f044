"""Command-line entry point.

Three subcommands:
  solve      -- run the mountain-pass solver from a JSON config, write the
                profile (CSV + sidecar), verification report, Newton residual
                history and a copy of the config; exit 0 converged / 2 not /
                1 config or no scalar ground-state bracket.
  verify     -- recompute the verification report for a saved profile.
  identities -- closed-form vs quadrature table for the Green's-function
                scalars over a lambda range.

Config schema (JSON, unknown keys are errors at every level):

  {
    "dim": 2 | 3,
    "alpha": <real>,
    "nonlinearity": {"family": "power", "omega": ..., "p": ...}   (see
        nonlinearity.spec_from_dict for the other families and keys),
    "solver": { any fields of solver.SolverConfig }
  }
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields as dc_fields

import numpy as np
from scipy import special

from .field import load_profile, save_profile
from .functional import verify
from .greens import InteractionStrength, green_l2_norm_sq, GreenKernel, omega_alpha, xi
from .nonlinearity import check_assumptions, spec_from_dict, spec_to_dict
from .solver import ShootingError, SolverConfig, mountain_pass

__all__ = ["main", "parse_config"]

_TOP_KEYS = {"dim", "alpha", "nonlinearity", "solver"}


class ConfigError(ValueError):
    pass


def parse_config(data):
    """Validate a config dict; returns (spec, strength, solver_config)."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))
    for key in ("dim", "alpha", "nonlinearity"):
        if key not in data:
            raise ConfigError("config is missing %r" % key)
    dim = data["dim"]
    if dim not in (2, 3):
        raise ConfigError("dim must be 2 or 3, got %r" % (dim,))
    try:
        spec = spec_from_dict(data["nonlinearity"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("nonlinearity: %s" % exc) from exc
    if dim == 3 and spec.p_growth >= 3:
        raise ConfigError(
            "growth exponent p = %g is not allowed in dimension 3 (needs p < 3)"
            % spec.p_growth
        )
    strength = InteractionStrength(float(data["alpha"]), dim)
    solver_keys = {f.name for f in dc_fields(SolverConfig)}
    raw = data.get("solver", {})
    if not isinstance(raw, dict):
        raise ConfigError("solver must be an object")
    unknown = set(raw) - solver_keys
    if unknown:
        raise ConfigError("unknown solver keys: %s" % sorted(unknown))
    try:
        config = SolverConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("solver: %s" % exc) from exc
    report = check_assumptions(spec, strength)
    if not (report.theorem_repulsive_3d or report.theorem_attractive_or_2d):
        print(
            "warning: neither existence theorem's hypotheses hold for this "
            "(dim, alpha, nonlinearity); the solver runs anyway",
            file=sys.stderr,
        )
    return spec, strength, config


def _load_config_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from exc
    return data


def _cmd_solve(args):
    try:
        data = _load_config_file(args.config)
        spec, strength, config = parse_config(data)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    try:
        result = mountain_pass(spec, strength, config)
    except ShootingError as exc:
        print("shooting error: %s" % exc, file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    save_profile(result.state, os.path.join(args.out, "profile.csv"))
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(
            {
                "converged": result.converged,
                "iterations": result.iterations,
                "sigma_estimate": result.sigma_estimate,
                "m0_estimate": result.m0_estimate,
                "p_regime": result.p_regime,
                "morse_index": result.morse_index,
                "newton_start": result.newton_start,
                "report": result.report.to_json_dict(),
            },
            fh,
            indent=2,
        )
    with open(os.path.join(args.out, "trace.csv"), "w") as fh:
        fh.write("iteration,gradient_norm\n")
        for it, gn in enumerate(result.trace):
            fh.write("%d,%.17g\n" % (it, gn))
    with open(os.path.join(args.out, "run_config.json"), "w") as fh:
        json.dump(
            {
                "dim": strength.dim,
                "alpha": strength.alpha,
                "nonlinearity": spec_to_dict(spec),
                "solver": data.get("solver", {}),
            },
            fh,
            indent=2,
        )
    r = result.report
    print(
        "%s  sigma=%.8g  q=%.8g  index=%d  grad=%.3g  pohozaev=%.3g  boundary=%.3g"
        % (
            "converged" if result.converged else "NOT converged",
            result.sigma_estimate,
            abs(result.state.charge),
            result.morse_index,
            r.gradient_norm,
            abs(r.pohozaev_residual),
            abs(r.boundary_residual),
        )
    )
    print("artifacts written to %s" % args.out)
    return 0 if result.converged else 2


def _cmd_verify(args):
    config_path = args.config
    if config_path is None:
        config_path = os.path.join(os.path.dirname(args.profile) or ".", "run_config.json")
    try:
        data = _load_config_file(config_path)
        spec, strength, _config = parse_config(data)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    try:
        state = load_profile(args.profile)
    except (OSError, ValueError) as exc:
        print("profile error: %s" % exc, file=sys.stderr)
        return 1
    if state.grid.dim != strength.dim:
        print(
            "profile error: profile dimension %d does not match config dimension %d"
            % (state.grid.dim, strength.dim),
            file=sys.stderr,
        )
        return 1
    report = verify(state, spec, strength)
    payload = report.to_json_dict()
    out_path = os.path.splitext(args.profile)[0] + ".report.json"
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(json.dumps(payload, indent=2))
    print("report written to %s" % out_path, file=sys.stderr)
    return 0


def _quad_lam_l2(dim, lam):
    """lambda * ||G_lambda||_2^2 by adaptive quadrature (oracle column)."""
    from scipy.integrate import quad  # only this command needs scipy.integrate

    s = math.sqrt(lam)
    if dim == 3:
        val, _ = quad(
            lambda r: math.exp(-2.0 * s * r) / (4.0 * math.pi), 0.0, 40.0 / s
        )
    else:
        val, _ = quad(
            lambda r: r * special.k0(s * r) ** 2 / (2.0 * math.pi), 0.0, 40.0 / s,
            limit=200,
        )
    return lam * val


def _cmd_identities(args):
    if args.dim not in (2, 3):
        print("error: dim must be 2 or 3", file=sys.stderr)
        return 1
    strength = InteractionStrength(args.alpha, args.dim)
    om_a = omega_alpha(strength)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    print(
        "%14s %14s %14s %16s %16s %10s  %s"
        % ("lambda", "xi", "omega_alpha", "lam*|G|^2", "quadrature", "delta", "note")
    )
    worst = 0.0
    for lam in lams:
        if lam <= 0:
            print("%14.6g  (skipped: lambda must be positive)" % lam)
            continue
        x = xi(args.dim, lam)
        closed = lam * green_l2_norm_sq(GreenKernel(args.dim, lam))
        quad = _quad_lam_l2(args.dim, lam)
        delta = abs(closed - quad)
        worst = max(worst, delta)
        note = ""
        if abs(args.alpha + x) <= 1e-10:
            note = "threshold: alpha + xi = 0"
        elif args.alpha + x < 0:
            note = "below threshold (lambda < omega_alpha)"
        print(
            "%14.8g %14.8g %14.8g %16.10g %16.10g %10.2e  %s"
            % (lam, x, om_a, closed, quad, delta, note)
        )
    print("max |closed - quadrature| = %.3e (tolerance 1e-10)" % worst)
    return 0 if worst <= 1e-10 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="deltafield",
        description="Singular solutions of scalar field equations with a point interaction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the mountain-pass solver")
    p_solve.add_argument("--config", required=True, help="JSON config path")
    p_solve.add_argument("--out", default=".", help="output directory")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="recompute residuals for a saved profile")
    p_verify.add_argument("--profile", required=True, help="profile CSV path")
    p_verify.add_argument(
        "--config",
        default=None,
        help="JSON config (default: run_config.json next to the profile)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_id = sub.add_parser("identities", help="closed-form vs quadrature table")
    p_id.add_argument("--dim", type=int, required=True)
    p_id.add_argument("--alpha", type=float, default=0.0)
    p_id.add_argument("--lambda-min", type=float, required=True)
    p_id.add_argument("--lambda-max", type=float, required=True)
    p_id.add_argument("--steps", type=int, default=10)
    p_id.set_defaults(func=_cmd_identities)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
