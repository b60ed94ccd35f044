"""Work done in fresh interpreters started by run.py.

    python3 perfbench/child.py import
    python3 perfbench/child.py solve --config C --out DIR --timing FILE [--stats FILE]
    python3 perfbench/child.py verify --seed N --seconds S --work DIR --out FILE [--trace]
    python3 perfbench/child.py kernels --out FILE

Each mode writes JSON (to stdout for ``import``, to --out, --timing or
--stats otherwise).  With tracing off no wrapper is installed, each mode
checks that nothing in the package is patched, and measured times are
host-speed adjusted (see hostclock.py).
"""

import argparse
import contextlib
import json
import os
import random
import statistics
import sys
import time

import hostclock
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RECORDED = os.path.join(HERE, "recorded.json")

PER_STRATUM = 30  # profiles per (dim, M) in one pass of verify-batch
KERNEL_SIZES = (512, 2048, 8192)


def _check_source(module):
    path = os.path.abspath(module.__file__)
    if not path.startswith(SRC + os.sep):
        raise SystemExit("deltafield imported from %s, not from %s" % (path, SRC))


def _check_unpatched():
    found = spans.patched_objects()
    if found:
        raise SystemExit("untraced run left wrappers in place: %s" % found[:5])


def _thread_count():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def cmd_import(_args):
    probe = hostclock.HostProbe()
    # under -X importtime the per-module figures are wanted without probe time
    timed = contextlib.nullcontext() if "importtime" in sys._xoptions else probe
    with timed:
        start = probe.mark()
        import deltafield.cli  # noqa: F401

        end = probe.mark()
    import numpy
    import scipy

    _check_source(deltafield.cli)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "import_s": end[0] - start[0],
        "threads": _thread_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }
    if probe.count:
        out["adjusted"] = hostclock.adjusted(start, end)
    print(json.dumps(out))
    return 0


def cmd_solve(args):
    """One `deltafield solve`; its timing goes to --timing.  Untraced solves
    are host-probed; traced ones are not, so probes do not land in spans."""
    import deltafield.cli as cli

    _check_source(cli)
    argv = ["solve", "--config", args.config, "--out", args.out]
    if args.stats is None:
        with hostclock.HostProbe() as probe:
            start = probe.mark()
            rc = cli.main(argv)
            end = probe.mark()
        _check_unpatched()
        timing = dict(hostclock.adjusted(start, end), raw_wall_s=end[0] - start[0])
    else:
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        with tracer:
            rc = cli.main(argv)
        timing = {"raw_wall_s": time.perf_counter() - t0, "probe_s": 0.0}
        _check_unpatched()
        with open(args.stats, "w") as fh:
            json.dump(tracer.layer_stats(), fh)
    with open(args.timing, "w") as fh:
        json.dump(timing, fh)
    return rc


# ---------------------------------------------------------------------------
# verify-batch: catalogue profiles, saved once, then loaded and verified.
# ---------------------------------------------------------------------------


def catalogue_problem(entry):
    """(state, spec, strength) of one catalogue entry of recorded.json."""
    import numpy as np
    from deltafield.field import FieldState, RadialGrid
    from deltafield.greens import InteractionStrength
    from deltafield.nonlinearity import power_family

    grid = RadialGrid(entry["dim"], entry["r_max"], entry["M"], entry["grading"])
    phi = entry["amp"] * np.exp(-((grid.nodes / entry["width"]) ** 2))
    state = FieldState(grid, entry["lam"], entry["q"], phi)
    return state, power_family(1.0, entry["p"]), InteractionStrength(entry["alpha"], entry["dim"])


def report_values(report):
    """The verification figures the benchmark checks, as plain floats/None."""
    b = complex(report.boundary_residual)
    return {
        "energy": report.energy.total,
        "gradient_norm": report.gradient_norm,
        "pohozaev": report.pohozaev_residual,
        "pohozaev_alt": report.pohozaev_residual_alt,
        "boundary": b.real,
        "blowup": report.blowup_exponent,
    }


def batch_entries(seed, catalogue):
    """Catalogue indices of one pass: PER_STRATUM draws from each (dim, M),
    shuffled.  Every seed gives the same mix of sizes, so the latency
    percentiles do not move with the seed's share of large grids."""
    rng = random.Random(seed)
    strata = {}
    for idx, entry in enumerate(catalogue):
        strata.setdefault((entry["dim"], entry["M"]), []).append(idx)
    batch = [rng.choice(members) for _key, members in sorted(strata.items()) for _ in range(PER_STRATUM)]
    rng.shuffle(batch)
    return batch


def cmd_verify(args):
    import deltafield.cli  # noqa: F401  (same import set as a CLI call)
    from deltafield import field, functional

    _check_source(field)
    with open(RECORDED) as fh:
        catalogue = json.load(fh)["catalogue"]
    batch = batch_entries(args.seed, catalogue)
    problems = {}
    for idx in sorted(set(batch)):
        state, spec, strength = catalogue_problem(catalogue[idx])
        path = os.path.join(args.work, "profile_%03d.csv" % idx)
        field.save_profile(state, path)
        problems[idx] = (path, spec, strength)

    def one(idx, probe):
        path, spec, strength = problems[idx]
        start = probe.mark()
        try:
            values = report_values(functional.verify(field.load_profile(path), spec, strength))
        except Exception as exc:  # counted as a failed operation by run.py
            values = {"error": "%s: %s" % (type(exc).__name__, exc)}
        end = probe.mark()
        return [idx, end[0] - start[0] - (end[2] - start[2]), values]

    ops = []

    def one_pass(probe):
        """Raw wall time of a pass; its ops, net of probe time, join `ops`."""
        start = probe.mark()
        done = [one(idx, probe) for idx in batch]
        end = probe.mark()
        if probe.count:
            adjusted = hostclock.adjusted(start, end)
            for op in done:
                op[1] *= adjusted["factor"]
            passes.append(adjusted)
        ops.extend(done)
        return end[0] - start[0]

    out = {}
    passes = []
    if not args.trace:
        # whole passes only, so every run measures the same mix of sizes
        with hostclock.HostProbe() as probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < args.seconds:
                one_pass(probe)
        out["passes"] = passes
        _check_unpatched()
    else:
        # untraced passes before and after the traced one, so warm-up and
        # drift do not land on one side of the overhead; none is probed
        unprobed = hostclock.HostProbe()
        before = one_pass(unprobed)
        tracer = spans.Tracer()
        with tracer:
            traced = one_pass(unprobed)
        _check_unpatched()
        after = one_pass(unprobed)
        out["trace_overhead_s"] = traced - 0.5 * (before + after)
        out["stats"] = tracer.layer_stats()
    out["ops"] = ops
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


# ---------------------------------------------------------------------------
# Per-call kernel table on the 3D acceptance problem.
# ---------------------------------------------------------------------------


def _per_call_us(fn, budget_s=0.08, repeats=3):
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    n = max(3, int(budget_s / max(first, 1e-6)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def cmd_kernels(args):
    from deltafield import functional as fn
    from deltafield.field import FieldState, make_grid
    from deltafield.greens import InteractionStrength
    from deltafield.nonlinearity import power_family
    from deltafield.solver import scalar_ground_state

    _check_source(fn)
    spec, strength = power_family(1.0, 2.5), InteractionStrength(1.0, 3)
    table = {}
    for M in KERNEL_SIZES:
        grid = make_grid(3, 20.0, M, 4.0)
        t0 = time.perf_counter()
        seed, _m0 = scalar_ground_state(spec, 3, grid, lam=1.0)
        sgs_us = 1e6 * (time.perf_counter() - t0)
        state = FieldState(grid, 1.0, 1.0, seed.phi)

        gp, gq = fn.gradient_vector(state, spec, strength)

        def newton_step():
            diag, off, b, d = fn.hessian_blocks(state, spec, strength)
            return fn.arrow_solve(diag, off, b, d, -gp, -gq)

        table[M] = {
            "energy": _per_call_us(lambda: fn.energy(state, spec, strength)),
            "gradient_vector": _per_call_us(lambda: fn.gradient_vector(state, spec, strength)),
            "gradient_norm": _per_call_us(lambda: fn.gradient_norm(state, spec, strength)),
            "newton_step": _per_call_us(newton_step),
            "scalar_ground_state": sgs_us,
        }
    _check_unpatched()
    with open(args.out, "w") as fh:
        json.dump(table, fh)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("import").set_defaults(func=cmd_import)
    p = sub.add_parser("solve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", required=True)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=cmd_solve)
    p = sub.add_parser("verify")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("kernels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernels)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
