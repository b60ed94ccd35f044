"""deltafield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The library is imported from ./src; every
process started here has its BLAS/OpenMP thread count pinned to 1, so
reductions run in one order and per-layer call counts repeat exactly.

Workloads (see BENCHMARK.json for why each exists):
  solve-3d-path    `deltafield solve`, 3D p=2.5 alpha=1, M=2048 (path deformation)
  solve-2d-newton  `deltafield solve`, 2D cubic alpha=0, M=2048 (multistart Newton)
  verify-batch     one process: load_profile + verify, in whole passes over
                   profiles drawn by --seed from the recorded catalogue

An operation is one solve process or one load+verify.  Every operation is
checked: solves against the recorded sigma and q and the gradient tolerance,
verifications against the figures recorded for their catalogue entry.

--trace 0 prints the end-to-end metrics of an untraced run.  Every time in
them is host-speed adjusted: probes interleaved with the measured work take
out the shared host's drifting speed (see hostclock.py); the factor applied
is printed to stderr.  --trace 1
prints the per-layer metrics: untraced and traced operation sets (their
wall-time difference is trace.overhead_s), per-module import times
from `python -X importtime`, and a per-call kernel table at M = 512, 2048,
8192.  The last line of stdout is the JSON result; progress goes to stderr.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
RECORDED = os.path.join(HERE, "recorded.json")

sys.path.insert(0, HERE)
import spans  # noqa: E402
from child import KERNEL_SIZES  # noqa: E402

RUN_BUDGET_S = 165.0  # every run ends well inside the 180 s limit
SETUP_SAMPLES = 3
MIN_SOLVES = 3  # a median of three, even when three solves outlast --seconds
SOLVE_RTOL = 1e-8  # sigma and q against recorded.json
VERIFY_RTOL = 1e-8  # verification figures against recorded.json
POHOZAEV_AGREE = 1e-10  # the two 3D Pohozaev forms, relative to 1 + |value|
MODULES = ("cli", "solver", "functional", "field", "nonlinearity", "greens")
KERNELS = ("energy", "gradient_vector", "gradient_norm", "newton_step", "scalar_ground_state")

_ACCEPTANCE_SOLVER = {
    "M": 2048,
    "max_iters": 200,
    "grad_tol": 1e-7,
    "grading_exponent": 4.0,
    "seed_profile": "scalar_ground_state",
}
SOLVE_CONFIGS = {
    "solve-3d-path": {
        "dim": 3,
        "alpha": 1.0,
        "nonlinearity": {"family": "power", "omega": 1.0, "p": 2.5},
        "solver": _ACCEPTANCE_SOLVER,
    },
    "solve-2d-newton": {
        "dim": 2,
        "alpha": 0.0,
        "nonlinearity": {"family": "power", "omega": 1.0, "p": 4.0},
        "solver": _ACCEPTANCE_SOLVER,
    },
}
WORKLOADS = tuple(SOLVE_CONFIGS) + ("verify-batch",)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_s", "s", "lower"),
    ("latency_s_p95", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in spans.layer_names():
        out.append((layer + ".calls", "count", "lower"))
        out.append((layer + ".busy_s", "s", "lower"))
        if not layer.startswith("cli."):
            out.append((layer + ".self_s", "s", "lower"))
            out.append((layer + ".us_per_call", "us", "lower"))
    out += [
        ("solver.newton_refine.ok_ratio", "ratio", "higher"),
        ("solver.energy_per_sweep", "count", "lower"),
        ("field.green.miss_ratio", "ratio", "lower"),
    ]
    out += [("setup.import.%s_s" % m, "s", "lower") for m in MODULES]
    out.append(("trace.overhead_s", "s", "lower"))
    for kernel in KERNELS:
        for M in KERNEL_SIZES:
            out.append(("kernel.%s.M%d.us_per_call" % (kernel, M), "us", "lower"))
    return out


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env, timeout, log_path, python_flags=()):
    """Run child.py; returns (exit code, wall s, rusage).  Killed at timeout."""
    cmd = [sys.executable, *python_flags, CHILD, *args]
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _read_log(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Set-up: importing the CLI in a fresh interpreter.
# ---------------------------------------------------------------------------


def _parse_importtime(text):
    """{module: cumulative seconds} for deltafield modules."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name.startswith("deltafield."):
            try:
                out[name[len("deltafield."):]] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return out


def measure_setup(ctx, trace):
    """Fresh-interpreter imports of deltafield.cli: (machine record, adjusted
    import times, {module: median cumulative import s under -X importtime})."""
    log = os.path.join(ctx.work, "import.log")
    flags = ("-X", "importtime") if trace else ()
    times, modules = [], {m: [] for m in MODULES}
    for _ in range(SETUP_SAMPLES):
        rc, _wall, _ru = run_child(["import"], ctx.env, 60, log, python_flags=flags)
        text = _read_log(log)
        if rc != 0:
            raise RuntimeError("import of deltafield.cli failed:\n" + text)
        probe = json.loads(text.splitlines()[-1])
        if probe["threads"] != 1:
            raise RuntimeError("BLAS thread pinning failed: %s threads" % probe["threads"])
        times.append(probe.pop("adjusted", {}).get("wall_s"))
        cumulative = _parse_importtime(text)
        for m in MODULES:
            modules[m].append(cumulative.get(m, 0.0))
    del probe["import_s"]
    return probe, times, {m: statistics.median(v) for m, v in modules.items()}


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Op:
    """One checked operation; wall and cpu are host-speed adjusted seconds."""

    def __init__(self, wall, ok, why="", cpu=None, rss_mb=None, factor=None):
        self.wall, self.ok, self.why, self.cpu, self.rss_mb = wall, ok, why, cpu, rss_mb
        self.factor = factor


def _rel_close(got, want, rtol):
    return math.isfinite(got) and abs(got - want) <= rtol * max(1.0, abs(want))


def check_solve(rc, out_dir, ref, grad_tol):
    """(ok, why, iterations) for one `deltafield solve`."""
    if rc not in (0, 2):
        return False, "exit code %d" % rc, None
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return False, "report.json: %s" % exc, None
    sigma = report["sigma_estimate"]
    q = abs(complex(report["report"]["charge_re"], report["report"]["charge_im"]))
    gn = report["report"]["gradient_norm"]
    if not _rel_close(sigma, ref["sigma"], SOLVE_RTOL):
        return False, "sigma %.12g != %.12g" % (sigma, ref["sigma"]), None
    if not _rel_close(q, ref["q"], SOLVE_RTOL):
        return False, "q %.12g != %.12g" % (q, ref["q"]), None
    if not gn <= grad_tol:
        return False, "gradient norm %.3g > %.3g" % (gn, grad_tol), None
    return True, "", report["iterations"]


def run_solves(ctx, name, seconds, trace):
    config = SOLVE_CONFIGS[name]
    ref = ctx.recorded["solves"][name]
    config_path = os.path.join(ctx.work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    ops = []

    def solve(stats_path=None):
        """(Op, raw process wall s, child timing, iterations) of one solve."""
        out_dir = os.path.join(ctx.work, "solve_%d" % len(ops))
        timing_path = out_dir + ".timing.json"
        args = ["solve", "--config", config_path, "--out", out_dir, "--timing", timing_path]
        if stats_path:
            args += ["--stats", stats_path]
        log = out_dir + ".log"
        rc, wall, usage = run_child(args, ctx.env, ctx.left(), log)
        ok, why, iterations = check_solve(rc, out_dir, ref, config["solver"]["grad_tol"])
        timing = {}
        if ok:
            with open(timing_path) as fh:
                timing = json.load(fh)
        else:
            why += "\n" + _read_log(log)[-2000:]
        op = Op(timing.get("wall_s"), ok, why, timing.get("cpu_s"), usage.ru_maxrss / 1024.0, timing.get("factor"))
        ops.append(op)
        shutil.rmtree(out_dir, ignore_errors=True)
        return op, wall, timing, iterations

    result = {"ops": ops}
    if not trace:
        t0 = time.perf_counter()
        while True:
            _op, wall, _timing, _it = solve()
            elapsed = time.perf_counter() - t0
            if len(ops) >= MIN_SOLVES and elapsed + wall > seconds or ctx.left() < 1.5 * wall:
                break
        return result
    _op, _wall, plain, _it = solve()
    stats_path = os.path.join(ctx.work, "stats.json")
    _op, _wall, traced, iterations = solve(stats_path)
    result["stats"] = {}
    if os.path.exists(stats_path):
        with open(stats_path) as fh:
            result["stats"] = json.load(fh)
    if plain and traced:
        untraced_s = plain["raw_wall_s"] - plain["probe_s"]
        result["trace_overhead_s"] = traced["raw_wall_s"] - untraced_s
    result["iterations"] = iterations
    return result


def check_verify(entry, values):
    """(ok, why) for one load_profile + verify against its catalogue entry."""
    if "error" in values:
        return False, values["error"]
    for key, want in entry["expected"].items():
        got = values.get(key)
        if want is None or got is None:
            if want is not got:
                return False, "%s: %r, recorded %r" % (key, got, want)
            continue
        if not _rel_close(got, want, VERIFY_RTOL):
            return False, "%s: %.17g, recorded %.17g" % (key, got, want)
    if entry["dim"] == 3:
        a, b = values["pohozaev"], values["pohozaev_alt"]
        if not abs(a - b) <= POHOZAEV_AGREE * (1.0 + abs(a)):
            return False, "Pohozaev forms differ: %.17g vs %.17g" % (a, b)
    return True, ""


def run_verify_batch(ctx, seed, seconds, trace):
    out_path = os.path.join(ctx.work, "verify.json")
    args = ["verify", "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--work", ctx.work, "--out", out_path] + (["--trace"] if trace else [])
    log = os.path.join(ctx.work, "verify.log")
    rc, _wall, usage = run_child(args, ctx.env, ctx.left(), log)
    if rc != 0:
        raise RuntimeError("verify-batch worker failed (exit %d):\n%s" % (rc, _read_log(log)[-4000:]))
    with open(out_path) as fh:
        out = json.load(fh)
    catalogue = ctx.recorded["catalogue"]
    ops = []
    for idx, wall, values in out["ops"]:
        ok, why = check_verify(catalogue[idx], values)
        ops.append(Op(wall, ok, "entry %d: %s" % (idx, why)))
    out["ops"] = ops
    out["factors"] = [p["factor"] for p in out.get("passes", [])]
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _p95(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def end_to_end_metrics(setup_times, result):
    """Metrics of an untraced run; every time is host-speed adjusted."""
    ops = [o for o in result["ops"] if o.ok]
    if not ops:
        return {}
    walls = [o.wall for o in ops]
    if "passes" in result:  # verify-batch: the worker's measured passes
        passes = result["passes"]
        elapsed = sum(p["wall_s"] for p in passes)
        cpu = sum(p["cpu_s"] for p in passes) / len(result["ops"])
        throughput = len(result["ops"]) / elapsed
        rss = result["peak_rss_mb"]
    else:
        cpu = statistics.median(o.cpu for o in ops)
        throughput = len(ops) / sum(walls)
        rss = max(o.rss_mb for o in ops)
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_s": statistics.median(walls),
        "latency_s_p95": _p95(walls),
        "throughput_per_s": throughput,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def layer_metrics(result, import_s, kernels):
    stats = result["stats"]
    values = {}
    for layer in spans.layer_names():
        s = stats.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values[layer + ".calls"] = s["calls"]
        values[layer + ".busy_s"] = s["busy_s"]
        values[layer + ".self_s"] = s["self_s"]
        values[layer + ".us_per_call"] = 1e6 * s["busy_s"] / s["calls"] if s["calls"] else 0.0
    newton = stats.get("solver.newton_refine")
    values["solver.newton_refine.ok_ratio"] = newton["ok"] / newton["calls"] if newton else 0.0
    energy_calls = stats.get("functional.energy", {}).get("calls", 0)
    iterations = result.get("iterations")
    values["solver.energy_per_sweep"] = energy_calls / iterations if iterations else 0.0
    green = stats.get("field.green")
    values["field.green.miss_ratio"] = green["kernel_children"] / green["calls"] if green else 0.0
    for m in MODULES:
        values["setup.import.%s_s" % m] = import_s[m]
    values["trace.overhead_s"] = result.get("trace_overhead_s", 0.0)
    for kernel in KERNELS:
        for M in KERNEL_SIZES:
            values["kernel.%s.M%d.us_per_call" % (kernel, M)] = kernels[str(M)][kernel]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def machine_info():
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                info["L%s" % level] = size
    except OSError:
        pass
    return info


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


class Context:
    def __init__(self, root, work):
        self.work = work
        self.env = child_env(root)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        with open(RECORDED) as fh:
            self.recorded = json.load(fh)

    def left(self):
        """Seconds until the run must wrap up."""
        return self.deadline - time.perf_counter()


def benchmark(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "deltafield", "cli.py")):
        print("error: run from the repository root (no src/deltafield/cli.py here)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        ctx = Context(root, work)
        probe, setup_times, import_s = measure_setup(ctx, args.trace)
        machine = dict(machine_info(), **probe)
        print("machine: %s" % json.dumps(machine), file=sys.stderr)
        if args.workload == "verify-batch":
            result = run_verify_batch(ctx, args.seed, args.seconds, args.trace)
        else:
            result = run_solves(ctx, args.workload, args.seconds, args.trace)
        if args.trace:
            log = os.path.join(work, "kernels.log")
            kernels_path = os.path.join(work, "kernels.json")
            rc, _wall, _ru = run_child(["kernels", "--out", kernels_path], ctx.env, ctx.left(), log)
            if rc != 0:
                raise RuntimeError("kernel table failed:\n" + _read_log(log)[-4000:])
            with open(kernels_path) as fh:
                kernels = json.load(fh)
            metrics = layer_metrics(result, import_s, kernels)
            _print_baseline(metrics)
        else:
            metrics = end_to_end_metrics(setup_times, result)
            factors = result.get("factors") or [o.factor for o in result["ops"] if o.factor]
            if factors:
                low, mid, high = min(factors), statistics.median(factors), max(factors)
                print("host-speed factor: median %.3f, %.3f-%.3f" % (mid, low, high), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    failed = [o for o in result["ops"] if not o.ok]
    for op in failed[:5]:
        print("FAILED: %s" % op.why, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(result["ops"]),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def _print_baseline(metrics):
    """The ROADMAP Baseline figures, as the traced run measured them."""
    for kernel in KERNELS:
        row = ["%s M=%d: %.1f us" % (kernel, M, metrics["kernel.%s.M%d.us_per_call" % (kernel, M)]["value"])
               for M in KERNEL_SIZES]
        print("baseline  " + " | ".join(row), file=sys.stderr)
    print(
        "baseline  energy calls: %d  (%.1f per sweep)"
        % (metrics["functional.energy.calls"]["value"], metrics["solver.energy_per_sweep"]["value"]),
        file=sys.stderr,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the harness and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
