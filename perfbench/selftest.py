"""Fast checks of the benchmark harness (run by `run.py --self-test`).

Run from the repository root.  On a tiny grid (M=64) it checks that a
solver-originated energy call is counted, that RadialGrid methods are
traced, that self time never exceeds inclusive time, that uninstalling puts
every original back, that the host probe samples and then restores SIGPROF,
that an untraced solve process leaves nothing patched and reports probed
timing, and that BENCHMARK.json lists exactly the metrics run.py prints.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import hostclock
import run
import spans


def _ancestors(tracer, i):
    names = []
    parent = tracer.spans[i][1]
    while parent >= 0:
        names.append(tracer.spans[parent][0])
        parent = tracer.spans[parent][1]
    return names


def check_tracer():
    import deltafield.cli  # noqa: F401
    from deltafield import field, functional, solver
    from deltafield.greens import InteractionStrength
    from deltafield.nonlinearity import power_family

    originals = {
        (mod.__name__, attr): val
        for mod in (deltafield, deltafield.cli, field, functional, solver)
        for attr, val in vars(mod).items()
        if callable(val)
    }
    grid_init = field.RadialGrid.__dict__["__init__"]
    tracer = spans.Tracer()
    with tracer:
        assert hasattr(solver.energy, spans.MARK), "solver's own name for energy is not wrapped"
        assert solver.energy is functional.energy
        config = solver.SolverConfig(M=64, max_iters=3, seed_profile="bump", path_knots=16)
        solver.mountain_pass(power_family(1.0, 2.5), InteractionStrength(1.0, 3), config)
    stats = tracer.layer_stats()
    from_solver = [
        i
        for i, span in enumerate(tracer.spans)
        if span[0] == "functional.energy" and "solver.mountain_pass" in _ancestors(tracer, i)
        and "functional.verify" not in _ancestors(tracer, i)
    ]
    assert from_solver, "no solver-originated energy call was counted"
    for layer in ("field.RadialGrid", "field.nodal_at_gauss", "field.green", "greens.xi"):
        assert stats.get(layer, {}).get("calls", 0) > 0, "%s not traced" % layer
    assert stats["field.green"]["kernel_children"] >= 1, "a green cache miss was not seen"
    for layer, s in stats.items():
        assert -1e-9 <= s["self_s"] <= s["busy_s"] + 1e-9, layer
    assert stats["solver.mountain_pass"]["calls"] == 1
    assert not spans.patched_objects(), spans.patched_objects()
    assert field.RadialGrid.__dict__["__init__"] is grid_init
    for (mod_name, attr), val in originals.items():
        assert getattr(sys.modules[mod_name], attr) is val, "%s.%s not restored" % (mod_name, attr)


def check_untraced_child():
    config = {
        "dim": 3,
        "alpha": 1.0,
        "nonlinearity": {"family": "power", "omega": 1.0, "p": 2.5},
        "solver": {"M": 64, "max_iters": 60, "seed_profile": "bump", "path_knots": 16},
    }
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        timing_path = os.path.join(tmp, "timing.json")
        proc = subprocess.run(
            [sys.executable, run.CHILD, "solve", "--config", path, "--out", tmp, "--timing", timing_path],
            env=run.child_env(os.getcwd()),
            capture_output=True,
            text=True,
            timeout=120,
        )
        # exit 2 (not converged) is expected on this grid; 3+ means a harness check failed
        assert proc.returncode in (0, 2), proc.stdout + proc.stderr
        with open(timing_path) as fh:
            timing = json.load(fh)
    assert timing["probes"] >= hostclock.MIN_PROBES, timing
    assert 0.0 < timing["wall_s"] and 0.0 < timing["probe_s"] < timing["raw_wall_s"], timing


def check_host_probe():
    import signal

    handler = signal.getsignal(signal.SIGPROF)
    with hostclock.HostProbe() as probe:
        start = probe.mark()
        deadline = start[1] + 0.5
        while time.process_time() < deadline:
            pass
        end = probe.mark()
    assert signal.getsignal(signal.SIGPROF) is handler, "SIGPROF handler not restored"
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0), "profiling timer left running"
    timing = hostclock.adjusted(start, end)
    assert timing["probes"] >= hostclock.MIN_PROBES, timing
    assert 0.0 < timing["wall_s"] and timing["factor"] > 0.0, timing


def check_benchmark_json():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want_e2e = [list(m) for m in run.END_TO_END]
    got_e2e = [[m["name"], m["unit"], m["better"]] for m in bench["end_to_end"]]
    assert got_e2e == want_e2e, "BENCHMARK.json end_to_end differs from run.END_TO_END"
    want_layer = [list(m) for m in run.per_layer_metrics()]
    got_layer = [[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]]
    assert got_layer == want_layer, "BENCHMARK.json per_layer differs from run.per_layer_metrics()"
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def main():
    os.environ.update({k: v for k, v in run.child_env(os.getcwd()).items() if k.endswith("_THREADS")})
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    for check in (check_tracer, check_host_probe, check_untraced_child, check_benchmark_json):
        check()
        print("ok  %s" % check.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
