"""Write perfbench/recorded.json: the machine, the solve references and the
verify-batch catalogue with the verification figures of each entry.

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root.  Re-run only when a change is meant to move
the recorded figures, and say so in CHANGES.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402

CATALOGUE_SEED = 20241001
VARIANTS = 8  # entries per (dim, M)


def catalogue():
    from deltafield.greens import InteractionStrength, omega_alpha

    rng = random.Random(CATALOGUE_SEED)
    entries = []
    for dim in (2, 3):
        for M in child.KERNEL_SIZES:
            for _ in range(VARIANTS):
                alpha = rng.uniform(-0.05, 1.5) if dim == 3 else rng.uniform(-0.1, 0.3)
                om_a = omega_alpha(InteractionStrength(alpha, dim))
                entries.append(
                    {
                        "dim": dim,
                        "M": M,
                        "p": 2.5 if dim == 3 else 4.0,
                        "alpha": alpha,
                        "lam": om_a + rng.uniform(0.2, 2.5),
                        "q": rng.uniform(-3.0, 3.0),
                        "amp": rng.uniform(0.5, 3.0),
                        "width": rng.uniform(1.0, 4.0),
                        "r_max": rng.uniform(15.0, 30.0),
                        "grading": float(rng.choice((2, 3, 4))),
                    }
                )
    from deltafield.functional import verify

    for entry in entries:
        state, spec, strength = child.catalogue_problem(entry)
        entry["expected"] = child.report_values(verify(state, spec, strength))
    return entries


def solve_references():
    from deltafield.cli import parse_config
    from deltafield.solver import mountain_pass

    refs = {}
    for name, config in run.SOLVE_CONFIGS.items():
        spec, strength, solver_config = parse_config(config)
        result = mountain_pass(spec, strength, solver_config)
        refs[name] = {"sigma": result.sigma_estimate, "q": abs(result.state.charge)}
    return refs


def main():
    probe = subprocess.run(
        [sys.executable, os.path.join(child.HERE, "child.py"), "import"],
        env=run.child_env(os.getcwd()),
        capture_output=True,
        text=True,
        check=True,
    )
    machine = dict(run.machine_info(), **json.loads(probe.stdout.splitlines()[-1]))
    for key in ("import_s", "adjusted"):
        machine.pop(key, None)
    out = {"machine": machine, "solves": solve_references(), "catalogue": catalogue()}
    with open(child.RECORDED, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
