"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import deltafield
from deltafield.cli import ConfigError, main, parse_config
from deltafield.field import make_grid, save_profile
from deltafield.greens import EULER_GAMMA
from oracles import zero_state


def _config(dim=3, alpha=1.0, omega=1.0, p=2.5, solver=None):
    data = {
        "dim": dim,
        "alpha": alpha,
        "nonlinearity": {"family": "power", "omega": omega, "p": p},
    }
    if solver is not None:
        data["solver"] = solver
    return data


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_parse_config_roundtrip():
    spec, strength, config = parse_config(
        _config(solver={"M": 128, "max_iters": 3})
    )
    assert strength.dim == 3 and strength.alpha == 1.0
    assert spec.omega == 1.0
    assert config.M == 128 and config.max_iters == 3


@pytest.mark.parametrize("dim", [1, 4, "3"])
def test_parse_config_rejects_bad_dimension(dim):
    with pytest.raises(ConfigError):
        parse_config(_config(dim=dim))


def test_parse_config_rejects_unknown_top_key():
    data = _config()
    data["extra"] = 1
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_config_rejects_unknown_solver_key():
    with pytest.raises(ConfigError):
        parse_config(_config(solver={"n_threads": 4}))


def test_parse_config_rejects_unknown_nonlinearity_key():
    data = _config()
    data["nonlinearity"]["q"] = 2.5
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_config_rejects_supercritical_3d():
    with pytest.raises(ConfigError):
        parse_config(_config(dim=3, p=3.5))


def test_parse_config_allows_cubic_2d():
    spec, strength, _ = parse_config(_config(dim=2, alpha=0.0, p=4.0))
    assert strength.dim == 2
    assert spec.p_growth == 4.0


def test_parse_config_warns_outside_theorems(capsys):
    # 2D cubic with omega below the threshold: warn on stderr, do not reject
    parse_config(_config(dim=2, alpha=0.0, omega=1.0, p=4.0))
    assert "warning" in capsys.readouterr().err


def test_solve_bad_dimension_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, _config(dim=4))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_solve_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_solve_shooting_failure_exits_1(tmp_path):
    # g(s) = -1e12 s + s^1.5 is negative on the whole bracket scan, so the
    # scalar seed has no shooting bracket; run as a process to see stderr whole
    cfg = _write(tmp_path, _config(omega=1e12, solver={"M": 128}))
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(deltafield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "deltafield.cli", "solve", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "shooting error: no shooting bracket found" in proc.stderr
    assert "g(a) <= 0 on all of [0.01, 100000]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_solve_never_imports_scipy_integrate(tmp_path):
    # only `identities` integrates by quadrature; importing the CLI and solving
    # must not pay for loading scipy.integrate
    cfg = _write(tmp_path, _config(solver={"M": 64, "max_iters": 2}))
    code = (
        "import sys\n"
        "import deltafield.cli as cli\n"
        "on_import = 'scipy.integrate' in sys.modules\n"
        "cli.main(['solve', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(on_import, 'scipy.integrate' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(deltafield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "False"]


# ---------------------------------------------------------------------------
# solve -> verify pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg_data = _config(
        solver={
            "M": 512,
            "max_iters": 200,
            "grad_tol": 1e-5,
            "grading_exponent": 4.0,
            "seed_profile": "scalar_ground_state",
        }
    )
    cfg = str(out / "config.json")
    with open(cfg, "w") as fh:
        json.dump(cfg_data, fh)
    code = main(["solve", "--config", cfg, "--out", str(out)])
    return out, code


def test_solve_writes_artifacts(solved):
    out, code = solved
    assert code in (0, 2)
    for name in (
        "profile.csv",
        "profile.json",
        "report.json",
        "trace.csv",
        "run_config.json",
    ):
        assert (out / name).exists(), name


def test_solve_report_contents(solved):
    out, code = solved
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "converged",
        "iterations",
        "sigma_estimate",
        "m0_estimate",
        "p_regime",
        "morse_index",
        "report",
    }
    assert report["converged"] == (code == 0)
    assert report["sigma_estimate"] < report["m0_estimate"]
    assert report["report"]["charge_re"] > 0


def test_solve_trace_format(solved):
    out, _ = solved
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,sigma_estimate,gradient_norm,charge"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert len(first) == 4
    int(first[0])
    float(first[1])


def test_verify_roundtrip(solved):
    out, _ = solved
    code = main(["verify", "--profile", str(out / "profile.csv")])
    assert code == 0
    report_path = out / "profile.report.json"
    assert report_path.exists()
    verified = json.loads(report_path.read_text())
    solved_report = json.loads((out / "report.json").read_text())["report"]
    # recomputed energy must match the solver's to near machine precision
    assert verified["energy"]["total"] == pytest.approx(
        solved_report["energy"]["total"], rel=1e-12
    )
    assert verified["charge_re"] == pytest.approx(
        solved_report["charge_re"], rel=1e-12
    )


def test_verify_explicit_config(solved):
    out, _ = solved
    code = main(
        [
            "verify",
            "--profile",
            str(out / "profile.csv"),
            "--config",
            str(out / "config.json"),
        ]
    )
    assert code == 0


def test_verify_truncated_profile_exits_1(solved, tmp_path, capsys):
    out, _ = solved
    src = (out / "profile.csv").read_text()
    bad = tmp_path / "profile.csv"
    bad.write_text("".join(src.splitlines(keepends=True)[:-7]))
    (tmp_path / "profile.json").write_text((out / "profile.json").read_text())
    (tmp_path / "run_config.json").write_text((out / "run_config.json").read_text())
    assert main(["verify", "--profile", str(bad)]) == 1
    assert "profile error" in capsys.readouterr().err


def test_verify_dimension_mismatch_exits_1(solved, tmp_path, capsys):
    out, _ = solved
    cfg = _write(tmp_path, _config(dim=2, alpha=0.0, omega=2.0, p=4.0))
    code = main(
        ["verify", "--profile", str(out / "profile.csv"), "--config", cfg]
    )
    assert code == 1


def test_verify_zero_state(tmp_path, capsys):
    grid = make_grid(3, 15.0, 128, 2.0)
    save_profile(zero_state(grid, 1.0), str(tmp_path / "zero.csv"))
    cfg = _write(tmp_path, _config())
    code = main(
        ["verify", "--profile", str(tmp_path / "zero.csv"), "--config", cfg]
    )
    assert code == 0
    report = json.loads((tmp_path / "zero.report.json").read_text())
    assert report["energy"]["total"] == 0.0
    assert report["gradient_norm"] == 0.0
    assert report["pohozaev_residual"] == 0.0


def test_solve_non_converged_still_writes_best_state(tmp_path):
    cfg = _write(
        tmp_path,
        _config(solver={"M": 128, "max_iters": 1, "newton_switch": 1e-14}),
    )
    code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert (tmp_path / "profile.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False


def test_solve_console_line_reports_index(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        _config(solver={"M": 128, "max_iters": 1, "newton_switch": 1e-14}),
    )
    main(["solve", "--config", cfg, "--out", str(tmp_path)])
    index = json.loads((tmp_path / "report.json").read_text())["morse_index"]
    assert isinstance(index, int) and index >= 0
    assert "  index=%d  " % index in capsys.readouterr().out


# ---------------------------------------------------------------------------
# identities table
# ---------------------------------------------------------------------------


def test_identities_3d(capsys):
    code = main(
        [
            "identities",
            "--dim",
            "3",
            "--lambda-min",
            "0.5",
            "--lambda-max",
            "4.0",
            "--steps",
            "8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda" in out and "xi" in out


def test_identities_3d_reference_row(capsys):
    main(
        [
            "identities",
            "--dim",
            "3",
            "--lambda-min",
            "1.0",
            "--lambda-max",
            "1.0",
            "--steps",
            "1",
        ]
    )
    out = capsys.readouterr().out
    # xi(3, 1) = 1/(4 pi), lam*||G||^2 = xi/2
    assert "0.079577472" in out
    assert "0.03978873577" in out


def test_identities_2d_threshold_flag(capsys):
    om_a = 4.0 * math.exp(-2 * EULER_GAMMA)
    code = main(
        [
            "identities",
            "--dim",
            "2",
            "--alpha",
            "0",
            "--lambda-min",
            repr(om_a),
            "--lambda-max",
            repr(om_a),
            "--steps",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "threshold: alpha + xi = 0" in out


def test_identities_2d_below_threshold_note(capsys):
    main(
        [
            "identities",
            "--dim",
            "2",
            "--alpha",
            "0",
            "--lambda-min",
            "0.5",
            "--lambda-max",
            "0.5",
            "--steps",
            "1",
        ]
    )
    assert "below threshold" in capsys.readouterr().out


def test_identities_bad_dim(capsys):
    code = main(
        ["identities", "--dim", "4", "--lambda-min", "1", "--lambda-max", "2"]
    )
    assert code == 1
