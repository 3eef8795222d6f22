"""Command line entry points: exit codes, artifacts, config precedence."""
from __future__ import annotations

import hashlib
import json

import pytest

from epimarket import cli
from epimarket.verify import CheckResult, VerificationReport

FAST = "t_end=80\ndt=0.02\n"


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST)
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_myopic_writes_artifacts(tmp_path, fast_config):
    out = tmp_path / "out"
    code = run_cli("simulate", "--config", str(fast_config), "--out", str(out))
    assert code == 0
    for name in ("myopic.csv", "myopic.dat", "timeline.json", "report.json"):
        assert (out / name).exists()
    assert not (out / "rational.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["error"] is None
    assert report["scenario"] == "myopic"
    assert len(report["manifest"]) == 3


def test_simulate_rational_adds_the_second_leg(tmp_path, fast_config):
    out = tmp_path / "out"
    code = run_cli(
        "simulate", "--config", str(fast_config),
        "--scenario", "rational", "--out", str(out), "--format", "json",
    )
    assert code == 0
    assert (out / "myopic.json").exists()
    assert (out / "rational.json").exists()
    timeline = json.loads((out / "timeline.json").read_text())
    assert timeline["t1"] is not None
    assert timeline["t1"] < timeline["t_p_star_m"] < timeline["t2"]
    assert timeline["verdicts"]["re_peak_lower"] == "pass"


# sha256 of the data files `simulate --scenario rational` writes at the
# defaults; the engine's passes are rewritten only byte for byte
RATIONAL_DEFAULT_SHA256 = "d726e476899d3264413b2b9c5426011744fe49220f7ec4c6feda322cd50ac670"


def test_simulate_rational_defaults_write_the_pinned_bytes(tmp_path):
    cfg = tmp_path / "rational.cfg"
    cfg.write_text("scenario=rational\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "report.json":  # holds the wall-clock duration
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == RATIONAL_DEFAULT_SHA256


def test_stiff_grid_names_the_step_bound(tmp_path, caplog):
    # (beta*N + gamma)*dt beyond RK4's stability interval is refused before
    # any step: at 50, and at 4.0, where every step of the myopic run would
    # succeed, with a peak price 2.6 times the converged one
    for text, argv, bound in (("beta=5\n", [], "0.000557"),
                              ("beta=0.4\nt_end=50\n", ["--scenario", "myopic"],
                               "0.006961")):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(text)
        caplog.clear()
        code = run_cli("simulate", "--config", str(cfg), *argv,
                       "--out", str(tmp_path / "out"))
        assert code == 3
        [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert f"dt <= 2.785/(beta*N + gamma) = {bound}" in err


def test_simulate_all_reports_the_floored_depression_leg(tmp_path, fast_config):
    # at the default curve depth the mirrored trough would cross zero, so
    # the depression leg fails; the run keeps its other artifacts and
    # signals the numerical failure through the exit code
    out = tmp_path / "out"
    code = run_cli(
        "simulate", "--config", str(fast_config),
        "--scenario", "all", "--out", str(out),
    )
    assert code == 3
    assert (out / "myopic.csv").exists()
    assert (out / "rational.csv").exists()
    assert not (out / "depression.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert "price" in report["error"]


def test_simulate_all_writes_one_sir_history_for_every_leg(tmp_path):
    # S, I and R are one pass per (params, grid); the rational leg reads it
    # as the myopic leg does, so the t, S, I, R columns match byte for byte
    cfgfile = tmp_path / "k400.cfg"
    cfgfile.write_text("kappa=400\n")
    out = tmp_path / "out"
    code = run_cli("simulate", "--config", str(cfgfile),
                   "--scenario", "all", "--out", str(out))
    assert code == 0

    def sir_columns(name):
        lines = (out / name).read_text().splitlines()
        return [line.split(",")[:4] for line in lines]

    assert sir_columns("rational.csv") == sir_columns("myopic.csv")
    assert sir_columns("depression.csv") == sir_columns("myopic.csv")


def test_cli_flags_override_the_config_file(tmp_path, fast_config):
    out = tmp_path / "out"
    code = run_cli(
        "simulate", "--config", str(fast_config),
        "--out", str(out), "--horizon", "60", "--dt", "0.05",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "t_end=60.0" in report["config"]
    assert "dt=0.05" in report["config"]
    lines = (out / "myopic.csv").read_text().splitlines()
    assert len(lines) == 1 + 60 * 20 + 1  # header + nodes for dt=0.05


# ---------------------------------------------------------------------------
# bad input
# ---------------------------------------------------------------------------


def test_negative_dt_is_a_usage_error(tmp_path):
    assert run_cli("simulate", "--out", str(tmp_path / "o"), "--dt", "-1") == 2


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert run_cli("simulate", "--config", str(tmp_path / "nope.cfg")) == 2


def test_malformed_config_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("beta = banana\n")
    assert run_cli("simulate", "--config", str(bad)) == 2


@pytest.mark.parametrize("flag", ["--horizon", "--dt"])
def test_infinite_grid_flag_is_a_usage_error(tmp_path, flag):
    # inf used to overflow (horizon) or build a 0-step grid (dt)
    out = tmp_path / "o"
    assert run_cli("simulate", "--out", str(out), flag, "inf") == 2
    assert not (out / "myopic.csv").exists()


def test_grid_above_the_step_cap_is_a_usage_error(tmp_path):
    # 1e302 steps used to overflow while allocating the SIR arrays
    out = tmp_path / "o"
    assert run_cli("simulate", "--out", str(out), "--horizon", "1e300") == 2
    assert not (out / "myopic.csv").exists()


@pytest.mark.parametrize("out", [" x", "x ", "a\nb"])
def test_out_dir_that_would_not_round_trip_is_a_usage_error(tmp_path, monkeypatch, out):
    # the report echoes the config, whose key=value form must parse back
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--out", out) == 2
    assert list(tmp_path.iterdir()) == []


# each config line, and the one ERROR line it gives
BAD_VALUES = {
    "kappa=inf": "kappa must be finite, got inf",
    "beta=inf": "beta must be finite, got inf",
    "sweep.kappa=inf": "kappa must be finite, got inf",
    "sweep.gamma=-1,0.1": "gamma must be > 0, got -1.0",
}


@pytest.mark.parametrize("line", list(BAD_VALUES))
def test_infinite_model_value_is_a_usage_error(tmp_path, caplog, line):
    # refused while the config is parsed, so no pass runs and no file is written
    cfgfile = tmp_path / "inf.cfg"
    cfgfile.write_text(FAST + line + "\n")
    out = tmp_path / "o"
    for command, data_file in (("simulate", "myopic.csv"), ("sweep", "sweep.csv")):
        caplog.clear()
        assert run_cli(command, "--config", str(cfgfile), "--out", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [BAD_VALUES[line]]
        assert not (out / data_file).exists()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run_cli("explode") == 2
    assert run_cli() == 2


@pytest.mark.parametrize("command,sub,data_file", [
    pytest.param("simulate", "", None, id="simulate-"),
    pytest.param("sweep", "sub", None, id="sweep-sub"),
    pytest.param("verify", "", None, id="verify-"),
    pytest.param("simulate", "", "timeline.json", id="simulate-timeline.json"),
    pytest.param("simulate", "", "report.json", id="simulate-report.json"),
    pytest.param("sweep", "", "sweep.csv", id="sweep-sweep.csv"),
    pytest.param("verify", "", "sweep.csv", id="verify-sweep.csv"),
])
def test_out_path_that_is_a_file_is_a_usage_error(tmp_path, fast_config, caplog,
                                                  command, sub, data_file):
    # mkdir used to escape as FileExistsError / NotADirectoryError, and a
    # directory in place of a data file as IsADirectoryError
    if data_file is None:
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / sub if sub else blocker
        named = out
    else:
        out = tmp_path / "out"
        blocker = named = out / data_file
        blocker.mkdir(parents=True)
    argv = [command, "--out", str(out)]
    if command != "verify":
        argv += ["--config", str(fast_config)]
    caplog.clear()
    assert run_cli(*argv) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert str(named) in errors[0].getMessage()
    if data_file is None:
        assert blocker.read_text() == "keep\n"
    else:
        assert blocker.is_dir() and not any(blocker.iterdir())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_table_and_summary(tmp_path):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text(FAST + "sweep.kappa=5,10\n")
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "--config", str(cfgfile), "--out", str(out), "--workers", "2",
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("index,beta,gamma,n1,kappa,boom")
    summary = dict(
        ln.split(",") for ln in
        (out / "sweep_summary.csv").read_text().splitlines()[1:]
    )
    assert summary["points"] == "2"
    assert summary["errors"] == "0"


def test_sweep_checks_workers_and_ignores_them(tmp_path, fast_config):
    # --workers is kept for compatibility: checked, and without effect
    out = {w: tmp_path / f"w{w}" for w in ("0", "1", "2")}
    for w, path in out.items():
        code = run_cli("sweep", "--config", str(fast_config),
                       "--out", str(path), "--workers", w)
        assert code == (2 if w == "0" else 0)
    assert not out["0"].exists()
    assert ((out["1"] / "sweep.csv").read_bytes()
            == (out["2"] / "sweep.csv").read_bytes())


def test_sweep_rejects_the_depression_scenario(tmp_path, fast_config, caplog):
    code = run_cli(
        "sweep", "--config", str(fast_config),
        "--scenario", "depression", "--out", str(tmp_path / "sw"),
    )
    assert code == 2
    [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "myopic and rational" in err
    assert not (tmp_path / "sw").exists()


# ---------------------------------------------------------------------------
# verify (exit-code plumbing; the battery itself runs in the acceptance suite)
# ---------------------------------------------------------------------------


def _fake_report(ok: bool) -> VerificationReport:
    return VerificationReport(
        results=[CheckResult(criterion=1, name="stub", passed=ok, detail="")],
        artifacts=[],
    )


def test_verify_exit_codes(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_verification", lambda out: _fake_report(True))
    assert run_cli("verify", "--out", str(tmp_path / "v")) == 0
    monkeypatch.setattr(cli, "run_verification", lambda out: _fake_report(False))
    assert run_cli("verify", "--out", str(tmp_path / "v")) == 1
