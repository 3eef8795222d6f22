"""Command line entry points: exit codes, artifacts, config precedence."""
from __future__ import annotations

import csv
import hashlib
import json

import pytest

from epimarket import cli
from epimarket.config import parse_config, with_overrides
from epimarket.errors import ConfigError
from epimarket.verify import CheckResult
from test_drive_parity import POPULATION_REFUSAL, PR21_BOOM_REFUSAL
from test_sir_pass import BETA_1000_REFUSAL, BETA_5_BAND_REFUSAL

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
    assert "scenario=myopic" in report["config"].splitlines()
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


@pytest.mark.parametrize("scenario, legs", [
    ("myopic", ["myopic"]), ("depression", ["depression", "myopic"]),
    ("rational", ["myopic"]), ("all", ["depression", "myopic"])],
    ids=["myopic", "depression", "rational", "all"])
def test_simulate_without_a_boom_writes_no_verdicts(tmp_path, scenario, legs):
    # n2=0: the contagion is never seeded and the price never leaves p0;
    # with no plateau to solve, no rational leg is written, as a sweep row
    # of the same point has no claims
    cfg = tmp_path / "no_boom.cfg"
    cfg.write_text("n2=0\nt_end=50\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", scenario, "--config", str(cfg),
                   "--out", str(out)) == 0
    timeline = json.loads((out / "timeline.json").read_text())
    assert timeline["t_i_star"] is None
    assert timeline["verdicts"] == {}
    assert sorted(p.stem for p in out.glob("*.csv")) == legs


@pytest.mark.parametrize("text, flags", [
    ("beta=5\n", []),  # a stiff grid, refused by the SIR pass
    ("", ["--horizon", "10", "--scenario", "rational"]),  # the peak lies past the horizon
], ids=["stiff_grid", "peak_past_horizon"])
def test_a_refused_simulate_leaves_no_output_directory(tmp_path, caplog, text, flags):
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out), *flags) == 3
    assert len([r for r in caplog.records if r.levelname == "ERROR"]) == 1
    assert not out.exists()


# sha256 of the data files `simulate --scenario rational` writes at the
# defaults; the engine's passes are rewritten only byte for byte
RATIONAL_DEFAULT_SHA256 = "d726e476899d3264413b2b9c5426011744fe49220f7ec4c6feda322cd50ac670"
# and of those of `simulate --scenario all` at kappa=400
ALL_KAPPA_400_SHA256 = "ec912e221240a50ac01a2d619d18d70b354ec6ffbd99b335818ef0c475634b20"


def _data_files(out):
    """The files a run wrote to out, report.json left out."""
    return sorted(p for p in out.glob("*") if p.name != "report.json")


def test_simulate_rational_defaults_write_the_pinned_bytes(tmp_path, artifact_digest):
    cfg = tmp_path / "rational.cfg"
    cfg.write_text("scenario=rational\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    assert artifact_digest(_data_files(out)) == RATIONAL_DEFAULT_SHA256


FLOOR = "clearing price hit zero at t=7.015 (x=-10.009295841226004)"


def _legs(legs, *exts):
    return [f"{leg}.{ext}" for leg in legs.split() for ext in exts] + ["timeline.json"]


# the other default artifact sets (test_simulate_all_writes_one_sir_history_for_every_leg
# pins --scenario all at kappa=400 in csv): the config text and flags of a
# run, its exit code, the data files it writes, its ERROR lines and the
# sha256 of those files
@pytest.mark.parametrize("config, argv, code, files, errors, sha256", [
    pytest.param("kappa=400\n", ("simulate", "--scenario", "all", "--format", "json"), 0,
                 _legs("myopic rational depression", "json", "dat"), [],
                 "2d7632073656317382b616228b5302437fa280827939464a9938d770a6f52a28",
                 id="all-kappa-400-json"),
    pytest.param("kappa=700\n", ("simulate", "--scenario", "depression"), 0,
                 _legs("myopic depression", "csv", "dat"), [],
                 "54a4f11e0d0491ee0cc6a19c90107deda9ea6ddd75b75357da7ead14cc990f00",
                 id="depression-kappa-700"),
    # the depression leg reaches the price floor: the run keeps the files
    # of --scenario rational, or writes none where it is the only leg
    pytest.param("", ("simulate", "--scenario", "all"), 3,
                 _legs("myopic rational", "csv", "dat"), [f"depression leg failed: {FLOOR}"],
                 RATIONAL_DEFAULT_SHA256, id="all"),
    pytest.param("", ("simulate", "--scenario", "depression"), 3, [], [FLOOR],
                 hashlib.sha256().hexdigest(), id="depression"),
    pytest.param("", ("sweep",), 0, ["sweep.csv", "sweep_summary.csv"], [],
                 "d5a1dc8250115e97ebeb31ecf2b3336eaa098a0a97ffdad9b0d4d173162b19fc",
                 id="sweep"),
    # an endowment w != 1, where d*w != d: every market value reads w
    # through the demand table, and a misplaced product by w would show
    pytest.param("endowment=2.5\nkappa=1000\n", ("simulate", "--scenario", "all"), 0,
                 _legs("myopic rational depression", "csv", "dat"), [],
                 "f3f3a2fa5518b143bd4964b78219a75c33979cee0c35ca7745f202321f9f5651",
                 id="all-endowment-2.5-kappa-1000"),
    pytest.param("endowment=0.4\nkappa=400\n", ("simulate", "--scenario", "all"), 0,
                 _legs("myopic rational depression", "csv", "dat"), [],
                 "ee778bf319d8138c31ae71b251aad89ec13e8962f2812085d6a55ceae8baea50",
                 id="all-endowment-0.4-kappa-400"),
])
def test_default_artifact_sets_have_the_pinned_bytes(tmp_path, caplog, artifact_digest,
                                                     config, argv, code, files, errors,
                                                     sha256):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == code
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == errors
    written = _data_files(out)
    assert [p.name for p in written] == sorted(files)
    assert artifact_digest(written) == sha256


def test_stiff_grid_names_the_step_bound(tmp_path, caplog):
    # (beta*N + gamma)*dt beyond RK4's stability interval is refused before
    # any step: at 50, and at 4.0, where every step of the myopic run would
    # succeed, with a peak price 2.6 times the converged one; the advice is
    # the bound rounded down to 4 digits
    for text, argv, bound in (("beta=5\n", [], "0.0005569"),
                              ("beta=0.4\nt_end=50\n", ["--scenario", "myopic"],
                               "0.00696")):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(text)
        caplog.clear()
        code = run_cli("simulate", "--config", str(cfg), *argv,
                       "--out", str(tmp_path / "out"))
        assert code == 3
        [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert err.endswith(f"; use dt <= 2.785/(beta*N + gamma) = {bound}")


def test_a_stiff_input_no_allowed_grid_runs_advises_no_dt(tmp_path, caplog):
    # at beta=1000 the bound dt <= 2.785e-06 needs 1.08e8 steps over
    # [0, 300], a grid the CLI refuses with exit 2: no dt is advised
    cfg = tmp_path / "b.cfg"
    cfg.write_text("beta=1000\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 3
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        BETA_1000_REFUSAL]
    assert _data_files(out) == []


def test_a_stiff_input_only_grids_finer_than_4_digits_run_advises_no_dt(tmp_path, caplog):
    # at beta=5 over [0, 5569.5] the finest grid meets the bound but steps
    # above its advised 4-digit dt: exit 3, the comparison that says so and
    # no dt
    cfg = tmp_path / "b.cfg"
    cfg.write_text("beta=5\nt_end=5569.5\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 3
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        BETA_5_BAND_REFUSAL]
    assert not out.exists()


def test_a_population_beyond_the_float_range_is_a_usage_error(tmp_path, caplog):
    # n1 + n3 overflows, so at beta=0 (beta*N + gamma)*dt would be 0*inf,
    # NaN, and a grid at 1,500 (gamma*dt = 3) would run to an I column that
    # grows 1.375x per step; at N=1000 the same grid is refused with exit 3
    grid = "beta=0\ngamma=300\nt_end=5\n"
    for text, code, says in (("n1=1e308\nn3=1e308\n", 2,
                              POPULATION_REFUSAL.format(n="inf")),
                             ("", 3, "dt <= 2.785/(beta*N + gamma)")):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(grid + text)
        caplog.clear()
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == code
        [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert says in err
        assert not out.exists()


def test_an_overflow_of_s_and_i_fails_every_leg_with_the_sir_pass_error(tmp_path, caplog):
    # (beta*N + gamma)*dt = 2.001, inside RK4's stability interval, but
    # beta*I*S would overflow at t=3.62: the population is refused with
    # exit 2 before any pass runs, by simulate and by a sweep over n1
    for text, command in (("n1=1e308\n", ["simulate", "--scenario", "all"]),
                          ("sweep.n1=1e308,999\n", ["sweep"])):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("beta=2e-306\nt_end=20\n" + text)
        out = tmp_path / command[0]
        caplog.clear()
        assert run_cli(*command, "--config", str(cfg), "--out", str(out)) == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            POPULATION_REFUSAL.format(n="1e+308")]
        assert not out.exists()


def test_a_boom_that_overshoots_its_floor_names_the_dt_that_holds_it(tmp_path, caplog):
    # drives near 6e6 carry the myopic leg's first mid-step stage below the
    # floor: a grid error, exit 3, whose ERROR line advises a dt that the
    # CLI then runs
    cfg = tmp_path / "overshoot.cfg"
    cfg.write_text("beta=2e-5\nn1=1e6\nn2=1e5\nt_end=20\ndt=0.1\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", "myopic", "--config", str(cfg),
                   "--out", str(out)) == 3
    [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert err.startswith("clearing price hit zero at t=0.05 ")
    assert "; use dt <= 0.004076 (" in err
    assert _data_files(out) == []
    assert run_cli("simulate", "--scenario", "myopic", "--config", str(cfg), "--dt", "0.004",
                   "--out", str(tmp_path / "fine")) == 0


def test_a_boom_no_allowed_grid_holds_advises_no_dt(tmp_path, caplog):
    # drives near 2.5e300 against kappa*p0 = 10: the overshoot bound holds
    # at dt <= 6.363e-150, about 3e150 steps over [0, 20], so the ERROR
    # line names the bound that fails on the finest grid and no dt
    cfg = tmp_path / "overshoot.cfg"
    cfg.write_text("beta=1e-299\nn1=1e300\nn2=1e297\nt_end=20\ndt=0.1\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", "myopic", "--config", str(cfg),
                   "--out", str(out)) == 3
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        PR21_BOOM_REFUSAL]
    assert _data_files(out) == []


def test_a_boom_whose_demand_overflows_names_the_demand_and_no_dt(tmp_path, caplog):
    # at endowment=5e307 the demand beta*I*S*w overflows, so top = max
    # demand/p0 is inf and no dt meets the bound: exit 3, and the ERROR line
    # names the demand with its w, and no dt
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("endowment=5e307\nt_end=50\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", "myopic", "--config", str(cfg),
                   "--out", str(out)) == 3
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "clearing price hit zero at t=0.005 (x=-6.243750000000001e+301) in a boom: RK4 "
        "overshoot at dt=0.01; no dt meets gamma*dt^2*top <= kappa*p0, as top = max "
        "demand/p0 overflows for the demand beta*I*S*w, w = 5e+307"]
    assert _data_files(out) == []
    # no up-front bound on w: a huge w whose demand stays finite still runs
    cfg.write_text("endowment=1e303\nkappa=1e308\nt_end=50\n")
    assert run_cli("simulate", "--scenario", "all", "--config", str(cfg),
                   "--out", str(tmp_path / "huge_w")) == 0


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


def test_simulate_all_writes_one_sir_history_for_every_leg(tmp_path, artifact_digest):
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
    assert artifact_digest(_data_files(out)) == ALL_KAPPA_400_SHA256


SHORT_OF_PEAK = ("infected maximum sits on the grid boundary (node {}); "
                 "the horizon is too short to contain the peak")


@pytest.mark.parametrize("scenario, horizon", [
    ("myopic", 10), ("rational", 10), ("depression", 10), ("all", 10), ("all", 21),
])
def test_horizon_short_of_the_infection_peak_fails_before_any_file(
        tmp_path, caplog, scenario, horizon):
    # at horizon 10 the kappa=10 depression leg would also hit the price
    # floor (t=7.015); the legs are judged first, so the horizon is named
    out = tmp_path / "out"
    code = run_cli("simulate", "--scenario", scenario, "--horizon", str(horizon),
                   "--out", str(out))
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [SHORT_OF_PEAK.format(horizon * 100)]
    assert not [p.name for p in out.glob("*")
                if p.suffix in (".csv", ".dat") or p.name == "timeline.json"]


def test_sweep_rows_short_of_the_infection_peak_carry_it(tmp_path):
    # at horizon 21 only the beta=1e-3 rows (6-8) peak inside the grid
    cfg = tmp_path / "rational.cfg"
    cfg.write_text("scenario=rational\n")
    out = tmp_path / "sw"
    code = run_cli("sweep", "--config", str(cfg), "--horizon", "21", "--out", str(out))
    assert code == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert errors == [SHORT_OF_PEAK.format(2100)] * 6 + [""] * 3


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


@pytest.mark.parametrize("command, text", [
    ("simulate", "kappa=400\ngamma=0.12\n"),
    ("sweep", "kappa=400\ngamma=0.12\nsweep.kappa=300,400\n"),
])
def test_the_report_echoes_the_config_of_the_run(tmp_path, command, text):
    # the echo is the report's one record of the scenario and every key
    cfgfile = tmp_path / "k.cfg"
    cfgfile.write_text(text)
    out = str(tmp_path / "o")
    code = run_cli(command, "--config", str(cfgfile), "--scenario", "rational",
                   "--dt", "0.05", "--horizon", "60", "--format", "json", "--out", out)
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert parse_config(report["config"]) == with_overrides(
        parse_config(text), scenario="rational", dt=0.05, t_end=60.0,
        format="json", out_dir=out)


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


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, caplog):
    # the decode error used to escape as a UnicodeDecodeError traceback
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"beta=1e-3\n\xff\xfe\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(bad), "--out", str(out)) == 2
    [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert err.startswith(f"cannot read config file {str(bad)!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--horizon", "--dt"])
def test_infinite_grid_flag_is_a_usage_error(tmp_path, flag):
    # inf used to overflow (horizon) or build a 0-step grid (dt)
    out = tmp_path / "o"
    assert run_cli("simulate", "--out", str(out), flag, "inf") == 2
    assert not out.exists()


def test_grid_above_the_step_cap_is_a_usage_error(tmp_path):
    # 1e302 steps used to overflow while allocating the SIR arrays
    out = tmp_path / "o"
    assert run_cli("simulate", "--out", str(out), "--horizon", "1e300") == 2
    assert not out.exists()


@pytest.mark.parametrize("out", [" x", "x ", "a\nb"])
def test_out_dir_that_would_not_round_trip_is_a_usage_error(tmp_path, monkeypatch, out):
    # the report echoes the config, whose key=value form must parse back
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--out", out) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_out_dir_with_a_nul_byte_is_a_usage_error(tmp_path, monkeypatch, caplog,
                                                  command):
    # mkdir used to escape as ValueError: embedded null byte
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "nul.cfg"
    cfgfile.write_text(FAST + "out_dir=a\0b\n")
    assert run_cli(command, "--config", str(cfgfile)) == 2
    [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert err.startswith("cannot use 'a\\x00b' as output directory: ")
    assert err.isprintable()
    assert list(tmp_path.iterdir()) == [cfgfile]


def test_a_path_in_an_error_line_is_quoted(tmp_path, monkeypatch, caplog):
    # an ANSI escape in out_dir reaches the ERROR line as repr quotes it,
    # never raw; here the table writer cannot open myopic.csv
    monkeypatch.chdir(tmp_path)
    out = "red\x1b[31m"
    (tmp_path / out / "myopic.csv").mkdir(parents=True)
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text(FAST)
    assert run_cli("simulate", "--config", str(cfgfile), "--out", out) == 2
    [err] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert err.startswith("cannot write 'red\\x1b[31m/myopic.csv': ")


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


def test_a_sweep_point_whose_values_break_a_bound_together_is_refused(tmp_path, caplog):
    # beta=1e290 and n1=1e9 each pass their own key's bounds, but the
    # point that pairs them would let its SIR pass overflow: the config is
    # refused before any pass runs, and no output directory is made
    text = "sweep.beta=1e290\nsweep.n1=1e9\nt_end=10\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == POPULATION_REFUSAL.format(n="1e+09")
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(text)
    out = tmp_path / "outdir"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        POPULATION_REFUSAL.format(n="1e+09")]
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify (exit-code plumbing; the battery itself runs in the acceptance suite)
# ---------------------------------------------------------------------------


def _fake_report(ok: bool) -> list[CheckResult]:
    return [CheckResult(criterion=1, name="stub", passed=ok, detail="")]


def test_verify_exit_codes(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_verification", lambda out: _fake_report(True))
    assert run_cli("verify", "--out", str(tmp_path / "v")) == 0
    monkeypatch.setattr(cli, "run_verification", lambda out: _fake_report(False))
    assert run_cli("verify", "--out", str(tmp_path / "v")) == 1
