import math

import pytest

from cavity_grover import (
    ConfigError,
    ExperimentConfig,
    NumericalError,
    parse_config,
    run_experiment,
    serialize_config,
    write_csv,
)
from cavity_grover import cli, experiments, imperfections
from cavity_grover.experiments import (
    MAX_GRID_POINTS,
    MAX_PHOTON_CUTOFF,
    MAX_THREADS,
    SweepTable,
)

FAST = dict(delta_t_points=5, eta_points=5)


# --- configuration ----------------------------------------------------------


def test_defaults_mirror_reference_numbers():
    config = ExperimentConfig()
    assert config.omega1c_khz == 6.125
    assert config.kappa_ratios == (0.0, 0.02, 0.1)
    assert config.k_max == 8
    assert config.delta_t_points == 50 and config.eta_points == 50


def test_config_round_trip():
    config = ExperimentConfig(
        omega1c_khz=5.0,
        kappa_ratios=(0.0, 0.5),
        k_max=3,
        tau="101",
        delta_t_max_frac=0.2,
        delta_t_points=7,
        eta_max=0.05,
        eta_points=3,
        chi_list=(2, 4),
        offset_model="per_atom",
        offset_eta_per_atom=(0.0, 0.01, -0.02),
        offset_kappa_ratio=0.02,
        photon_cutoff=2,
        lambda0=0.006,
        output="out.csv",
        threads=4,
    )
    assert parse_config(serialize_config(config)) == config


def test_default_round_trip():
    assert parse_config(serialize_config(ExperimentConfig())) == ExperimentConfig()


def test_parse_accepts_comments_and_blanks():
    config = parse_config("# comment\n\nk_max = 4  # trailing\ntau = 110\n")
    assert config.k_max == 4
    assert config.tau == "110"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'k_min'"):
        parse_config("k_min = 2\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="k_max"):
        parse_config("k_max = many\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kappa_ratios=(0.1, 0.1))
    with pytest.raises(ConfigError):
        ExperimentConfig(kappa_ratios=())
    with pytest.raises(ConfigError):
        ExperimentConfig(tau="abc")
    with pytest.raises(ConfigError):
        ExperimentConfig(chi_list=(1, 5))
    with pytest.raises(ConfigError):
        ExperimentConfig(eta_max=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(threads=0)


def test_parse_rejects_per_atom_offset_out_of_range(tmp_path):
    # Rejected at load time, so no experiment (not only offset) runs with it.
    text = "offset_model = per_atom\noffset_eta_per_atom = 1.5,0,0\n"
    with pytest.raises(ConfigError, match=r"\|eta\| < 1"):
        parse_config(text)
    config, out = tmp_path / "bad.cfg", tmp_path / "search.csv"
    config.write_text(text)
    assert cli.main(["search", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "key, cap",
    [
        ("delta_t_points", MAX_GRID_POINTS),
        ("eta_points", MAX_GRID_POINTS),
        ("threads", MAX_THREADS),
        ("k_max", MAX_GRID_POINTS),
        ("photon_cutoff", MAX_PHOTON_CUTOFF),
    ],
)
def test_grid_sizes_and_threads_are_capped(key, cap):
    # Validation only: a config at the cap is built, never run.
    assert getattr(ExperimentConfig(**{key: cap}), key) == cap
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = {cap + 1}\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = 10000000\n")


@pytest.mark.parametrize(
    "line",
    [
        "omega1c_khz = nan",
        "kappa_ratios = 0,nan",
        "delta_t_max_frac = nan",
        "eta_max = nan",
        "offset_eta_per_atom = 0.01,inf,0.0",
        "offset_kappa_ratio = nan",
        "lambda0 = inf",
    ],
)
def test_parse_rejects_non_finite_floats(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(line + "\n")


# --- experiments -------------------------------------------------------------


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment("teleport", ExperimentConfig())


def test_search_table_shape_and_values():
    table = run_experiment("search", ExperimentConfig())
    assert table.header == ("iteration", "kappa_ratio", "p_find", "survival", "fidelity")
    assert len(table.rows) == 24  # three kappa ratios x eight iterations
    by_key = {(row[0], row[1]): row for row in table.rows}
    p2 = by_key[(2, 0.0)][2]
    assert p2 == pytest.approx(0.9453, abs=1e-3)
    assert "best p_find" in table.summary


def test_gate_table_reports_residual_entry():
    table = run_experiment("gate", ExperimentConfig(kappa_ratios=(0.0, 0.1)))
    assert len(table.rows) == 16
    assert "0.999707" in table.summary
    lossless_rows = [row for row in table.rows if row[0] == 0.0]
    assert lossless_rows[0][2] == -1.0  # analytic |000> entry


def test_timing_table_zero_delay_rows():
    config = ExperimentConfig(kappa_ratios=(0.02, 0.1), **FAST)
    table = run_experiment("timing", config)
    assert table.header == (
        "kappa_ratio",
        "delta_t_frac",
        "infidelity_formula",
        "infidelity_oracle",
    )
    zero_rows = [row for row in table.rows if row[1] == 0.0]
    assert len(zero_rows) == 2
    for _, _, formula, oracle in zero_rows:
        assert formula == pytest.approx(oracle, abs=1e-4)
    strong = next(row for row in zero_rows if row[0] == 0.1)
    assert strong[2] == pytest.approx(6.3e-4, abs=1e-4)


def test_offset_table_baseline_column():
    config = ExperimentConfig(**FAST)
    table = run_experiment("offset", config)
    assert len(table.rows) == 20  # four chi values x five etas
    zero_eta = [row for row in table.rows if row[0] == 0.0]
    values = {row[3] for row in zero_eta}
    assert len(zero_eta) == 4
    assert max(values) - min(values) <= 1e-12


def test_geometry_table():
    table = run_experiment("geometry", ExperimentConfig())
    assert len(table.rows) == 1
    z1, z2, z3, ratio = table.rows[0]
    assert z3 == 0.0
    assert ratio == pytest.approx(1.957, abs=1e-3)
    assert ratio == pytest.approx(abs(z1) / abs(z2), rel=1e-12)


def test_threaded_run_is_deterministic():
    config = ExperimentConfig(kappa_ratios=(0.0, 0.1), **FAST)
    serial = run_experiment("timing", config)
    threaded = run_experiment(
        "timing", ExperimentConfig(kappa_ratios=(0.0, 0.1), threads=4, **FAST)
    )
    assert serial.rows == threaded.rows


# --- CSV emission -----------------------------------------------------------


def test_csv_empty_table_is_header_only(tmp_path):
    table = SweepTable("search", ("a", "b"), (), "empty")
    path = tmp_path / "empty.csv"
    write_csv(table, str(path))
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_csv_bytes_are_reproducible(tmp_path):
    config = ExperimentConfig(kappa_ratios=(0.0, 0.1), k_max=4)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment("search", config), str(first))
    write_csv(run_experiment("search", config), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_csv_write_error_carries_path(tmp_path):
    table = run_experiment("geometry", ExperimentConfig())
    missing_dir = tmp_path / "no" / "such" / "dir.csv"
    with pytest.raises(OSError, match="dir.csv"):
        write_csv(table, str(missing_dir))


def test_row_width_validated():
    with pytest.raises(ConfigError):
        SweepTable("gate", ("a", "b"), ((1.0,),), "")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_row_rejected(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        SweepTable("gate", ("a", "b"), ((1.0, 2.0), (3, bad)), "")


# --- CLI --------------------------------------------------------------------


def test_cli_runs_geometry(tmp_path, capsys):
    out = tmp_path / "geo.csv"
    rc = cli.main(["geometry", "--out", str(out), "--summary"])
    assert rc == 0
    assert out.exists()
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "z1,z2,z3,ratio_z1_z2"
    assert "1.9574" in capsys.readouterr().out


def test_cli_reads_config_file(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("k_max = 2\nkappa_ratios = 0,0.1\n", encoding="utf-8")
    out = tmp_path / "search.csv"
    rc = cli.main(["search", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 2  # header + two ratios x two iterations


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("k_max = -3\n", encoding="utf-8")
    rc = cli.main(["search", "--config", str(bad)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_non_finite_config_exits_1_without_csv(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text("eta_max = nan\n", encoding="utf-8")
    out = tmp_path / "offset.csv"
    rc = cli.main(["offset", "--config", str(bad), "--out", str(out)])
    assert rc == 1
    assert "eta_max must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_config_exit_code(capsys):
    rc = cli.main(["gate", "--config", "/no/such/file.cfg"])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def explode(name, config):
        raise NumericalError("synthetic blowup at kappa_ratio=0.1")

    monkeypatch.setattr(cli, "run_experiment", explode)
    rc = cli.main(["gate", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "synthetic blowup" in capsys.readouterr().err


def test_cli_non_finite_row_exits_2_without_csv(tmp_path, monkeypatch, capsys):
    def nan_geometry(config):
        return SweepTable("geometry", ("z1", "ratio"), ((0.1, math.nan),), "")

    monkeypatch.setitem(experiments._RUNNERS, "geometry", nan_geometry)
    out = tmp_path / "geometry.csv"
    rc = cli.main(["geometry", "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_threads_above_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "search.csv"
    rc = cli.main(["search", "--out", str(out), "--threads", str(MAX_THREADS + 1)])
    assert rc == 1
    assert "threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_timing_grid_failure_names_kappa_ratio(tmp_path, monkeypatch, capsys):
    def blow_up(amps, basis):
        raise NumericalError("synthetic non-finite block")

    monkeypatch.setattr(imperfections, "_check_result", blow_up)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("kappa_ratios = 0.1\ndelta_t_points = 5\n", encoding="utf-8")
    out = tmp_path / "timing.csv"
    rc = cli.main(["timing", "--config", str(config_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kappa_ratio=0.1" in err and "synthetic non-finite block" in err
    assert not out.exists()


def test_cli_threads_override(tmp_path):
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    assert cli.main(["search", "--out", str(out1), "--threads", "1"]) == 0
    assert cli.main(["search", "--out", str(out4), "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()
