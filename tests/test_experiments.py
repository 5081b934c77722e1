import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_grover import (
    CavityParams,
    ConfigError,
    ExperimentConfig,
    NumericalError,
    OffsetScenario,
    TimingScenario,
    build_effective_hamiltonian,
    coupling_at_position,
    decayed_i000,
    evolve,
    extract_gate,
    parse_config,
    phase_gate_success,
    positions_for_ratio,
    run_experiment,
    serialize_config,
    write_csv,
)
from cavity_grover import cli, experiments, imperfections
from cavity_grover.dynamics import decay_shifted_frequency
from cavity_grover.experiments import MAX_GRID_POINTS, SweepTable
from cavity_grover.gates import TEXTBOOK, MarkedState
from cavity_grover.grover import run_search
from cavity_grover.hilbert import basis_state

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
        photon_cutoff=1,
        lambda0=0.006,
        output="out.csv",
    )
    assert parse_config(serialize_config(config)) == config


def test_default_round_trip():
    assert parse_config(serialize_config(ExperimentConfig())) == ExperimentConfig()


def test_readme_config_listing_is_the_defaults():
    # The README lists every key at its default value, in field order.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listing = readme.split("### Config file", 1)[1].split("```\n", 2)[1]
    keys = [line.split("=", 1)[0].strip() for line in listing.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert parse_config(listing) == ExperimentConfig()


def test_parse_accepts_comments_and_blanks():
    config = parse_config("# comment\n\nk_max = 4  # trailing\ntau = 110\n")
    assert config.k_max == 4
    assert config.tau == "110"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'k_min'"):
        parse_config("k_min = 2\n")


def test_parse_rejects_repeated_key():
    with pytest.raises(ConfigError, match=r"line 3: key 'kappa_ratios' already set on line 1"):
        parse_config("kappa_ratios = 0.1\nk_max = 4\nkappa_ratios = 0.2\n")


def test_cli_repeated_key_exits_1_without_csv(tmp_path, capsys):
    config, out = tmp_path / "twice.cfg", tmp_path / "search.csv"
    config.write_text("kappa_ratios = 0.1\nkappa_ratios = 0.2\n", encoding="utf-8")
    assert cli.main(["search", "--config", str(config), "--out", str(out)]) == 1
    assert "'kappa_ratios' already set on line 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_per_atom_count_error_names_its_line():
    with pytest.raises(ConfigError) as info:
        parse_config("k_max = 4\noffset_eta_per_atom = 0.1,0.2\n")
    assert str(info.value) == (
        "config line 2: bad value for 'offset_eta_per_atom': "
        "offset_eta_per_atom needs exactly three comma-separated values"
    )


@pytest.mark.parametrize("value", [0, 2, 11])
@pytest.mark.parametrize("key", ["threads", "photon_cutoff"])
def test_retired_keys_accept_only_one(key, value, tmp_path, capsys):
    # Kept so that existing configs still parse: 1 is the only value.
    assert getattr(parse_config(f"{key} = 1\n"), key) == 1
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key} = {value}\n")
    config, out = tmp_path / "retired.cfg", tmp_path / "search.csv"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert cli.main(["search", "--config", str(config), "--out", str(out)]) == 1
    assert f"sim: config error: {key}" in capsys.readouterr().err
    assert not out.exists()


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
        ("threads", 1),  # kept only so that existing configs still parse
        ("k_max", MAX_GRID_POINTS),
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


# Owner-checked rules, one bad line each; the config checks them at load time
# by building the objects the experiments use.
_OWNED_RULE_LINES = (
    "kappa_ratios = 0,4",
    "offset_kappa_ratio = 4",
    "chi_list = 1,5",
    "eta_max = 1",
    "delta_t_max_frac = 1.5",
    "lambda0 = 0",
    "omega1c_khz = 0",
)


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
@pytest.mark.parametrize("line", _OWNED_RULE_LINES)
def test_owned_rules_fail_at_load_time(line, experiment, tmp_path, capsys):
    # Every experiment fails, even one that never reads the value.
    key = line.split("=")[0].strip()
    config, out = tmp_path / "bad.cfg", tmp_path / f"{experiment}.csv"
    config.write_text(line + "\n", encoding="utf-8")
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert f"sim: config error: {key}" in capsys.readouterr().err
    assert not out.exists()


_P = CavityParams.designed(1.0, 0.1)

# The library's guards on float inputs, each as a call of one float.
_GUARDED_CALLS = {
    "CavityParams omega": lambda x: CavityParams((1.0, x, 3.0)),
    "CavityParams kappa": lambda x: CavityParams((1.0, 2.0, 3.0), kappa=x),
    "CavityParams.designed": lambda x: CavityParams.designed(x),
    "TimingScenario": lambda x: TimingScenario(x, _P),
    "OffsetScenario eta": lambda x: OffsetScenario(x, 1, _P),
    "OffsetScenario per-atom eta": lambda x: OffsetScenario(0.0, 1, _P, "per_atom", (0.0, x, 0.0)),
    "positions_for_ratio": lambda x: positions_for_ratio(1.0, x),
    "coupling_at_position": lambda x: coupling_at_position(0.0, 1.0, x),
    "decay_shifted_frequency omega": lambda x: decay_shifted_frequency(x, 0.0),
    "decay_shifted_frequency kappa": lambda x: decay_shifted_frequency(1.0, x),
    "evolve": lambda x: evolve(build_effective_hamiltonian(_P), x, basis_state(0)),
    "extract_gate": lambda x: extract_gate(_P, x),
    "phase_gate_success": lambda x: phase_gate_success([x] + [1.0] * 7, decayed_i000(_P)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(_GUARDED_CALLS))
def test_guards_reject_non_finite_inputs(call, bad):
    with pytest.raises(ConfigError):
        _GUARDED_CALLS[call](bad)


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


_GATE_GAP = "max |analytic - simulated| = "


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_outputs_do_not_depend_on_the_frequency_unit(experiment):
    # Every CSV value depends on kappa/omega1 and the coupling ratios alone,
    # so omega1 = 2*pi*1 Hz and 2*pi*1 GHz give the default run's values. The
    # summary's iteration time scales with 1/omega1; the gate gaps may move
    # by rounding, which shows in the three digits of the lossless gap.
    reference = run_experiment(experiment, ExperimentConfig())
    expected_lines = reference.summary.splitlines()
    for khz in (1e-3, 1e6):
        table = run_experiment(experiment, ExperimentConfig(omega1c_khz=khz))
        assert table.header == reference.header
        for column, expected in zip(table.columns, reference.columns):
            assert len(column) == len(expected)
            assert np.abs(column - expected).max(initial=0.0) <= 1e-12
        lines = table.summary.splitlines()
        assert len(lines) == len(expected_lines)
        for line, expected in zip(lines, expected_lines):
            if line.startswith("iteration time"):
                continue
            if _GATE_GAP in line:
                head, gap = line.split(_GATE_GAP)
                assert head == expected.split(_GATE_GAP)[0]
                assert abs(float(gap) - float(expected.split(_GATE_GAP)[1])) < 1e-12
            else:
                assert line == expected


# --- CSV emission -----------------------------------------------------------


def _row_wise_csv(header, rows) -> str:
    # The CSV text as the row-wise writer produced it, one str per value:
    # the reference for the column formatter.
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (0.0, -0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, -2.5, 0.1)


@st.composite
def _columns(draw):
    # Each column draws its values from a pool of its own: a small pool
    # repeats values heavily, a pool as long as the column hardly at all.
    length = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            values = st.integers(-(2**63), 2**63 - 1)
        else:
            values = st.one_of(
                st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
            )
        pool = draw(st.lists(values, min_size=1, max_size=max(length, 1)))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length)))
    return columns


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(columns=_columns())
def test_column_writer_matches_row_wise_writer(columns, tmp_path_factory):
    header = tuple(f"c{i}" for i in range(len(columns)))
    rows = list(zip(*columns))
    table = SweepTable("search", header, columns, "")
    assert table.rows == tuple(rows)
    path = tmp_path_factory.getbasetemp() / "property.csv"
    write_csv(table, str(path))
    assert path.read_bytes() == _row_wise_csv(header, rows).encode("utf-8")


def test_csv_empty_table_is_header_only(tmp_path):
    table = SweepTable("search", ("a", "b"), ([], []), "empty")
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
    # One column for a two-field header.
    with pytest.raises(ConfigError):
        SweepTable("gate", ("a", "b"), ([1.0],), "")


def test_unequal_column_lengths_rejected():
    with pytest.raises(ConfigError):
        SweepTable("gate", ("a", "b"), ([1.0, 3.0], [2.0]), "")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_row_rejected(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        SweepTable("gate", ("a", "b"), ([1.0, 3], [2.0, bad]), "")


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
        return SweepTable("geometry", ("z1", "ratio"), ([0.1], [math.nan]), "")

    monkeypatch.setitem(experiments._RUNNERS, "geometry", nan_geometry)
    out = tmp_path / "geometry.csv"
    rc = cli.main(["geometry", "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["search", "--bogus"], "sim: usage error: unrecognized arguments: --bogus"),
        (["nosuch"], "sim: usage error: argument experiment: invalid choice: 'nosuch'"),
        (["search", "--threads", "abc"], "sim: usage error: unrecognized arguments: --threads"),
        (["search", "--threads", "1"], "sim: usage error: unrecognized arguments: --threads"),
        (["search", "--config", "{undecodable}"], "sim: config error: cannot read config file"),
    ],
    ids=["unknown-option", "unknown-experiment", "threads-abc", "threads-1", "undecodable-config"],
)
def test_cli_configuration_problems_exit_1(args, message, tmp_path, capsys):
    # Usage errors exit 1 like any other configuration problem; 2 is the
    # numerical-failure code. A file that is not UTF-8 cannot be read.
    undecodable, out = tmp_path / "latin1.cfg", tmp_path / "search.csv"
    undecodable.write_bytes(b"k_max = 4\n\xff\n")
    argv = [arg.format(undecodable=undecodable) for arg in args] + ["--out", str(out)]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_help_exits_0(capsys):
    assert cli.main(["search", "-h"]) == 0
    assert "--config" in capsys.readouterr().out


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


@pytest.mark.parametrize("model", ["atom1", "uniform"])
def test_per_atom_offsets_checked_under_every_model(model, tmp_path, capsys):
    # The triple is checked whenever it is given, not only for per_atom.
    config, out = tmp_path / "bad.cfg", tmp_path / "offset.csv"
    config.write_text(f"offset_model = {model}\noffset_eta_per_atom = 1.5,0,0\n")
    assert cli.main(["offset", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("sim: config error: offset_eta_per_atom")
    assert not out.exists()


@pytest.mark.parametrize(
    "line, shown",
    [
        ("delta_t_max_frac = 1.5", "delta_t_max_frac = 1.5: delta_t="),
        ("kappa_ratios = 0,4.5", "kappa_ratios = 4.5: kappa="),
        ("chi_list = 1,5", "chi_list = 5: "),
        ("offset_eta_per_atom = 0,1.5,0", "offset_eta_per_atom = 0.0,1.5,0.0: "),
        ("offset_model = per_atom", "offset_eta_per_atom = (empty): "),
        ("tau = 012", "tau = 012: "),
    ],
)
def test_owned_rule_errors_show_the_given_value(line, shown):
    with pytest.raises(ConfigError) as info:
        parse_config(line + "\n")
    assert str(info.value).startswith(shown)


@pytest.mark.parametrize(
    "key, value, owners",
    [
        ("tau", "012", [MarkedState]),
        ("omega1c_khz", 0.0, [lambda w: CavityParams.designed(2.0 * math.pi * w * 1e3, 0.0)]),
        ("k_max", 0, [lambda k: run_search("000", k, [TEXTBOOK])]),
    ],
)
def test_owner_rules_have_one_message(key, value, owners):
    # Each rule is written once, by the owner of the value; the config only
    # names the key in front of the owner's message.
    with pytest.raises(ConfigError) as config_error:
        parse_config(f"{key} = {value}\n")
    for owner in owners:
        with pytest.raises(ConfigError) as owner_error:
            owner(value)
        assert str(config_error.value) == f"{key} = {value}: {owner_error.value}"
