import contextlib
import dataclasses
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_grover import (
    CavityParams,
    ConfigError,
    ExperimentConfig,
    NumericalError,
    build_effective_hamiltonian,
    decayed_i000,
    evolve,
    extract_gate,
    offset_couplings,
    parse_config,
    positions_for_ratio,
    run_experiment,
    serialize_config,
    timing_oracle_dense,
    write_csv,
)
from cavity_grover import cli, dynamics, experiments, grover, imperfections
from cavity_grover.dynamics import decay_shifted_frequency
from cavity_grover.experiments import _value_text
from cavity_grover.gates import TEXTBOOK, marked_gate, marked_index
from cavity_grover.grover import MAX_GRID_POINTS, run_search
from cavity_grover.tables import Axis, _checked_axes
from reference import coupling_at_position, phase_gate_success, rows, unit

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


def test_marked_state_changes_no_byte_of_search(tmp_path, capsys):
    # The marked state only relabels the search: every tau writes the same
    # CSV bytes, and the summaries differ only in the line that names it.
    ratios = ",".join(repr(0.02 * i) for i in range(25))
    csvs, summaries = set(), set()
    for tau in (format(v, "03b") for v in range(8)):
        config, out = tmp_path / f"{tau}.cfg", tmp_path / f"{tau}.csv"
        config.write_text(f"tau = {tau}\nkappa_ratios = {ratios}\nk_max = 32\n", encoding="utf-8")
        assert cli.main(["search", "--config", str(config), "--out", str(out), "--summary"]) == 0
        first, rest = capsys.readouterr().out.split("\n", 1)
        assert first.startswith(f"marked state |{tau}⟩; ")
        csvs.add(out.read_bytes())
        summaries.add(first.replace(tau, "τ", 1) + "\n" + rest)
    assert len(csvs) == 1 and len(summaries) == 1


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


@pytest.mark.parametrize(
    "line",
    [
        "offset_eta_per_atom = 0.1,,0.2,0.3",
        "kappa_ratios = 0,,0.1",
        "chi_list = 1, ,2",
        "kappa_ratios = 0,0.1,",
    ],
)
def test_blank_list_item_is_a_bad_value(line):
    # Every item of a list value is read: a blank one is an error, never dropped.
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"^config line 2: bad value for '{key}': "):
        parse_config("k_max = 4\n" + line + "\n")


def test_empty_list_value_is_empty():
    with pytest.raises(ConfigError, match=r"kappa_ratios = \(empty\): must not be empty"):
        parse_config("kappa_ratios =\n")
    assert parse_config("offset_eta_per_atom =\n").offset_eta_per_atom is None


@pytest.mark.parametrize("value", [0, 1, 2, 3, 11])
@pytest.mark.parametrize("key", ["threads", "photon_cutoff"])
def test_retired_keys_accept_only_one(key, value, default_csvs, tmp_path, capsys):
    # Kept so that existing configs still parse: 1 is the only value, and a
    # config that sets it writes the default bytes.
    config = tmp_path / "retired.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    if value == 1:
        assert getattr(parse_config(f"{key} = 1\n"), key) == 1
    else:
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}\n")
    for name in ("search", "gate"):
        out = tmp_path / f"{name}.csv"
        rc = cli.main([name, "--config", str(config), "--out", str(out)])
        if value == 1:
            assert rc == 0 and out.read_bytes() == default_csvs[name]
        else:
            assert rc == 1
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
    # The rule that reads the value refuses it, in the "key = value: reason"
    # form; a decay-ratio list names its bad entry, the per-atom triple itself.
    key, _, value = (part.strip() for part in line.partition("="))
    if key == "kappa_ratios":
        value = value.split(",")[-1]
    with pytest.raises(ConfigError, match=f"^{key} = {re.escape(value)}: "):
        parse_config(line + "\n")


# Owner-checked rules, one bad line each; the config checks them at load time
# by building the objects the experiments use.
_OWNED_RULE_LINES = (
    "kappa_ratios = 0,4",
    "offset_kappa_ratio = 4",
    # Below 4, but the envelope exp(-kappa*T/4) underflows: the gate is damped out.
    "kappa_ratios = 0,3.999999",
    "offset_kappa_ratio = 3.999999",
    "chi_list = 1,5",
    "eta_max = 1",
    "delta_t_max_frac = 1.5",
    "lambda0 = 0",
    # Positive, but the crossing offsets would be subnormal.
    "lambda0 = 1e-310",
    "lambda0 = 1e-322",
    "omega1c_khz = 0",
) + tuple(
    # Each float key, NaN and +-inf: no blanket finiteness pass runs first, so
    # the key's own rule refuses it (eta_max = -inf and a later -inf ratio meet
    # the config's sign and order rules first).
    line.format(v=bad)
    for line in (
        "omega1c_khz = {v}",
        "kappa_ratios = 0,{v}",
        "delta_t_max_frac = {v}",
        "eta_max = {v}",
        "offset_eta_per_atom = 0.01,{v},0.0",
        "offset_kappa_ratio = {v}",
        "lambda0 = {v}",
    )
    for bad in ("nan", "inf", "-inf")
)


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
@pytest.mark.parametrize("line", _OWNED_RULE_LINES)
def test_owned_rules_fail_at_load_time(line, experiment, tmp_path, capsys):
    # Every experiment fails, even one that never reads the value.
    key = line.split("=")[0].strip()
    config, out = tmp_path / "bad.cfg", tmp_path / f"{experiment}.csv"
    config.write_text(line + "\n", encoding="utf-8")
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"sim: config error: {key} = ")
    assert not out.exists()


_PATH_RULE = "must be a path with no '#', line break, or whitespace at either end"
_SIZE_RULE = f"must be an integer in 1..{MAX_GRID_POINTS}"

# The config's own rules and the grid-size rule, each as (key, value, config
# text or None where the flat format cannot express the value, error). A
# non-integer size is refused at load, not met as a TypeError in a run.
_CONFIG_RULE_CASES = [
    ("kappa_ratios", (), "kappa_ratios =", "kappa_ratios = (empty): must not be empty"),
    ("chi_list", (), "chi_list =", "chi_list = (empty): must not be empty"),
    (
        "kappa_ratios", (0.0, 0.2, 0.1), "kappa_ratios = 0,0.2,0.1",
        "kappa_ratios = 0.0,0.2,0.1: must be strictly increasing, got 0.1 after 0.2",
    ),
    (
        "chi_list", (1, 3, 3), "chi_list = 1,3,3",
        "chi_list = 1,3,3: must be strictly increasing, got 3 after 3",
    ),
    ("threads", 2, "threads = 2", "threads = 2: retired, its only value is 1"),
    ("photon_cutoff", 0, "photon_cutoff = 0", "photon_cutoff = 0: retired, its only value is 1"),
    ("eta_max", -0.1, "eta_max = -0.1", "eta_max = -0.1: must be >= 0"),
    (
        "delta_t_max_frac", 0.0, "delta_t_max_frac = 0",
        "delta_t_max_frac = 0.0: must be > 0 for a 50-point grid",
    ),
    ("eta_max", 0.0, "eta_max = 0.0", "eta_max = 0.0: must be > 0 for a 50-point grid"),
    ("eta_points", 0, "eta_points = 0", f"eta_points = 0: eta_points {_SIZE_RULE}, got 0"),
    ("eta_points", 5.0, None, f"eta_points = 5.0: eta_points {_SIZE_RULE}, got 5.0"),
    ("delta_t_points", 5.0, None, f"delta_t_points = 5.0: delta_t_points {_SIZE_RULE}, got 5.0"),
    ("k_max", 4.0, None, f"k_max = 4.0: k_max {_SIZE_RULE}, got 4.0"),
    ("output", "a#b.csv", None, f"output = a#b.csv: {_PATH_RULE}"),
    ("output", " x.csv", None, f"output =  x.csv: {_PATH_RULE}"),
    ("output", "a\nb.csv", None, f"output = a\nb.csv: {_PATH_RULE}"),
    ("output", "", None, f"output = (empty): {_PATH_RULE}"),
]


@pytest.mark.parametrize(
    "key, value, text, message", _CONFIG_RULE_CASES, ids=[f"{k}={v!r}" for k, v, *_ in _CONFIG_RULE_CASES]
)
def test_config_rules_word_errors_key_equals_value(
    key, value, text, message, monkeypatch, tmp_path, capsys
):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**{key: value})
    assert str(info.value) == message
    if text is not None:
        with pytest.raises(ConfigError) as info:
            parse_config(text + "\n")
        assert str(info.value) == message
        config = tmp_path / "bad.cfg"
        config.write_text(text + "\n", encoding="utf-8")
        argv = ["--config", str(config)]
    else:
        monkeypatch.setattr(cli, "load_config", lambda path: ExperimentConfig(**{key: value}))
        argv = []
    out = tmp_path / "search.csv"
    assert cli.main(["search", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"sim: config error: {message}\n"
    assert not out.exists()
    if key == "k_max":  # the library call names its argument as the config does
        with pytest.raises(ConfigError) as info:
            run_search(value, [TEXTBOOK])
        assert f"k_max = {value}: {info.value}" == message


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(output=st.text(st.sampled_from("ab. /#\n\r\t\x0b\x1c\x85\u2028")))
@example(output="a#b.csv")
@example(output=" x.csv")
@example(output="a\nb.csv")
@example(output="out dir/run 1.csv")
def test_an_accepted_output_round_trips(output):
    # Every output that loads reads back from the flat format as itself.
    try:
        config = ExperimentConfig(output=output)
    except ConfigError as exc:
        assert str(exc).startswith("output = ")
    else:
        assert parse_config(serialize_config(config)) == config


_P = CavityParams.designed(1.0, 0.1)

# The guards on float inputs, each as a call of one float: the library's,
# and those of the two formulas the test reference keeps.
_GUARDED_CALLS = {
    "CavityParams omega": lambda x: CavityParams((1.0, x, 3.0)),
    "CavityParams kappa": lambda x: CavityParams((1.0, 2.0, 3.0), kappa=x),
    "CavityParams.designed": lambda x: CavityParams.designed(x),
    "offset_couplings eta": lambda x: offset_couplings([x]),
    "offset_couplings per-atom eta": lambda x: offset_couplings([0.0], "per_atom", (0.0, x, 0.0)),
    "decayed_i000 kappa": decayed_i000,
    "positions_for_ratio": positions_for_ratio,
    "coupling_at_position": lambda x: coupling_at_position(0.0, 1.0, x),
    "decay_shifted_frequency omega": lambda x: decay_shifted_frequency(x, 0.0),
    "decay_shifted_frequency kappa": lambda x: decay_shifted_frequency(1.0, x),
    "evolve": lambda x: evolve(build_effective_hamiltonian(_P), x, unit(0)),
    "extract_gate": lambda x: extract_gate([_P], [x]),
    "marked_gate": lambda x: marked_gate("000", np.full((8, 8), x)),
    "phase_gate_success": lambda x: phase_gate_success([x] + [1.0] * 7, decayed_i000(0.1)),
    "timing_oracle_dense": lambda x: timing_oracle_dense(_P, x),
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
    assert table[0] == ("iteration", "kappa_ratio", "p_find", "survival", "fidelity")
    assert len(rows(table)) == 24  # three kappa ratios x eight iterations
    by_key = {(row[0], row[1]): row for row in rows(table)}
    p2 = by_key[(2, 0.0)][2]
    assert p2 == pytest.approx(0.9453, abs=1e-3)
    assert "best p_find" in table[2]


def test_gate_table_reports_residual_entry():
    table = run_experiment("gate", ExperimentConfig(kappa_ratios=(0.0, 0.1)))
    assert len(rows(table)) == 16
    assert "0.999707" in table[2]
    lossless_rows = [row for row in rows(table) if row[0] == 0.0]
    assert lossless_rows[0][2] == -1.0  # analytic |000> entry


def test_timing_table_zero_delay_rows():
    config = ExperimentConfig(kappa_ratios=(0.02, 0.1), **FAST)
    table = run_experiment("timing", config)
    assert table[0] == (
        "kappa_ratio",
        "delta_t_frac",
        "infidelity_formula",
        "infidelity_oracle",
    )
    zero_rows = [row for row in rows(table) if row[1] == 0.0]
    assert len(zero_rows) == 2
    for _, _, formula, oracle in zero_rows:
        assert formula == pytest.approx(oracle, abs=1e-4)
    strong = next(row for row in zero_rows if row[0] == 0.1)
    assert strong[2] == pytest.approx(6.3e-4, abs=1e-4)


def test_offset_table_baseline_column():
    config = ExperimentConfig(**FAST)
    table = run_experiment("offset", config)
    assert len(rows(table)) == 20  # four chi values x five etas
    zero_eta = [row for row in rows(table) if row[0] == 0.0]
    values = {row[3] for row in zero_eta}
    assert len(zero_eta) == 4
    assert max(values) - min(values) <= 1e-12


def test_geometry_table():
    table = run_experiment("geometry", ExperimentConfig())
    assert len(rows(table)) == 1
    z1, z2, z3, ratio = rows(table)[0]
    assert z3 == 0.0
    assert ratio == pytest.approx(1.957, abs=1e-3)
    assert ratio == pytest.approx(abs(z1) / abs(z2), rel=1e-12)


def _accepts_khz(khz: float) -> bool:
    try:
        ExperimentConfig(omega1c_khz=khz)
    except ConfigError:
        return False
    return True


def _last_accepted_khz(accepted: float, rejected: float) -> float:
    # Positive floats order as their bit patterns: bisect over those.
    a, r = (int(np.float64(x).view(np.int64)) for x in (accepted, rejected))
    while abs(a - r) > 1:
        mid = (a + r) // 2
        if _accepts_khz(float(np.int64(mid).view(np.float64))):
            a = mid
        else:
            r = mid
    return float(np.int64(a).view(np.float64))


@pytest.fixture(scope="module")
def khz_range():
    """The smallest and the largest accepted omega1c_khz."""
    return (_last_accepted_khz(6.125, 5e-324), _last_accepted_khz(6.125, sys.float_info.max))


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_outputs_do_not_depend_on_the_frequency_unit(experiment, khz_range):
    # Every CSV value depends on kappa/omega1 and the coupling ratios alone,
    # and the experiments compute in units of omega1: across the accepted
    # range of omega1c_khz every column keeps the default run's bits, and
    # only the summary's iteration time, 2*pi/omega1, moves.
    reference = run_experiment(experiment, ExperimentConfig())
    expected_lines = reference[2].splitlines()
    lowest, highest = khz_range
    for khz in (lowest, 1e-100, 1e-3, 1e6, 1e100, highest):
        table = run_experiment(experiment, ExperimentConfig(omega1c_khz=khz))
        assert table[0] == reference[0]
        axes, expected_axes = (_checked_axes(*t[:2]) for t in (table, reference))
        assert len(axes) == len(expected_axes)
        for axis, expected in zip(axes, expected_axes):
            assert np.array_equal(axis.values, expected.values)
            assert axis[1:] == expected[1:]  # repeat, tile
        lines = table[2].splitlines()
        assert len(lines) == len(expected_lines)
        for line, expected in zip(lines, expected_lines):
            if not line.startswith("iteration time"):
                assert line == expected


def test_frequency_unit_rule_at_its_edges(khz_range, tmp_path, capsys):
    # Accepted values give a finite iteration time; rejected ones, the two
    # floats beyond the edges among them, exit 1 naming the key.
    lowest, highest = khz_range
    assert lowest < 1e-160 and highest > 1e148
    for khz in (lowest, 1e-100, 6.125, 1e100, highest):
        assert 0.0 < ExperimentConfig(omega1c_khz=khz).iteration_us() < math.inf
    beyond = (np.nextafter(lowest, 0.0), np.nextafter(highest, math.inf))
    for khz in (0.0, -1.0, 5e-324, 1e-300, *beyond, 1e300, sys.float_info.max):
        config, out = tmp_path / "bad.cfg", tmp_path / "search.csv"
        config.write_text(f"omega1c_khz = {float(khz)!r}\n", encoding="utf-8")
        assert cli.main(["search", "--config", str(config), "--out", str(out)]) == 1
        shown = f"sim: config error: omega1c_khz = {float(khz)!r}: "
        assert capsys.readouterr().err.startswith(shown)
        assert not out.exists()


# The smallest accepted wavelength: it puts z2 on the smallest normal float.
_LAMBDA0_MIN = 1.89321841298815e-307


def test_wavelength_rule_at_its_edge(tmp_path, capsys):
    # The smallest accepted lambda0 writes normal offsets; the float below
    # it, whose z2 would be subnormal, exits 1 naming the key.
    z1, z2, _ = positions_for_ratio(_LAMBDA0_MIN)
    assert z1 > z2 == sys.float_info.min
    config, out = tmp_path / "run.cfg", tmp_path / "geometry.csv"
    config.write_text(f"lambda0 = {_LAMBDA0_MIN!r}\n", encoding="utf-8")
    assert cli.main(["geometry", "--config", str(config), "--out", str(out)]) == 0
    offsets = [float(v) for v in out.read_text().splitlines()[1].split(",")[:2]]
    assert offsets == [z1, z2]
    out.unlink()
    below = float(np.nextafter(_LAMBDA0_MIN, 0.0))
    config.write_text(f"lambda0 = {below!r}\n", encoding="utf-8")
    assert cli.main(["geometry", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"sim: config error: lambda0 = {below!r}: ")
    assert not out.exists()


# Every key across its domain, edges included. A draw takes each key from
# its accepted values but at most one, which it draws from anywhere, edges
# on both sides of its rule included, so that about half the configs load.
def _floats(low, high, *edges):
    return st.one_of(st.sampled_from(edges), st.floats(low, high))


def _increasing(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(sorted).map(tuple)


_DECAY = _floats(0.0, 3.99, 0.0, 0.1, 3.99)
_ETA = _floats(-0.9999999, 0.9999999, 0.0, -0.9999999, 0.9999999)
_CONFIG_DRAWS = {  # key: (accepted values, any values)
    "omega1c_khz": (
        _floats(1e-165, 1e150, 1e-165, 6.125, 1e150),
        _floats(-1e300, 1e300, 0.0, 5e-324, 1e-300, 1e-167, 1e152, 1e300, sys.float_info.max),
    ),
    "kappa_ratios": (
        _increasing(_DECAY, 3),
        st.lists(_floats(-0.1, 4.5, -0.1, 3.999999, 3.9999999, 4.0), max_size=3).map(tuple),
    ),
    "k_max": (st.integers(1, 12), st.integers(-1, 12)),
    "tau": (
        st.sampled_from([format(v, "03b") for v in range(8)]),
        st.sampled_from(["012", "00", "1111", "abc"]),
    ),
    "delta_t_max_frac": (
        _floats(0.0, 1.0, 5e-324, 0.1, 1.0).filter(bool),
        _floats(-0.1, 1.5, 0.0, -5e-324, float(np.nextafter(1.0, 2.0)), 1.0000001),
    ),
    "delta_t_points": (st.integers(1, 6), st.integers(-1, 6)),
    "eta_max": (
        _floats(0.0, 0.9999999, 5e-324, 0.1, 0.9999999).filter(bool),
        _floats(-0.1, 1.2, 0.0, 1.0),
    ),
    "eta_points": (st.integers(1, 6), st.integers(-1, 6)),
    "chi_list": (
        _increasing(st.integers(1, 4), 4),
        st.lists(st.integers(0, 5), max_size=4).map(tuple),
    ),
    "offset_model": (
        st.sampled_from(("atom1", "uniform", "per_atom")),
        st.sampled_from(("both", "")),
    ),
    "offset_eta_per_atom": (
        st.tuples(_ETA, _ETA, _ETA),
        st.none() | st.tuples(*[_floats(-1.2, 1.2, -1.0, 1.0)] * 3),
    ),
    "offset_kappa_ratio": (_DECAY, _floats(-0.1, 4.5, -0.1, 3.999999, 4.0)),
    "lambda0": (
        _floats(_LAMBDA0_MIN, 1e300, _LAMBDA0_MIN, 1.0, sys.float_info.max),
        _floats(-1.0, 0.0, -5e-324, 0.0, 5e-324, 1e-310, np.nextafter(_LAMBDA0_MIN, 0.0)),
    ),
}


@st.composite
def _config_values(draw):
    spoiled = draw(st.none() | st.sampled_from(sorted(_CONFIG_DRAWS)))
    return {
        key: draw(any_value if key == spoiled else accepted)
        for key, (accepted, any_value) in _CONFIG_DRAWS.items()
    }


def _config_text(values: dict) -> str:
    return "".join(f"{key} = {_value_text(value)}\n" for key, value in values.items())


_DEFAULT_VALUES = {key: getattr(ExperimentConfig(), key) for key in _CONFIG_DRAWS}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(values=_config_values(), experiment=st.sampled_from(experiments.EXPERIMENTS))
@example(values={**_DEFAULT_VALUES, "omega1c_khz": 1e-167}, experiment="search")
@example(values={**_DEFAULT_VALUES, "omega1c_khz": 1e150}, experiment="timing")
@example(values={**_DEFAULT_VALUES, "lambda0": 5e-324}, experiment="geometry")
def test_a_config_runs_every_experiment_or_is_rejected(values, experiment):
    # Loading either rejects a config or accepts one on which every
    # experiment gives a finite table; the CLI says which, in one sim: line.
    text = _config_text(values)
    try:
        config = parse_config(text)
    except ConfigError:
        config = None
    else:
        for name in experiments.EXPERIMENTS:
            for axis in _checked_axes(*run_experiment(name, config)[:2]):
                assert np.isfinite(np.asarray(axis.values, dtype=float)).all()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "run.cfg"), Path(tmp, "out.csv")
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([experiment, "--config", str(path), "--out", str(out)])
        assert out.exists() == (rc == 0)
    assert rc == (1 if config is None else 0)
    assert err.getvalue().startswith("sim: config error: ") if rc else not err.getvalue()


@pytest.fixture(scope="module")
def default_csvs():
    with tempfile.TemporaryDirectory() as tmp:
        for name in experiments.EXPERIMENTS:
            assert cli.main([name, "--out", str(Path(tmp, name))]) == 0
        return {name: Path(tmp, name).read_bytes() for name in experiments.EXPERIMENTS}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(khz=st.one_of(*_CONFIG_DRAWS["omega1c_khz"]))
@example(khz=1e-167)
@example(khz=1e-165)
@example(khz=1e150)
@example(khz=1e-100)
@example(khz=1e100)
@example(khz=0.0)
def test_a_config_that_sets_only_the_frequency_unit_writes_the_default_bytes(khz, default_csvs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "run.cfg")
        path.write_text(f"omega1c_khz = {khz!r}\n", encoding="utf-8")
        for name in experiments.EXPERIMENTS:
            out, err = Path(tmp, name), io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([name, "--config", str(path), "--out", str(out)])
            if rc:
                assert rc == 1 and err.getvalue().startswith("sim: config error: omega1c_khz = ")
                assert not out.exists()
            else:
                assert out.read_bytes() == default_csvs[name]


# --- CSV emission -----------------------------------------------------------


def _row_wise_csv(header, rows) -> str:
    # The CSV text as the row-wise writer produced it, one str per value:
    # the reference for the column formatter.
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (0.0, -0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, -2.5, 0.1)


@st.composite
def _values(draw, length):
    # A column's values, drawn from a pool of its own: a small pool repeats
    # values heavily, a pool as long as the column hardly at all. A seeded
    # generator fills a column of 256 values or more from its pool and tops
    # a long pool up with random 64-bit patterns, so hypothesis draws a
    # seed, not hundreds of values. Those float pools hold every edge value,
    # -0.0 beside 0.0.
    integers = draw(st.booleans())
    if integers:
        values = st.integers(-(2**63), 2**63 - 1)
    else:
        values = st.one_of(
            st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
        )
    if length < 256:
        pool = draw(st.lists(values, min_size=1, max_size=max(length, 1)))
        return draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(values, min_size=1, max_size=8))
    if not integers:
        pool.extend(_EDGE_FLOATS)
    bits = rng.integers(-(2**63), 2**63, draw(st.sampled_from((0, length // 4, 2 * length))))
    extra = bits if integers else bits.view(np.float64)
    pool.extend(extra[np.isfinite(extra)].tolist())
    return [pool[i] for i in rng.integers(0, len(pool), length)]


@st.composite
def _columns(draw):
    # Tables of up to 40 rows or of 256 to 512. Each column is plain or an
    # axis whose repeat and tile (1 to 5, dividing the length) spread its
    # values to every row; each comes as (the column given, its rows).
    length = draw(st.one_of(st.integers(0, 40), st.integers(256, 512)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if not draw(st.booleans()):
            values = draw(_values(length))
            columns.append((values, values))
            continue
        repeat = draw(st.sampled_from([d for d in range(1, 6) if length % d == 0]))
        tile = draw(st.sampled_from([d for d in range(1, 6) if length // repeat % d == 0]))
        values = draw(_values(length // (repeat * tile)))
        rows = [value for value in values for _ in range(repeat)] * tile
        columns.append((Axis(values, repeat, tile), rows))
    return columns


# About half the examples are long tables, and about half the columns axes.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(columns=_columns())
def test_column_writer_matches_row_wise_writer(columns, tmp_path_factory):
    header = tuple(f"c{i}" for i in range(len(columns)))
    expected = list(zip(*(column_rows for _, column_rows in columns)))
    table = (header, [given for given, _ in columns], "")
    assert rows(table) == tuple(expected)
    path = tmp_path_factory.getbasetemp() / "property.csv"
    write_csv(table, str(path))
    assert path.read_bytes() == _row_wise_csv(header, expected).encode("utf-8")


@pytest.mark.parametrize(
    "values, repeat, tile",
    [([0.5, -0.0, 2.0], 1, 1), ([1, 2, 3], 4, 1), ((0.1, 0.2), 1, 3), (range(5), 2, 3), ([], 3, 2)],
)
def test_axis_columns_expand_by_repeat_then_tile(values, repeat, tile, tmp_path):
    # The table rule keeps the axis as given, its values normalized to int64
    # or float64, and the CSV spreads them by repeat, then tile.
    length = len(values) * repeat * tile
    columns = (Axis(values, repeat, tile), [0.0] * length)
    table = (("axis", "plain"), columns, "")
    given = np.asarray(values)
    (axis, _) = _checked_axes(*table[:2])
    assert axis.values.dtype == (np.int64 if given.dtype.kind == "i" else np.float64)
    assert axis.values.tobytes() == given.astype(axis.values.dtype).tobytes()
    assert axis[1:] == (repeat, tile)
    expected = np.tile(np.repeat(given, repeat), tile).astype(axis.values.dtype)
    path = tmp_path / "axis.csv"
    write_csv(table, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == list(map(repr, expected.tolist()))


_OLD_BYTES = b"old,csv\n1.0,2.0\n"


def _assert_refused(table, tmp_path, error, match=None):
    # write_csv checks the table before it opens the path: a refused table
    # raises and leaves a file already there with its bytes.
    path = tmp_path / "kept.csv"
    path.write_bytes(_OLD_BYTES)
    with pytest.raises(error, match=match):
        write_csv(table, str(path))
    assert path.read_bytes() == _OLD_BYTES


@pytest.mark.parametrize(
    "axis",
    [
        Axis([[1.0, 2.0]]), Axis(1.0), Axis([1.0], repeat=0), Axis([1.0], tile=0), Axis([1.0], -1, 2),
        Axis([1.0, 2.0], repeat=1.5), Axis([1.0, 2.0], tile=2.0), Axis([1.0], repeat="2"),
    ],
)
def test_malformed_axis_rejected(axis, tmp_path):
    _assert_refused((("a",), (axis,), ""), tmp_path, ConfigError)


def test_axis_of_the_wrong_length_rejected(tmp_path):
    table = (("a", "b"), (Axis([1.0, 2.0], repeat=2), [1.0, 2.0, 3.0]), "")
    _assert_refused(table, tmp_path, ConfigError, match="unequal lengths")


def test_csv_empty_table_is_header_only(tmp_path):
    table = (("a", "b"), ([], []), "empty")
    path = tmp_path / "empty.csv"
    write_csv(table, str(path))
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_csv_bytes_are_reproducible(tmp_path):
    config = ExperimentConfig(kappa_ratios=(0.0, 0.1), k_max=4)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment("search", config), str(first))
    write_csv(run_experiment("search", config), str(second))
    assert first.read_bytes() == second.read_bytes()


_FAST_TEXT = "delta_t_points = 5\neta_points = 5\n"

# Each case: the (experiment, config text) run first, and the one run over
# its CSV. A shorter table over a longer file drops the old tail; a longer
# one over a shorter file extends it. Each default run goes over an offset
# CSV on a finer grid, longer than every default CSV.
_REWRITES = {
    "offset-geometry": (("offset", _FAST_TEXT), ("geometry", _FAST_TEXT)),
    "geometry-offset": (("geometry", _FAST_TEXT), ("offset", _FAST_TEXT)),
    **{
        f"finer-offset-{name}": (("offset", "eta_points = 200\n"), (name, ""))
        for name in experiments.EXPERIMENTS
    },
}


@pytest.mark.parametrize("case", list(_REWRITES))
def test_csv_rewrite_over_another_csv_gives_the_fresh_bytes(case, tmp_path):
    def sim(experiment, text, out):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 0
        return out.read_bytes()

    (old, old_text), (new, new_text) = _REWRITES[case]
    path = tmp_path / "out.csv"
    before = sim(old, old_text, path)
    fresh = sim(new, new_text, tmp_path / "fresh.csv")
    if case.startswith("finer-offset-"):
        assert len(before) > len(fresh)
    assert sim(new, new_text, path) == fresh


def test_csv_identical_rerun_keeps_the_bytes(tmp_path):
    table = run_experiment("search", ExperimentConfig(kappa_ratios=(0.0, 0.1), k_max=4))
    path = tmp_path / "search.csv"
    write_csv(table, str(path))
    first = path.read_bytes()
    write_csv(table, str(path))
    assert path.read_bytes() == first


def test_csv_to_the_null_device():
    if not stat.S_ISCHR(os.stat(os.devnull).st_mode):
        pytest.skip(f"{os.devnull} is not a character device here")
    assert cli.main(["geometry", "--out", os.devnull]) == 0


def test_cli_writes_csv_to_stdout_as_a_pipe(default_csvs):
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout here")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "cavity_grover.cli", "geometry", "--out", "/dev/stdout"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,  # stdout is a pipe
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == default_csvs["geometry"]


def test_cli_writes_a_csv_larger_than_a_pipe_buffer_to_stdout(tmp_path):
    # About 100 KB of offset rows, more than a 64 KiB pipe buffer: the
    # pipe gets the bytes the same run writes to a file.
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout here")
    config, out = tmp_path / "big.cfg", tmp_path / "offset.csv"
    config.write_text("eta_points = 2000\n", encoding="utf-8")
    args = [sys.executable, "-m", "cavity_grover.cli", "offset", "--config", str(config), "--out"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert subprocess.run([*args, str(out)], env=env).returncode == 0
    piped = subprocess.run([*args, "/dev/stdout"], env=env, capture_output=True)
    assert piped.returncode == 0, piped.stderr.decode()
    assert len(piped.stdout) > 65536
    assert piped.stdout == out.read_bytes()


def test_csv_write_sends_what_a_short_write_left(tmp_path, monkeypatch):
    # A descriptor that takes at most 4 KiB per os.write still gets every
    # byte, in order, and a longer old file is cut to the new length.
    table = run_experiment("offset", ExperimentConfig(eta_points=400))
    path = tmp_path / "offset.csv"
    write_csv(table, str(path))
    expected = path.read_bytes()
    path.write_bytes(b"x" * (2 * len(expected)))
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, data[:4096]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    write_csv(table, str(path))
    monkeypatch.undo()
    assert len(sizes) == -(-len(expected) // 4096) > 1
    assert path.read_bytes() == expected


def test_csv_write_error_carries_path(tmp_path):
    table = run_experiment("geometry", ExperimentConfig())
    missing_dir = tmp_path / "no" / "such" / "dir.csv"
    with pytest.raises(OSError, match=r"cannot write CSV to .*dir\.csv"):
        write_csv(table, str(missing_dir))


def test_row_width_validated(tmp_path):
    # One column for a two-field header.
    _assert_refused((("a", "b"), ([1.0],), ""), tmp_path, ConfigError)


def test_unequal_column_lengths_rejected(tmp_path):
    _assert_refused((("a", "b"), ([1.0, 3.0], [2.0]), ""), tmp_path, ConfigError)


# Each case: the two columns for a bad value, and the row the error names.
# An axis value is checked on every row it spreads to: the first is named.
_NON_FINITE_ROWS = {
    "plain": (lambda bad: ([1.0, 3], [2.0, bad]), "(3.0, {bad})"),
    "repeated": (lambda bad: ([1.0, 3.0, 5.0, 7.0], Axis([2.0, bad], repeat=2)), "(5.0, {bad})"),
    "tiled beside repeated": (
        lambda bad: (Axis([1.0, 2.0], tile=3), Axis([0.5, bad, 1.0], repeat=2)),
        "(1.0, {bad})",
    ),
    # Row 1 holds the second column's bad value, row 4 the first's.
    "two bad axes": (
        lambda bad: (Axis([1.0, 2.0, bad], repeat=2), Axis([3.0, bad], tile=3)),
        "(1.0, {bad})",
    ),
    "int axis": (
        lambda bad: (Axis([1, 2, 3], repeat=2), [0.5, 0.25, 0.125, bad, 1.0, 2.0]),
        "(2, {bad})",
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_row_rejected(bad, tmp_path):
    for columns, row in _NON_FINITE_ROWS.values():
        message = f"table holds a non-finite row {row.format(bad=bad)}"
        table = (("a", "b"), columns(bad), "")
        _assert_refused(table, tmp_path, NumericalError, match=f"^{re.escape(message)}$")


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


def test_cli_reads_a_config_file_that_starts_with_a_byte_order_mark(tmp_path):
    # Editors on some systems save UTF-8 with a BOM; it is not part of the first key.
    text = "kappa_ratios = 0.1\ndelta_t_points = 4\n"
    csvs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        config.write_bytes(data)
        assert cli.main(["timing", "--config", str(config), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def _non_finite_data_row(csv_text: str) -> bool:
    # nan or inf in any case, as grep -Ei would find it. The header is
    # skipped, since the infidelity_formula column's name contains "inf".
    data = csv_text.partition("\n")[2].lower()
    return "nan" in data or "inf" in data


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_cli_at_the_accepted_decay_edge_writes_finite_rows(experiment, tmp_path):
    # kappa_ratios and offset_kappa_ratio at 3.99, just inside the 4*omega1
    # bound: each run exits 0 and no data row holds nan or inf.
    config, out = tmp_path / "edge.cfg", tmp_path / f"{experiment}.csv"
    config.write_text("kappa_ratios = 3.99\noffset_kappa_ratio = 3.99\n", encoding="utf-8")
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]) == 0
    assert not _non_finite_data_row(out.read_text(encoding="utf-8"))


def test_cli_largest_offset_grid_writes_finite_rows(tmp_path):
    # eta_points = 100000 (the cap) at four chi values: 400,000 rows through
    # the axis path, each axis checked for finiteness on its own values. The
    # run exits 0 with a header and 400,000 data rows, none holding nan or inf.
    config, out = tmp_path / "big-offset.cfg", tmp_path / "big-offset.csv"
    config.write_text("eta_points = 100000\nchi_list = 1,2,3,4\n", encoding="utf-8")
    assert cli.main(["offset", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("\n") == 400_001
    assert not _non_finite_data_row(text)


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
    assert "sim: config error: eta_max = nan: " in capsys.readouterr().err
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
        return ("z1", "ratio"), ([0.1], [math.nan]), ""

    monkeypatch.setitem(experiments._RUNNERS, "geometry", nan_geometry)
    out = tmp_path / "geometry.csv"
    rc = cli.main(["geometry", "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
    out.write_bytes(_OLD_BYTES)  # an existing file keeps its bytes
    assert cli.main(["geometry", "--out", str(out)]) == 2
    assert out.read_bytes() == _OLD_BYTES


@pytest.mark.parametrize(
    "args, message",
    [
        (["search", "--bogus"], "sim: usage error: unrecognized arguments: --bogus"),
        (["nosuch"], "sim: usage error: argument experiment: invalid choice: 'nosuch'"),
        (["search", "--threads", "abc"], "sim: usage error: unrecognized arguments: --threads"),
        (["search", "--threads", "1"], "sim: usage error: unrecognized arguments: --threads"),
        (["search", "--config", "{undecodable}"], "sim: config error: cannot read config file"),
        (["geometry", "--out", ""], "sim: usage error: argument --out: expected a path, got ''"),
    ],
    ids=[
        "unknown-option", "unknown-experiment", "threads-abc", "threads-1", "undecodable-config",
        "empty-out",
    ],
)
def test_cli_configuration_problems_exit_1(args, message, tmp_path, monkeypatch, capsys):
    # Usage errors exit 1 like any other configuration problem; 2 is the
    # numerical-failure code. A file that is not UTF-8 cannot be read. An
    # empty --out is not unset: it writes no default-named file here.
    monkeypatch.chdir(tmp_path)
    undecodable, out = tmp_path / "latin1.cfg", tmp_path / "search.csv"
    undecodable.write_bytes(b"k_max = 4\n\xff\n")
    argv = [arg.format(undecodable=undecodable) for arg in args]
    if "--out" not in args:
        argv += ["--out", str(out)]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [undecodable.name]
    assert not out.exists()


@pytest.mark.parametrize(
    "config_line, out_name, message",
    [
        ("", "missing/search.csv", "sim: cannot write CSV to "),
        ("k_max 4", "search.csv", "sim: config error: config line 1: expected 'key = value'"),
        ("eta_max = -0.1", "search.csv", "sim: config error: eta_max = -0.1: must be >= 0"),
    ],
    ids=["missing-out-directory", "line-without-equals", "negative-grid-end"],
)
def test_cli_documented_errors_exit_1(config_line, out_name, message, tmp_path, capsys):
    config, out = tmp_path / "run.cfg", tmp_path / out_name
    config.write_text(config_line + "\n", encoding="utf-8")
    assert cli.main(["search", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_cli_help_exits_0(capsys):
    assert cli.main(["search", "-h"]) == 0
    assert "--config" in capsys.readouterr().out


# Where NaN enters each stacked run: the function that builds the gate's
# generators, the exact columns the timing oracle propagates, and the
# diagonals the search iterates.
_SPOILED_FUNCTIONS = {
    "gate": (dynamics, "build_effective_hamiltonian"),
    "timing": (imperfections, "exact_columns"),
    "search": (grover, "full_diagonal"),
}


def _run_with_a_ratio_spoiled(experiment, ratio, tmp_path, monkeypatch, capsys):
    # Three ratios run as one stacked call, and NaN reaches the row of one of
    # them alone through the spoiled function. The run exits 2 and writes no
    # CSV, and that function is entered as often as in a passing run: the
    # failing ratio is found without running anything again.
    module, name = _SPOILED_FUNCTIONS[experiment]
    build, spoiled, calls = getattr(module, name), [], []
    bad_slots = decayed_i000(ratio)

    def counted(arg, *rest):
        calls.append(name)
        out = build(arg, *rest)
        if not spoiled:
            return out
        if experiment == "gate" and arg.kappa == ratio:
            out[0, 1] = np.nan
        elif experiment == "timing":
            out[np.asarray(arg) == ratio] = np.nan
        elif experiment == "search":
            out[(arg == bad_slots).all(axis=-1)] = np.nan
        return out

    monkeypatch.setattr(module, name, counted)
    config_path = tmp_path / "run.cfg"
    config_path.write_text("kappa_ratios = 0.05,0.1,0.2\ndelta_t_points = 5\n", encoding="utf-8")
    args = [experiment, "--config", str(config_path), "--out"]
    assert cli.main(args + [str(tmp_path / "passing.csv")]) == 0
    passing = len(calls)
    spoiled.append(True)
    calls.clear()
    out = tmp_path / f"{experiment}.csv"
    assert cli.main(args + [str(out)]) == 2
    assert not out.exists()
    assert passing > 0 and len(calls) == passing
    return capsys.readouterr().err


def test_cli_timing_grid_failure_names_kappa_ratio(tmp_path, monkeypatch, capsys):
    err = _run_with_a_ratio_spoiled("timing", 0.1, tmp_path, monkeypatch, capsys)
    assert "timing failed at kappa_ratio=0.1: " in err and "non-finite amplitudes" in err


def test_cli_gate_failure_names_kappa_ratio(tmp_path, monkeypatch, capsys):
    err = _run_with_a_ratio_spoiled("gate", 0.1, tmp_path, monkeypatch, capsys)
    assert "gate failed at kappa_ratio=0.1: " in err and "generator has non-finite entries" in err


@pytest.mark.parametrize("ratio", [0.05, 0.1, 0.2], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "experiment, message",
    [
        ("gate", "generator has non-finite entries"),
        ("timing", "evolution produced non-finite amplitudes"),
        ("search", "search point has non-finite fields: (nan, nan, nan)"),
    ],
    ids=["gate", "timing", "search"],
)
def test_cli_failure_names_the_spoiled_ratio(
    experiment, message, ratio, tmp_path, monkeypatch, capsys
):
    # The failing check names its stack row, and the run maps it to its ratio.
    err = _run_with_a_ratio_spoiled(experiment, ratio, tmp_path, monkeypatch, capsys)
    expected = f"sim: numerical failure: {experiment} failed at kappa_ratio={ratio}: {message}\n"
    assert err == expected


def test_a_failure_without_a_row_propagates_unchanged_after_one_call(monkeypatch):
    # A NumericalError that names no stack row reaches the caller as raised,
    # and the stacked call is not made again.
    calls = []

    def rowless_failure(kappa, fracs):
        calls.append(len(kappa))
        raise NumericalError("synthetic stack failure")

    monkeypatch.setattr(experiments, "timing_infidelity", rowless_failure)
    with pytest.raises(NumericalError, match="^synthetic stack failure$") as raised:
        run_experiment("timing", ExperimentConfig(**FAST))
    assert raised.value.row is None and calls == [3]


@pytest.mark.parametrize("experiment", ["gate", "timing"])
def test_kappa_stack_writes_the_one_kappa_rows(experiment, tmp_path):
    # One stacked run over seven ratios writes, byte for byte, the data rows
    # and summary lines of seven one-ratio runs, in order.
    ratios = (0.0, 0.02, 0.1, 0.5, 2.0, 3.9, 3.99)
    tables = [
        run_experiment(experiment, ExperimentConfig(kappa_ratios=r, **FAST))
        for r in [ratios, *((r,) for r in ratios)]
    ]
    for i, table in enumerate(tables):
        write_csv(table, str(tmp_path / f"{i}.csv"))
    csvs = [(tmp_path / f"{i}.csv").read_bytes().splitlines(keepends=True) for i in range(8)]
    summaries = [table[2].splitlines() for table in tables]
    # Both keep their first line (CSV header, shared summary line) once.
    for (stacked, *singles) in (csvs, summaries):
        assert stacked == singles[0][:1] + [line for lines in singles for line in lines[1:]]


def test_each_run_builds_the_gates_it_needs(monkeypatch, tmp_path):
    # The config keeps no gates: gate and search build every decay ratio's
    # gate in one decayed_i000 call (gate's lossless entry, at kappa = 0, is
    # a constant built at import), offset builds its one ratio's gate for
    # the eta = 0 baseline, and timing builds none in experiments. (timing_infidelity
    # and coupling_offset_infidelity build their own diagonals inside
    # imperfections, which this does not cover.)
    config = ExperimentConfig(kappa_ratios=(0.0, 0.02, 0.1, 0.5, 2.0), **FAST)
    runs = {
        "gate": [config.kappa_ratios],
        "search": [config.kappa_ratios],
        "timing": [],
        "offset": [config.offset_kappa_ratio],
    }
    expected = {exp: run_experiment(exp, config) for exp in runs}
    calls = []

    def counted(kappa, *rest):
        calls.append(kappa)
        return decayed_i000(kappa, *rest)

    monkeypatch.setattr(experiments, "decayed_i000", counted)
    for exp, gate_calls in runs.items():
        calls.clear()
        table = run_experiment(exp, config)
        assert calls == gate_calls
        for name, t in (("patched", table), ("expected", expected[exp])):
            write_csv(t, str(tmp_path / f"{exp}-{name}.csv"))
        csvs = [(tmp_path / f"{exp}-{name}.csv").read_bytes() for name in ("patched", "expected")]
        assert csvs[0] == csvs[1]
        assert table[2] == expected[exp][2]


def test_config_holds_only_its_fields():
    config = ExperimentConfig(kappa_ratios=(0.0, 0.1))
    text, digest = serialize_config(config), hash(config)
    wider = dataclasses.replace(config, kappa_ratios=(0.02, 0.5, 2.0), offset_kappa_ratio=0.37)
    moved = dataclasses.replace(config, output="out.csv")
    parsed = parse_config("kappa_ratios = 0.0,0.1\noffset_model = uniform\n")
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for c in (ExperimentConfig(), config, wider, moved, parsed):
        assert set(vars(c)) == names
    # Equality, hash and the config text read the fields alone.
    assert config == ExperimentConfig(kappa_ratios=(0.0, 0.1)) and hash(config) == digest
    assert serialize_config(config) == text
    assert not any(name in text + repr(config) for name in ("array", "CavityParams"))
    assert serialize_config(moved) == text.replace("output = \n", "output = out.csv\n")
    assert parse_config(serialize_config(wider)) == wider


@pytest.mark.parametrize(
    "model, per_atom",
    [("atom1", None), ("uniform", None), ("per_atom", (0.03, -0.02, 0.01))],
    ids=["atom1", "uniform", "per_atom"],
)
def test_an_offset_run_makes_one_grid_call_and_keeps_its_baseline(monkeypatch, model, per_atom):
    # The eta = 0 baseline comes from the kept gate's design factors, not a
    # second coupling_offset_infidelity call, and it is the value that call
    # gave, bit for bit, for every first chi, decay ratio and offset model.
    grid = experiments.coupling_offset_infidelity
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return grid(*args, **kwargs)

    monkeypatch.setattr(experiments, "coupling_offset_infidelity", counted)
    for first in (1, 2, 3, 4):
        for ratio in (0.0, 0.02, 0.1, 0.37, 2.0, 3.5):
            config = ExperimentConfig(
                chi_list=tuple(range(first, 5)), offset_kappa_ratio=ratio,
                offset_model=model, offset_eta_per_atom=per_atom, **FAST,
            )
            calls.clear()
            summary = run_experiment("offset", config)[2].splitlines()
            assert len(calls) == 1
            old = grid(ratio, config.chi_list[:1], [0.0])[0, 0]
            assert summary[1] == f"eta=0 decay-only baseline: {old:.4e}"
            base = decayed_i000(ratio)
            assert imperfections._four_gate_infidelities(base[None], base, [first])[0, 0] == old


def test_an_out_run_loads_its_config_once(monkeypatch, tmp_path):
    # --out names the CSV path without rebuilding the config (and every
    # decay ratio's gate with it), and writes what a config's output does.
    loads = []
    post_init = ExperimentConfig.__post_init__

    def counted(self):
        loads.append(self)
        post_init(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    for name in experiments.EXPERIMENTS:
        out, via_config = tmp_path / f"{name}.csv", tmp_path / f"{name}-config.csv"
        loads.clear()
        assert cli.main([name, "--out", str(out)]) == 0
        assert len(loads) == 1
        config = tmp_path / "output.cfg"
        config.write_text(f"output = {via_config}\n", encoding="utf-8")
        assert cli.main([name, "--config", str(config)]) == 0
        assert out.read_bytes() == via_config.read_bytes()


def test_a_float_chi_fails_at_load_time():
    # A config file's chi_list parses as integers; a float count given
    # directly is named at load time, not met as a TypeError in the offset run.
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(chi_list=(2.0,))
    assert str(info.value) == "chi_list = 2.0: chi counts imperfect cavities, must be 1..4, got 2.0"


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
        ("delta_t_max_frac = 1.5", "delta_t_max_frac = 1.5: delta_t_frac=1.5 outside [0, 1]"),
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
        ("tau", "012", [marked_index]),
        ("omega1c_khz", 0.0, [lambda w: CavityParams.designed(2.0 * math.pi * w * 1e3, 0.0)]),
        ("k_max", 0, [lambda k: run_search(k, [TEXTBOOK])]),
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


# --- decay ratios and bools at load time ---------------------------------

_KAPPA_RULE = (
    "outside [0, 4*omega1=4.0): decay rates are >= 0, and above 4*omega1 atom-1 "
    "exchange is overdamped"
)


@pytest.mark.parametrize(
    "ratios, shown",
    [
        # Not increasing: the config's own rule fails first.
        (
            "0.1,4.0,0.2",
            "kappa_ratios = 0.1,4.0,0.2: must be strictly increasing, got 0.2 after 4.0",
        ),
        ("0.1,nan,0.2", f"kappa_ratios = nan: kappa=nan {_KAPPA_RULE}"),
        ("0.1,4.0,4.5", f"kappa_ratios = 4.0: kappa=4.0 {_KAPPA_RULE}"),
        # A gate damped out at an earlier ratio is named before a later bad rate.
        ("3.99999,4.0", "kappa_ratios = 3.99999: gate diagonal factor mu=-0.0 outside (0, 1]"),
        ("3.99999,nan", "kappa_ratios = 3.99999: gate diagonal factor mu=-0.0 outside (0, 1]"),
        (
            "0.1,3.9999999999999996",
            "kappa_ratios = 3.9999999999999996: gate diagonal factor mu=-0.0 outside (0, 1]",
        ),
    ],
)
def test_load_and_the_cli_name_the_first_bad_ratio(ratios, shown, tmp_path, capsys):
    # Load checks every ratio with one stacked decayed_i000 call; when it
    # refuses, one call per ratio, in ratio order, names the first ratio that
    # breaks either the rate rule or the gate's.
    values = tuple(float(r) for r in ratios.split(","))
    loads = (
        lambda: ExperimentConfig(kappa_ratios=values),
        lambda: parse_config(f"kappa_ratios = {ratios}\n"),
    )
    for load in loads:
        with pytest.raises(ConfigError) as info:
            load()
        assert str(info.value) == shown
    config, out = tmp_path / "bad.cfg", tmp_path / "gate.csv"
    config.write_text(f"kappa_ratios = {ratios}\n", encoding="utf-8")
    assert cli.main(["gate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"sim: config error: {shown}\n"
    assert not out.exists()


_NUMERIC_KEYS = (
    "omega1c_khz", "kappa_ratios", "k_max", "delta_t_max_frac", "delta_t_points", "eta_max",
    "eta_points", "chi_list", "offset_eta_per_atom", "offset_kappa_ratio", "photon_cutoff",
    "lambda0", "threads",
)


def _with_bool(key: str, flag):
    """A config value for ``key`` that holds the bool ``flag``."""
    if key in ("kappa_ratios", "chi_list"):
        return (flag,)
    return (0.0, flag, 0.0) if key == "offset_eta_per_atom" else flag


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_a_bool_never_loads_as_a_number(key, flag):
    # A bool would be written back as True or False, which parse_config
    # refuses: every number's rule refuses it at load, naming the key.
    value = _with_bool(key, flag)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**{key: value})
    assert str(info.value).startswith(f"{key} = {_value_text(value)}: ")


@pytest.mark.parametrize(
    "rule",
    [
        lambda b: grover.check_grid_size(b, "k_max"),
        imperfections.check_chi,
        dynamics.check_kappa,
        lambda b: dynamics.check_kappa([0.1, b]),
        lambda b: decayed_i000([0.1, b]),
        lambda b: CavityParams((1.0, 2.0, 3.0), kappa=b),
        lambda b: imperfections.delay_fractions([b]),
        lambda b: imperfections.timing_infidelity([0.1], [0.0, b]),
        lambda b: offset_couplings([b]),
        lambda b: offset_couplings(np.array([b])),
        lambda b: offset_couplings([0.0], "per_atom", (0.0, b, 0.0)),
        positions_for_ratio,
    ],
    ids=[
        "grid size", "chi", "kappa", "kappa axis", "decayed_i000 axis", "CavityParams kappa",
        "delay", "timing delays", "eta", "eta array", "per-atom eta", "wavelength",
    ],
)
@pytest.mark.parametrize("flag", [True, False, np.bool_(True)], ids=["True", "False", "np.True_"])
def test_every_number_rule_refuses_a_bool(rule, flag):
    with pytest.raises(ConfigError):
        rule(flag)


def _or_a_bool(values):
    """``values``, or about one draw in ten a bool."""
    bools = st.sampled_from([True, np.bool_(False)])
    return st.integers(0, 9).flatmap(lambda i: bools if i == 0 else values)


_FIELDS = {
    "omega1c_khz": _or_a_bool(st.floats(0.0, 100.0)),
    "kappa_ratios": st.lists(_or_a_bool(st.floats(0.0, 4.0)), min_size=1, max_size=4).map(tuple),
    "k_max": _or_a_bool(st.integers(1, 40)),
    "delta_t_max_frac": _or_a_bool(st.floats(0.0, 1.0)),
    "delta_t_points": _or_a_bool(st.integers(1, 60)),
    "eta_max": _or_a_bool(st.floats(0.0, 0.99)),
    "eta_points": _or_a_bool(st.integers(1, 60)),
    "chi_list": st.lists(_or_a_bool(st.integers(1, 4)), min_size=1, max_size=4).map(tuple),
    "offset_model": st.sampled_from(imperfections.OFFSET_MODELS),
    "offset_eta_per_atom": st.none() | st.tuples(*[_or_a_bool(st.floats(-0.99, 0.99))] * 3),
    "offset_kappa_ratio": _or_a_bool(st.floats(0.0, 4.0)),
    "lambda0": _or_a_bool(st.floats(0.0, 10.0)),
    "photon_cutoff": _or_a_bool(st.just(1)),
    "threads": _or_a_bool(st.just(1)),
    "tau": st.sampled_from(["000", "011", "111"]),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=st.fixed_dictionaries({}, optional=_FIELDS))
@example(fields={})
def test_every_accepted_config_round_trips(fields):
    # parse_config(serialize_config(c)) == c for every config that loads:
    # the draws hold bools too, which would be written back as True or
    # False, so none may load.
    try:
        config = ExperimentConfig(**fields)
    except ConfigError:
        return
    assert parse_config(serialize_config(config)) == config
