"""Tests of the sweep benchmark's own code: seeded configs, checks, tracer,
and agreement between BENCHMARK.json and the metrics the code reports."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cavity_grover  # noqa: E402
from cavity_grover import parse_config, serialize_config  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from child import Passes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 7)


def _passes(tmp_path: Path, name: str, seed: int) -> Passes:
    workload = WORKLOADS[name]
    text = workload.config_text(seed)
    job = {
        "workload": name,
        "experiments": list(workload.experiments),
        "rows": workload.rows,
        "reference": False,
        "out_dir": str(tmp_path),
    }
    return Passes(cavity_grover, job, parse_config(text))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_text_is_seeded_and_round_trips(name):
    workload = WORKLOADS[name]
    texts = [workload.config_text(seed) for seed in SEEDS]
    assert texts == [workload.config_text(seed) for seed in SEEDS]
    assert texts[0] != texts[1]
    for text in texts:
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config
        assert config.threads == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_change_values_not_work(name, tmp_path):
    """Every seed writes the same number of rows and makes the same calls."""
    counts = []
    for seed in SEEDS:
        (tmp_path / str(seed)).mkdir()
        passes = _passes(tmp_path / str(seed), name, seed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.pass_id, tracer.census = 0, True
            assert passes.run() is not None
        finally:
            tracer.uninstall()
        passes.check_row_count()
        assert passes.failed == 0 and not passes.problems, passes.problems
        metrics, problems = spans.layer_metrics(tracer, [], 0, 0)
        assert not problems
        counts.append({k: v for k, v in metrics.items() if k.endswith((".calls", ".elems"))})
    assert counts[0] == counts[1]


def test_tracer_leaves_outputs_unchanged(tmp_path):
    expm = cavity_grover.dynamics.expm
    passes = _passes(tmp_path, "oracle-sweep", 3)
    assert passes.run() is not None
    untraced = dict(passes.digests)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cavity_grover.dynamics.expm is not expm
        assert passes.run() is not None
    finally:
        tracer.uninstall()
    assert cavity_grover.dynamics.expm is expm
    assert passes.failed == 0, passes.problems
    assert passes.digests == untraced


def test_tracer_wraps_every_reference_and_nests_spans(tmp_path):
    tracer = spans.Tracer()
    patched = {(mod.__name__, attr) for mod, attr, _, _ in tracer._patches}
    assert ("cavity_grover.dynamics", "expm") in patched
    assert ("cavity_grover.imperfections", "evolve") in patched
    assert ("cavity_grover.experiments", "extract_gate") in patched
    assert ("cavity_grover", "run_experiment") in patched
    tracer.install()
    try:
        cavity_grover.run_experiment("gate", parse_config("kappa_ratios = 0.1\n"))
    finally:
        tracer.uninstall()
    stats, selfs = tracer.pass_stats()
    calls = {tracer.keys[k]: v[0] for k, v in stats[spans.SETUP_PASS].items()}
    assert calls["dynamics.expm"] == 8
    assert calls["dynamics.evolve"] == 8
    assert calls["dynamics.extract_gate"] == 1
    assert all(s > -1e-6 for s in selfs)
    total = sum(selfs)
    root = [i for i in range(len(selfs)) if tracer._parent[i] < 0]
    assert math.isclose(
        total, sum(tracer._end[i] - tracer._start[i] for i in root), rel_tol=1e-9
    )


def test_absent_function_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        spans, "TRACED", spans.TRACED + (("dynamics", "no_such_function", ("calls", "self_s")),)
    )
    tracer = spans.Tracer()
    assert tracer.absent == ["dynamics.no_such_function"]
    metrics, problems = spans.layer_metrics(tracer, [], 0, 0)
    assert metrics["dynamics.no_such_function.calls"] == 0
    assert metrics["dynamics.no_such_function.self_s"] == 0.0
    assert not problems


def test_checks_flag_bad_outputs():
    good_search = "iteration,kappa_ratio,p_find,survival,fidelity\n1,0.1,0.5,0.9,0.99\n"
    assert checks.check_invariants("search", good_search) == []
    assert checks.check_invariants("search", good_search.replace("0.5,", "0.95,"))
    assert checks.check_invariants("search", good_search.replace("0.9,", "1.0000001,"))
    assert checks.check_invariants("search", good_search.replace("0.99", "nan"))
    gate = "kappa_ratio,slot,analytic,simulated_real,simulated_imag,leakage\n0.1,0,-0.9,-0.9,0.0,0.0\n"
    assert checks.check_invariants("gate", gate) == []
    assert checks.check_invariants("gate", gate.replace(",0.0,0.0", ",0.002,0.0"))
    assert checks.check_invariants("gate", gate.replace(",0.0\n", ",-1e-9\n"))
    timing = "kappa_ratio,delta_t_frac,infidelity_formula,infidelity_oracle\n0.1,0.0,1e-3,1.4e-3\n"
    assert checks.check_invariants("timing", timing) == []
    assert checks.check_invariants("timing", timing.replace("1.4e-3", "1.6e-3"))
    geometry = f"z1,z2,z3,ratio_z1_z2\n1.0,0.5,0.0,{checks.GEOMETRY_RATIO!r}\n"
    assert checks.check_invariants("geometry", geometry) == []
    assert checks.check_invariants("geometry", geometry.replace(repr(checks.GEOMETRY_RATIO), "1.95"))
    nudged = good_search.replace("0.5,", "0.5000000000001,")
    assert checks.compare_tables("t", good_search, nudged, 1e-12) == []
    assert checks.compare_tables("t", good_search, nudged.replace("0.5000000000001", "0.50001"), 1e-12)


def test_reference_csvs_match_this_program(tmp_path):
    for name in WORKLOADS:
        (tmp_path / name).mkdir()
        passes = _passes(tmp_path / name, name, 0)
        passes.job["reference"] = True
        assert passes.run() is not None
        assert passes.failed == 0, passes.problems


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 | site\n"
        "MARK\n"
        "import time:        50 |         50 |       scipy._lib\n"
        "import time:       300 |        350 |     scipy\n"
        "import time:       200 |        200 |     scipy.linalg._x\n"
        "import time:       100 |        300 |   scipy.linalg\n"
        "import time:       400 |        400 |   numpy\n"
        "import time:        10 |        710 | cavity_grover\n"
        "import time:        20 |         20 | cavity_grover.cli\n"
    )
    total, scipy = spans.parse_importtime(text, "MARK")
    assert total == pytest.approx(730e-6)
    assert scipy == pytest.approx(300e-6)


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    q, value = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (q, value) == (90, 90.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    names = ["import.total_s", "import.scipy_s", *spans.layer_metric_names(), "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
