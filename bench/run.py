"""Sweep benchmark for cavity-grover.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a seeded config run through the program's public path
(``parse_config`` -> ``run_experiment`` -> ``write_csv``) in fresh
interpreters, one process at a time, with BLAS threading left as the
environment sets it. ``--trace 0`` reports the end-to-end metrics, in
seconds calibrated against a fixed loop timed beside each pass (see
``REFERENCE_LOOP_S``); ``--trace 1`` reports the per-layer metrics of a
separate traced run. Every experiment output
is checked outside the timed region; the command-line module is run once per
experiment and must write the same bytes. One line per metric is printed,
then, as the last line for each workload, a JSON result. The exit code is 1
when an output check failed and 2 when the benchmark could not run (for
example with no ``src/cavity_grover`` beside it), in which case no result is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from child import IMPORT_MARKER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# (name, unit, better, bound): the bound is the share of the parent
# commit's median by which the metric may worsen.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_sweep_s", "s", "lower", 0.25),
    ("sweep_s", "s", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

MEASURE_PROCESSES = 10  # each gives one cold pass; warm passes are pooled
SETUP_ONLY_PROCESSES = 5  # plus one set-up sample from each measuring process
# Timings are reported in calibrated seconds: measured time divided by the
# time of the workload's weighted calibration loops run beside it (see
# child.calibration), times the loops' time on the unloaded 2-vCPU host they
# were sized on.
REFERENCE_LOOP_S = 0.045
MIN_WARM_PASSES = 1  # per measuring process, even past its time share
IMPORTTIME_PROCESSES = 3
PARSE_REPEATS = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _spawn(job: dict, run_dir: Path, tag: str, flags: tuple = ()) -> tuple[dict, float, str]:
    """Run one child interpreter; returns its result, the monotonic time it
    was started at, and its stderr."""
    job = dict(job, result_path=str(run_dir / f"{tag}.json"))
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    cmd = [sys.executable, *flags, str(BENCH_DIR / "child.py"), str(job_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} process timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{tag} process exited with {proc.returncode}:\n{tail}")
    result = json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))
    return result, started, proc.stderr


def _cli_check(experiments, config_path: Path, run_dir: Path, digests: dict) -> list[str]:
    """Run ``python -m cavity_grover.cli`` once per experiment; the CSV must
    match the library path byte for byte."""
    problems = []
    for exp in experiments:
        out = run_dir / f"cli-{exp}.csv"
        cmd = [sys.executable, "-m", "cavity_grover.cli", exp,
               "--config", str(config_path), "--out", str(out)]
        try:
            proc = subprocess.run(
                cmd, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            problems.append(f"cli {exp}: timed out")
            continue
        if proc.returncode != 0:
            problems.append(f"cli {exp}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        elif hashlib.sha256(out.read_bytes()).hexdigest() != digests.get(exp):
            problems.append(f"cli {exp}: CSV differs from the library path")
    return problems


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), or None with fewer than eleven samples."""
    n = len(values)
    q = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if q < 1:
        return None
    return q, sorted(values)[math.ceil(q / 100 * n) - 1]


def run_metadata() -> dict:
    def env(name: str) -> str:
        return os.environ.get(name, "unset")

    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
                commit = next(l.split()[0] for l in packed if l.endswith(" " + ref))
        else:
            commit = head
    except (OSError, StopIteration):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "OPENBLAS_NUM_THREADS": env("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": env("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _job(workload, seed: int, run_dir: Path, config_text: str) -> dict:
    return {
        "mode": "setup",
        "workload": workload.name,
        "experiments": list(workload.experiments),
        "config": config_text,
        "rows": workload.rows,
        "calibration": workload.calibration,
        "reference": seed == DEFAULT_SEED,
        "out_dir": str(run_dir),
        "budget_s": 0.0,
        "min_warm": MIN_WARM_PASSES,
        "parse_repeats": PARSE_REPEATS,
        "spans_path": str(OUT_DIR / f"spans-{workload.name}.csv"),
    }


def _measure(job: dict, run_dir: Path, seconds: float) -> tuple[dict, list[str]]:
    setups, colds, ratios, loops, rss = [], [], [], [], []
    raw_setup, raw_cold, raw_warm = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    digests: dict = {}
    share = dict(job, mode="measure", budget_s=seconds / MEASURE_PROCESSES)
    # Set-up-only interpreters are spread between the measuring ones, so
    # that all samples see the same spread of machine load.
    stride = MEASURE_PROCESSES // SETUP_ONLY_PROCESSES
    for i in range(MEASURE_PROCESSES):
        setup = []
        if i % stride == 0:
            result, started, _ = _spawn(job, run_dir, f"setup{i}")
            setup.append(result["setup_done"] - started)
        result, started, _ = _spawn(share, run_dir, f"measure{i}")
        setup.append(result["setup_done"] - started)
        # Set-up and cold times scale with the loops of the measuring
        # process that ran right after or with them.
        own_loop = statistics.median(result["loop_s"])
        raw_setup += setup
        setups += [s / own_loop for s in setup]
        loops += result["loop_s"]
        if result["cold_s"] is not None:
            raw_cold.append(result["cold_s"])
            colds.append(result["cold_s"] / own_loop)
        raw_warm += result["warm_s"]
        ratios += [w / l for w, l in zip(result["warm_s"], result["loop_s"][1:])]
        rss.append(result["peak_rss_kb"] / 1024.0)
        attempted += result["attempted"]
        failed += result["failed"]
        problems += result["problems"]
        if digests and result["digests"] != digests:
            problems.append(f"measure{i}: outputs differ from the first process")
        digests = digests or result["digests"]
        library = result["library"]
    if not ratios or not colds:
        raise BenchError("no pass completed: " + "; ".join(problems[:3]))
    loop = statistics.median(loops)
    warm = [REFERENCE_LOOP_S * r for r in ratios]
    sweep = statistics.median(warm)
    values = {
        "setup_s": REFERENCE_LOOP_S * statistics.median(setups),
        "cold_sweep_s": REFERENCE_LOOP_S * statistics.median(colds),
        "sweep_s": sweep,
        "rows_per_s": job["rows"] / sweep,
        "peak_rss_mb": statistics.median(rss),
    }
    tail = tail_percentile(warm)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; "
        f"raw {statistics.median(raw_setup):.6g} s",
        "cold_sweep_s": f"median of {len(colds)} first passes; "
        f"raw {statistics.median(raw_cold):.6g} s",
        "sweep_s": f"median of {len(warm)} warm passes"
        + (f"; p{tail[0]} {tail[1]:.6g} s" if tail else "")
        + f"; raw {statistics.median(raw_warm):.6g} s; calibration loop {loop:.6g} s",
        "peak_rss_mb": f"median of {len(rss)} processes",
    }
    counts = {"attempted": attempted, "failed": failed, "digests": digests}
    return dict(values=values, notes=notes, library=library, **counts), problems


def _trace(job: dict, run_dir: Path, seconds: float) -> tuple[dict, list[str]]:
    totals, scipys = [], []
    for i in range(IMPORTTIME_PROCESSES):
        imp = dict(job, mode="importtime")
        _, _, stderr = _spawn(imp, run_dir, f"importtime{i}", ("-X", "importtime"))
        total, scipy = spans.parse_importtime(stderr, IMPORT_MARKER)
        totals.append(total)
        scipys.append(scipy)
    result, _, _ = _spawn(dict(job, mode="trace", budget_s=seconds), run_dir, "trace")
    if not result["traced_s"] or not result["untraced_s"]:
        raise BenchError("no traced pass completed: " + "; ".join(result["problems"][:3]))
    values = {"import.total_s": statistics.median(totals),
              "import.scipy_s": statistics.median(scipys)}
    values.update(result["layers"])
    values["trace.overhead_s"] = (
        statistics.median(result["traced_s"]) - statistics.median(result["untraced_s"])
    )
    notes = {
        "trace.overhead_s": f"{len(result['traced_s'])} traced and "
        f"{len(result['untraced_s'])} untraced passes, alternating",
    }
    counts = {k: result[k] for k in ("attempted", "failed", "digests", "library", "absent")}
    return dict(values=values, notes=notes, **counts), list(result["problems"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and printable lines."""
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        config_text = workload.config_text(seed)
        config_path = run_dir / "workload.cfg"
        config_path.write_text(config_text, encoding="utf-8")
        job = _job(workload, seed, run_dir, config_text)
        run = _trace if trace else _measure
        measured, problems = run(job, run_dir, seconds)
        cli_problems = _cli_check(workload.experiments, config_path, run_dir, measured["digests"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = measured["attempted"] + len(workload.experiments)
    failed = measured["failed"] + len(cli_problems)
    problems += cli_problems

    if trace:
        order = ["import.total_s", "import.scipy_s", *spans.layer_metric_names(),
                 "trace.overhead_s"]
        units = {m: layer_unit(m) for m in order}
    else:
        units = {m: unit for m, unit, _, _ in END_TO_END}
        order = [m for m, _, _, _ in END_TO_END]
    values = measured["values"]
    lines = [f"# {name} seed={seed} trace={int(trace)}"]
    for metric in order:
        note = measured["notes"].get(metric)
        lines.append(
            f"{name}  {metric:<48} {values[metric]:<14.6g} {units[metric]}"
            + (f"  ({note})" if note else "")
        )
    lines.append(
        f"{name}  {'failed_frac':<48} {failed / attempted:<14.6g} ratio"
        f"  ({failed} of {attempted} experiment calls)"
    )
    if trace:
        drift = [
            f"{metric} {values.get(metric)} (recorded {expected})"
            for metric, expected in workload.reference_counts.items()
            if values.get(metric) != expected
        ]
        lines.append("# reference counts: " + ("; ".join(drift) if drift else "as recorded"))
        if measured["absent"]:
            lines.append("# absent (reported as 0): " + ", ".join(measured["absent"]))
    lines += [f"# problem: {p}" for p in problems]
    meta = dict(run_metadata(), **measured["library"], workload=name, seed=seed)
    lines.append("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in order},
    }
    return result, lines


def layer_unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return {"distinct_frac": "ratio", "bytes": "B"}.get(stat, "count")


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cavity_grover" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'cavity_grover'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
