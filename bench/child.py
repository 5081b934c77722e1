"""One fresh interpreter of the sweep benchmark: ``python3 child.py JOB``.

JOB is a JSON file written by ``run.py``. The child imports the program's
command-line module (the import layer) and parses the workload config
through the public API; that is set-up. Then, by mode:

* ``setup``: stops there (``importtime`` too, after marking where the
  program's imports start in ``-X importtime`` output);
* ``measure``: runs a cold pass and warm passes until its time share ends;
* ``trace``: runs a census pass, then alternates untraced and traced passes.

A pass runs ``run_experiment`` and ``write_csv`` for every experiment of the
workload. Outputs are checked after each pass, outside the timed region. The
result goes to the JSON file the job names. The monotonic clock is system
wide, so ``setup_done`` compares with the parent's start time.
"""

import json
import os
import sys
import time

IMPORT_MARKER = "-- sweep benchmark: program import starts --"


class Passes:
    """Runs timed passes through the package's public functions and checks
    the output of every experiment call.

    Calls go through attributes of the package module, so the tracer's
    wrappers are used while they are installed.
    """

    def __init__(self, api, job: dict, config) -> None:
        self.api = api
        self.job = job
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.paths = {e: os.path.join(job["out_dir"], f"{e}.csv") for e in job["experiments"]}

    def run(self) -> float | None:
        """One timed pass; returns its seconds, or None if a call raised."""
        import gc

        gc.collect()
        raised = {}
        start = time.perf_counter()
        for exp in self.job["experiments"]:
            try:
                self.api.write_csv(self.api.run_experiment(exp, self.config), self.paths[exp])
            except Exception as exc:  # counted as a failed call; the run goes on
                raised[exp] = exc
        elapsed = time.perf_counter() - start
        for exp in self.job["experiments"]:
            self.attempted += 1
            if exp in raised:
                self._fail(f"{exp} raised {type(raised[exp]).__name__}: {raised[exp]}")
            else:
                self._check(exp)
        return None if raised else elapsed

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def _check(self, exp: str) -> None:
        import hashlib

        import checks

        with open(self.paths[exp], "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if exp in self.digests:
            if digest != self.digests[exp]:
                self._fail(f"{exp}: output differs from the first pass")
            return
        self.digests[exp] = digest
        text = data.decode("utf-8")
        problems = checks.check_invariants(exp, text)
        if self.job["reference"]:
            problems += checks.check_reference(self.job["workload"], exp, text)
        if problems:
            self._fail("; ".join(problems[:3]))

    def csv_rows_and_bytes(self) -> tuple[int, int]:
        rows = size = 0
        for path in self.paths.values():
            with open(path, "rb") as fh:
                data = fh.read()
            rows += data.count(b"\n") - 1
            size += len(data)
        return rows, size

    def check_row_count(self) -> None:
        rows, _ = self.csv_rows_and_bytes()
        if rows != self.job["rows"]:
            self.problems.append(f"{rows} CSV rows per pass, expected {self.job['rows']}")

    def report(self) -> dict:
        return {
            "digests": self.digests,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }


def peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def library_info() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def calibration_loop(kind: str) -> float:
    """Seconds taken by a fixed piece of work, about 45 ms on an unloaded host.

    The host's speed drifts by up to 3x over tens of seconds. Timed right
    after each pass, this loop slows down with it, so the ratio of a pass
    to the loop measures the program rather than the host. ``interpreter``
    is Python-level work with tiny NumPy calls, like the closed forms;
    ``dense`` is a chain of 32x32 complex products, like the propagation.
    32x32 stays below OpenBLAS's threading threshold, so the program's BLAS
    thread setting does not reach the loop.
    """
    import numpy as np

    start = time.perf_counter()
    if kind == "interpreter":
        acc = 0.0
        for i in range(30000):
            entry = {"a": i, "b": (i, i + 1)}
            acc += len(entry["b"]) * 0.5 + (i % 7)
        for _ in range(1500):
            w = np.kron(np.eye(2), np.eye(4)) @ np.full(8, 0.3)
            acc += float(np.vdot(w, w).real)
    else:
        m = (np.arange(32 * 32).reshape(32, 32) % 7 - 3) * (0.01 + 0.02j)
        x = np.eye(32, dtype=complex)
        for _ in range(2500):
            x = m @ x
            x /= np.abs(x).max()
        acc = float(np.abs(x).sum())
    elapsed = time.perf_counter() - start
    if not acc > 0:
        raise RuntimeError("calibration loop miscomputed")
    return elapsed


def calibration(weights: dict) -> float:
    """The calibration loops of a workload, weighted by the share of its pass
    that each kind of work takes."""
    return sum(w * calibration_loop(kind) for kind, w in weights.items())


def measure(passes: Passes, deadline: float, min_warm: int) -> dict:
    """A cold pass, then warm passes until the deadline. Each pass is
    followed by the calibration loops: ``loop_s[0]`` pairs with the cold
    pass, ``loop_s[i + 1]`` with ``warm_s[i]``."""
    weights = passes.job["calibration"]
    cold = passes.run()
    loops = [calibration(weights)]
    warm = []
    while len(warm) < min_warm or time.monotonic() < deadline:
        seconds = passes.run()
        loop = calibration(weights)
        if seconds is not None:
            warm.append(seconds)
            loops.append(loop)
        elif passes.attempted >= 4 * min_warm * len(passes.job["experiments"]):
            break  # a failing program: enough calls to report it
    rss = peak_rss_kb()
    passes.check_row_count()
    return {
        "cold_s": cold,
        "warm_s": warm,
        "loop_s": loops,
        "peak_rss_kb": rss,
        **passes.report(),
    }


def trace(passes: Passes, deadline: float, min_warm: int) -> dict:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    for _ in range(passes.job["parse_repeats"]):
        passes.api.parse_config(passes.job["config"])
    tracer.pass_id, tracer.census = 0, True
    passes.run()
    tracer.census = False
    _, csv_bytes = passes.csv_rows_and_bytes()
    traced, untraced, timed_ids = [], [], []
    while min(len(traced), len(untraced)) < min_warm or time.monotonic() < deadline:
        tracer.uninstall()
        seconds = passes.run()
        if seconds is not None:
            untraced.append(seconds)
        tracer.pass_id += 1
        tracer.install()
        seconds = passes.run()
        if seconds is not None:
            traced.append(seconds)
            timed_ids.append(tracer.pass_id)
        elif passes.attempted >= 8 * min_warm * len(passes.job["experiments"]):
            break
    tracer.uninstall()
    metrics, problems = spans.layer_metrics(tracer, timed_ids, 0, csv_bytes)
    tracer.write_spans(passes.job["spans_path"])
    passes.check_row_count()
    report = passes.report()
    report["problems"] += problems
    return {
        "layers": metrics,
        "absent": tracer.absent,
        "traced_s": traced,
        "untraced_s": untraced,
        **report,
    }


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if job["mode"] == "importtime":
        sys.stderr.write(IMPORT_MARKER + "\n")
        sys.stderr.flush()
    import cavity_grover.cli  # noqa: F401  (the import every `sim` call pays)

    api = sys.modules["cavity_grover"]
    config = api.parse_config(job["config"])
    setup_done = time.monotonic()

    result = {"setup_done": setup_done}
    if job["mode"] in ("measure", "trace"):
        passes = Passes(api, job, config)
        run = measure if job["mode"] == "measure" else trace
        result.update(run(passes, setup_done + job["budget_s"], job["min_warm"]))
        result["library"] = library_info()
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
