"""Record the golden outputs that ``test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/record_golden.py

Writes, for every case of ``CASES``, the CSV and the ``--summary`` output of
``sim <experiment>`` to ``tests/golden/<config>/<experiment>.csv`` and
``.summary``; the exit code and stderr of each of ``BAD_CONFIGS`` to
``tests/golden/bad_configs.txt``; and the numpy version they were made
with to ``tests/golden/numpy_version``. Run it only at a commit whose outputs are
known to be right: later runs must match these files in their text, and in
every number within ``TOLERANCE``.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np

from cavity_grover import cli
from cavity_grover.experiments import EXPERIMENTS

GOLDEN = Path(__file__).resolve().parent / "golden"
# Largest absolute difference a refactor may leave in any number of an output.
TOLERANCE = 1e-12
# Config file text and the experiments run on it, by label: the defaults; the
# accepted decay edge, with per-atom offsets; and the offset table under the
# other two offset models (the default's is atom1).
CONFIGS = {
    "default": (None, EXPERIMENTS),
    "edge": (
        "kappa_ratios = 0,0.1,3.99\n"
        "offset_model = per_atom\n"
        "offset_eta_per_atom = 0.02,-0.03,0.01\n",
        EXPERIMENTS,
    ),
    "uniform": ("offset_model = uniform\n", ("offset",)),
    "per_atom": ("offset_model = per_atom\noffset_eta_per_atom = 0.02,-0.03,0.01\n", ("offset",)),
}
CASES = [(label, exp) for label, (_, exps) in CONFIGS.items() for exp in exps]
# Bad config files, one line each: one per config-only rule, then owner
# rules', among them decay ratios that break the rate rule or damp a gate out.
BAD_CONFIGS = (
    "kappa_ratios =",
    "chi_list = 2,1",
    "eta_points = 0",
    "k_max = 0",
    "threads = 2",
    "eta_max = -0.1",
    "delta_t_max_frac = 0",
    "kappa_ratios = 0,4",
    "kappa_ratios = 0.1,4.0,0.2",
    "kappa_ratios = 0.1,nan,0.2",
    "kappa_ratios = 3.9999999999999996",
    "kappa_ratios = 3.99999,4",
    "offset_kappa_ratio = 4",
    "k_max = 4.0",
    "tau = 012",
)


def render(label: str, experiment: str, workdir: Path) -> dict[str, str]:
    """The CSV text and the ``--summary`` stdout of one case, by golden file
    name, from ``cli.main`` run in this process with its files in ``workdir``."""
    text, _ = CONFIGS[label]
    csv = workdir / f"{label}-{experiment}.csv"
    argv = [experiment, "--summary", "--out", str(csv)]
    if text is not None:
        config = workdir / f"{label}.cfg"
        config.write_text(text, encoding="utf-8")
        argv += ["--config", str(config)]
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sim {' '.join(argv)} exited {code}")
    return {
        f"{experiment}.csv": csv.read_text(encoding="utf-8"),
        f"{experiment}.summary": shown.getvalue(),
    }


def render_bad(workdir: Path) -> dict[str, str]:
    """The exit code and stderr of ``sim geometry`` on each of ``BAD_CONFIGS``,
    one block per config, as the golden file ``bad_configs.txt``."""
    config, blocks = workdir / "bad.cfg", []
    for line in BAD_CONFIGS:
        config.write_text(line + "\n", encoding="utf-8")
        shown = io.StringIO()
        with contextlib.redirect_stderr(shown):
            code = cli.main(["geometry", "--config", str(config), "--out", str(workdir / "bad.csv")])
        blocks.append(f"{line}\nexit {code}\n{shown.getvalue()}")
    return {"bad_configs.txt": "\n".join(blocks)}


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for label, experiment in CASES:
            folder = GOLDEN / label
            folder.mkdir(parents=True, exist_ok=True)
            for name, output in render(label, experiment, Path(work)).items():
                (folder / name).write_text(output, encoding="utf-8", newline="\n")
                print(folder / name)
        for name, output in render_bad(Path(work)).items():
            (GOLDEN / name).write_text(output, encoding="utf-8", newline="\n")
            print(GOLDEN / name)
    (GOLDEN / "numpy_version").write_text(np.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
