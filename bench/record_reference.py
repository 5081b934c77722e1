"""Record the default-seed reference CSVs the benchmark compares against.

    PYTHONPATH=src python3 bench/record_reference.py

Run it only at a commit whose outputs are known to be right: every later
default-seed run must match these files within ``checks.REFERENCE_TOLERANCE``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cavity_grover import parse_config, run_experiment, write_csv  # noqa: E402

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> None:
    for workload in WORKLOADS.values():
        config = parse_config(workload.config_text(DEFAULT_SEED))
        for exp in workload.experiments:
            path = checks.reference_path(workload.name, exp)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_csv(run_experiment(exp, config), str(path))
            print(path)


if __name__ == "__main__":
    main()
