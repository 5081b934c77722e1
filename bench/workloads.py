"""Seeded workload definitions for the sweep benchmark.

A workload is a config file text plus the experiments run on it. The seed
draws grid values (decay ratios, sweep ends, marked state) but never grid
sizes, so the work done per pass is the same for every seed. Only the
standard library is used here: the benchmark imports this module before the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple[str, ...]
    rows: int  # CSV data rows written per pass, all experiments together
    # Weights of the child.calibration_loop kinds: the share of a pass that
    # is dense linear algebra or interpreter work, so that the weighted
    # loops slow down with the host as the pass does.
    calibration: dict
    # Per-pass call counts recorded at the commit that defined the benchmark.
    # The traced run reports any drift from them; a change that reuses
    # propagators is expected to move them.
    reference_counts: dict

    def config_text(self, seed: int) -> str:
        return _GENERATORS[self.name](random.Random(f"{self.name}:{seed}"))


def _ratios(rng: random.Random, count: int, high: float) -> str:
    while True:
        values = sorted(round(rng.uniform(0.0, high), 6) for _ in range(count))
        if all(b > a for a, b in zip(values, values[1:])):
            return ",".join(repr(v) for v in values)


def _oracle_sweep(rng: random.Random) -> str:
    return (
        f"kappa_ratios = {_ratios(rng, 3, 0.25)}\n"
        "delta_t_points = 50\n"
        f"delta_t_max_frac = {round(rng.uniform(0.05, 0.2), 6)!r}\n"
        "photon_cutoff = 1\n"
        "threads = 1\n"
    )


# The search conjugates the phase gate by one bit flip per 1 in the marked
# state, so the work per pass depends on how many bits are set; the seed
# picks among the states with exactly two.
_TWO_FLIP_STATES = ("011", "101", "110")


def _closed_form_sweep(rng: random.Random) -> str:
    return (
        f"tau = {rng.choice(_TWO_FLIP_STATES)}\n"
        f"kappa_ratios = {_ratios(rng, 25, 0.5)}\n"
        "k_max = 32\n"
        "chi_list = 1,2,3,4\n"
        "eta_points = 1000\n"
        f"eta_max = {round(rng.uniform(0.05, 0.2), 6)!r}\n"
        f"offset_kappa_ratio = {round(rng.uniform(0.02, 0.25), 6)!r}\n"
        "threads = 1\n"
    )


_GENERATORS = {
    "oracle-sweep": _oracle_sweep,
    "closed-form-sweep": _closed_form_sweep,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle-sweep",
            why=(
                "timing oracle plus gate at photon_cutoff 1: dense 36-dim expm "
                "does almost all the work, so propagator reuse and block "
                "structure show here"
            ),
            experiments=("timing", "gate"),
            rows=3 * 50 + 3 * 8,
            # expm, itself partly Python-level, takes 60-70 % of the pass.
            calibration={"dense": 0.6, "interpreter": 0.4},
            reference_counts={
                "dynamics.expm.calls": 2424,
                "hilbert.build_basis.calls": 153,
            },
        ),
        Workload(
            name="closed-form-sweep",
            why=(
                "search, offset and geometry: closed forms, 4801 CSV rows, no "
                "expm, so dynamics changes should not move it and CSV or "
                "closed-form changes should"
            ),
            experiments=("search", "offset", "geometry"),
            rows=25 * 32 + 4 * 1000 + 1,
            calibration={"interpreter": 1.0},
            reference_counts={
                "dynamics.expm.calls": 0,
                "hilbert.build_basis.calls": 0,
            },
        ),
    )
}
