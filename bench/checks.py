"""Output checks for the sweep benchmark, run outside the timed region.

Every check reads the CSV text an experiment wrote and returns a list of
problems (empty when the output is correct). The invariants hold for any
seed; the margins are set from the worst values measured over the seeded
grids, with room for last-bit changes. For the default seed the outputs are
also compared with reference CSVs recorded when the benchmark was defined.
"""

from __future__ import annotations

import math
from pathlib import Path

# Largest absolute difference a refactor may leave in any CSV value.
REFERENCE_TOLERANCE = 1e-12
# |analytic - simulated_real| + |simulated_imag|; 4.8e-4 measured up to
# kappa = 0.48 omega1.
GATE_TOLERANCE = 1e-3
# |formula - oracle| of the timing infidelity. The closed form is accurate
# for small delays: the gap is 9.2e-6 on the default grid, but reaches
# 1.74e-4 at kappa -> 0.25 omega1 and delta_t = 0.2 gate times, the edge of
# the oracle-sweep grid.
TIMING_TOLERANCE = 5e-4
GEOMETRY_RATIO = math.acos(1.0 / 8.0) / math.acos(math.sqrt(35.0) / 8.0)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def _columns(header: list[str], rows: list[list[float]], *names: str):
    idx = [header.index(n) for n in names]
    return [[row[i] for i in idx] for row in rows]


def _gate(header, rows) -> list[str]:
    out = []
    for analytic, real, imag, leak in _columns(
        header, rows, "analytic", "simulated_real", "simulated_imag", "leakage"
    ):
        gap = abs(analytic - real) + abs(imag)
        if gap > GATE_TOLERANCE:
            out.append(f"gate: |analytic - simulated| = {gap:.3e} > {GATE_TOLERANCE}")
        if leak < -REFERENCE_TOLERANCE:
            out.append(f"gate: negative leakage {leak!r}")
    return out


def _timing(header, rows) -> list[str]:
    return [
        f"timing: |formula - oracle| = {abs(f - o):.3e} > {TIMING_TOLERANCE}"
        for f, o in _columns(header, rows, "infidelity_formula", "infidelity_oracle")
        if abs(f - o) > TIMING_TOLERANCE
    ]


def _search(header, rows) -> list[str]:
    out = []
    for p_find, survival in _columns(header, rows, "p_find", "survival"):
        if p_find > survival + REFERENCE_TOLERANCE:
            out.append(f"search: p_find={p_find!r} > survival={survival!r}")
        if survival > 1.0:
            out.append(f"search: survival={survival!r} > 1")
    return out


def _geometry(header, rows) -> list[str]:
    return [
        f"geometry: ratio {ratio!r} != {GEOMETRY_RATIO!r}"
        for (ratio,) in _columns(header, rows, "ratio_z1_z2")
        if not math.isclose(ratio, GEOMETRY_RATIO, rel_tol=REFERENCE_TOLERANCE)
    ]


_INVARIANTS = {"gate": _gate, "timing": _timing, "search": _search, "geometry": _geometry}


def check_invariants(experiment: str, text: str) -> list[str]:
    """Seed-independent checks: every value finite, plus the experiment's
    own physical invariant."""
    try:
        header, rows = parse_csv(text)
        problems = [
            f"{experiment}: row {i + 1} has {len(row)} cells for {len(header)} columns"
            for i, row in enumerate(rows)
            if len(row) != len(header)
        ]
        problems += [
            f"{experiment}: non-finite value in row {i + 1}"
            for i, row in enumerate(rows)
            if not all(math.isfinite(v) for v in row)
        ]
        if problems:
            return problems
        return _INVARIANTS.get(experiment, lambda h, r: [])(header, rows)
    except (ValueError, IndexError) as exc:
        return [f"{experiment}: unreadable CSV: {exc}"]


def compare_tables(label: str, expected: str, actual: str, tol: float) -> list[str]:
    """Same header, same row count, every value within ``tol`` absolute."""
    try:
        h1, r1 = parse_csv(expected)
        h2, r2 = parse_csv(actual)
    except (ValueError, IndexError) as exc:
        return [f"{label}: unreadable CSV: {exc}"]
    if h1 != h2:
        return [f"{label}: header {h2} != {h1}"]
    if len(r1) != len(r2):
        return [f"{label}: {len(r2)} rows, expected {len(r1)}"]
    worst = 0.0
    for a, b in zip(r1, r2):
        if len(a) != len(b):
            return [f"{label}: row width differs"]
        for x, y in zip(a, b):
            worst = max(worst, abs(x - y))
    if not worst <= tol:
        return [f"{label}: max abs difference {worst:.3e} > {tol}"]
    return []


def reference_path(workload: str, experiment: str) -> Path:
    return REFERENCE_DIR / workload / f"{experiment}.csv"


def check_reference(workload: str, experiment: str, text: str) -> list[str]:
    """Compare a default-seed output with the recorded reference CSV."""
    path = reference_path(workload, experiment)
    try:
        expected = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{experiment}: no reference CSV: {exc}"]
    return compare_tables(f"{experiment} vs reference", expected, text, REFERENCE_TOLERANCE)
