"""Parameter sweeps behind the CLI: deterministic CSV tables plus a short
text summary per experiment.

Every experiment is a pure function of its configuration: no randomness,
fixed grid order, shortest round-trip float formatting, so repeated runs
emit byte-identical files. Grid points are independent and may be evaluated
by a thread pool; results are gathered in grid order, so the thread count
never changes the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import CavityParams, extract_gate, gate_time, positions_for_ratio
from .errors import ConfigError, NumericalError
from .gates import MarkedState, decayed_i000, residual_gate_entry
from .grover import GateVariant, run_search
from .imperfections import (
    OffsetScenario,
    coupling_offset_infidelity,
    timing_infidelity_grid,
    timing_oracle_grid,
)

EXPERIMENTS = ("gate", "search", "timing", "offset", "geometry")

# Upper bounds on sweep sizes, search iterations, worker threads and the
# Fock cutoff: far above any useful run, low enough that a typo cannot ask
# for a huge grid, search, thread pool or matrix. Logical dynamics never
# reach past one photon; cutoff 10 is a 198-wide basis.
MAX_GRID_POINTS = 100_000
MAX_THREADS = 64
MAX_PHOTON_CUTOFF = 10

# Float-valued config fields; NaN and inf slip through every range check.
_FLOAT_FIELDS = (
    "omega1c_khz", "kappa_ratios", "delta_t_max_frac", "eta_max",
    "offset_eta_per_atom", "offset_kappa_ratio", "lambda0",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """All experiment inputs, with the reference defaults baked in.

    Rates enter in kHz (cycles, not angular) and are converted to rad/s at
    this boundary; kappa is specified as a fraction of the atom-1 coupling.
    Sweep grids are uniform with ``*_points`` samples from 0 to ``*_max``.
    """

    omega1c_khz: float = 6.125
    kappa_ratios: tuple[float, ...] = (0.0, 0.02, 0.1)
    k_max: int = 8
    tau: str = "000"
    delta_t_max_frac: float = 0.1
    delta_t_points: int = 50
    eta_max: float = 0.1
    eta_points: int = 50
    chi_list: tuple[int, ...] = (1, 2, 3, 4)
    offset_model: str = "atom1"
    offset_eta_per_atom: tuple[float, float, float] | None = None
    offset_kappa_ratio: float = 0.1
    photon_cutoff: int = 1
    lambda0: float = 1.0
    output: str | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa_ratios", tuple(self.kappa_ratios))
        object.__setattr__(self, "chi_list", tuple(self.chi_list))
        if self.offset_eta_per_atom is not None:
            object.__setattr__(self, "offset_eta_per_atom", tuple(self.offset_eta_per_atom))
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if v is not None):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.omega1c_khz <= 0:
            raise ConfigError(f"omega1c_khz must be > 0, got {self.omega1c_khz}")
        _check_grid("kappa_ratios", self.kappa_ratios)
        if any(r < 0 or r >= 4 for r in self.kappa_ratios):
            raise ConfigError(
                f"kappa_ratios must lie in [0, 4) (underdamped), got {self.kappa_ratios}"
            )
        if not 1 <= self.k_max <= MAX_GRID_POINTS:
            raise ConfigError(f"k_max must lie in 1..{MAX_GRID_POINTS}, got {self.k_max}")
        MarkedState(self.tau)  # validates
        for name, maximum, points in (
            ("delta_t", self.delta_t_max_frac, self.delta_t_points),
            ("eta", self.eta_max, self.eta_points),
        ):
            if not 1 <= points <= MAX_GRID_POINTS:
                raise ConfigError(
                    f"{name}_points must lie in 1..{MAX_GRID_POINTS}, got {points}"
                )
            if maximum < 0:
                raise ConfigError(f"{name}_max must be >= 0, got {maximum}")
            if points > 1 and maximum == 0:
                raise ConfigError(f"{name}_max must be > 0 for a {points}-point grid")
        if self.delta_t_max_frac > 1:
            raise ConfigError(
                f"delta_t_max_frac={self.delta_t_max_frac} exceeds one gate time"
            )
        if self.eta_max >= 1:
            raise ConfigError(f"eta_max must be < 1, got {self.eta_max}")
        _check_grid("chi_list", self.chi_list)
        if any(c not in (1, 2, 3, 4) for c in self.chi_list):
            raise ConfigError(f"chi_list entries must be in 1..4, got {self.chi_list}")
        if not 0 <= self.offset_kappa_ratio < 4:
            raise ConfigError(
                f"offset_kappa_ratio must lie in [0, 4), got {self.offset_kappa_ratio}"
            )
        if not 1 <= self.photon_cutoff <= MAX_PHOTON_CUTOFF:
            raise ConfigError(
                f"photon_cutoff must lie in 1..{MAX_PHOTON_CUTOFF}, got {self.photon_cutoff}"
            )
        if self.lambda0 <= 0:
            raise ConfigError(f"lambda0 must be > 0, got {self.lambda0}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(f"threads must lie in 1..{MAX_THREADS}, got {self.threads}")
        # The offset sweep's own check of the model and the per-atom offsets,
        # so a bad pair fails at load time whichever experiment runs.
        OffsetScenario(
            self.eta_max, self.chi_list[0], self.params(self.offset_kappa_ratio),
            self.offset_model, self.offset_eta_per_atom,
        )

    @property
    def omega1c(self) -> float:
        """Atom-1 coupling in rad/s."""
        return 2.0 * math.pi * self.omega1c_khz * 1e3

    def params(self, kappa_ratio: float) -> CavityParams:
        return CavityParams.designed(
            self.omega1c, kappa_ratio * self.omega1c, self.photon_cutoff
        )

    def delta_t_fracs(self) -> tuple[float, ...]:
        return tuple(
            float(f) for f in np.linspace(0.0, self.delta_t_max_frac, self.delta_t_points)
        )

    def eta_grid(self) -> tuple[float, ...]:
        return tuple(float(e) for e in np.linspace(0.0, self.eta_max, self.eta_points))


def _check_grid(name: str, values: tuple) -> None:
    if not values:
        raise ConfigError(f"{name} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly increasing, got {values}")


# --- flat key = value config files -------------------------------------

_LIST_FLOAT_KEYS = {"kappa_ratios"}
_LIST_INT_KEYS = {"chi_list"}
_OPTIONAL_TRIPLE_KEYS = {"offset_eta_per_atom"}
_OPTIONAL_STR_KEYS = {"output"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file; '#' starts a comment.

    Every key is optional and defaults to the reference values; unknown
    keys are rejected with the offending name.
    """
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _parse_value(key, value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**overrides)


def _parse_value(key: str, value: str):
    if key in _OPTIONAL_STR_KEYS:
        return value or None
    if key in _LIST_FLOAT_KEYS:
        return tuple(float(v) for v in value.split(",") if v.strip())
    if key in _LIST_INT_KEYS:
        return tuple(int(v) for v in value.split(",") if v.strip())
    if key in _OPTIONAL_TRIPLE_KEYS:
        if not value:
            return None
        triple = tuple(float(v) for v in value.split(",") if v.strip())
        if len(triple) != 3:
            raise ConfigError(f"{key} needs exactly three comma-separated values")
        return triple
    default = getattr(ExperimentConfig(), key)
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def serialize_config(config: ExperimentConfig) -> str:
    """Emit the full configuration as the flat text format; round-trips
    through ``parse_config`` exactly."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            text = ""
        elif isinstance(value, tuple):
            text = ",".join(_fmt(v) for v in value)
        else:
            text = _fmt(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --- sweep tables -------------------------------------------------------


@dataclass(frozen=True)
class SweepTable:
    """One experiment's output: a fixed column schema, rows in grid order,
    and a human-readable summary. A row holding NaN or inf raises
    ``NumericalError``, so no such value reaches a CSV."""

    experiment: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: str

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.header):
                raise ConfigError(
                    f"row width {len(row)} != header width {len(self.header)}"
                )
            if not all(map(math.isfinite, row)):
                raise NumericalError(f"{self.experiment} produced a non-finite row {row}")


def write_csv(table: SweepTable, path: str) -> None:
    """Write the table as UTF-8 CSV: header row, floats in shortest
    round-trip form, rows in grid order. Byte-identical across runs."""
    lines = [",".join(table.header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def _map_ordered(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: concurrent.futures also loads logging, which a default
    # single-threaded run never needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _annotate(exc: NumericalError, experiment: str, point: str) -> NumericalError:
    return NumericalError(f"{experiment} failed at {point}: {exc}")


def run_experiment(name: str, config: ExperimentConfig) -> SweepTable:
    """Run one named experiment and return its table.

    ``gate``     analytic vs simulated phase-gate diagonals and leakage
    ``search``   per-iteration probability/survival/fidelity per kappa
    ``timing``   atom-1 delay sweep: closed form and dynamical oracle
    ``offset``   coupling-offset grid over eta and imperfect-cavity count
    ``geometry`` crossing positions realizing the designed coupling ratio
    """
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    return _RUNNERS[name](config)


def _gate_experiment(config: ExperimentConfig) -> SweepTable:
    def one(ratio: float):
        params = config.params(ratio)
        analytic = decayed_i000(params)[0].diagonal().real
        try:
            extract = extract_gate(params, gate_time(params))
        except NumericalError as exc:
            raise _annotate(exc, "gate", f"kappa_ratio={ratio}") from exc
        simulated = extract.restricted.diagonal()
        rows = [
            (
                ratio,
                slot,
                float(analytic[slot]),
                float(simulated[slot].real),
                float(simulated[slot].imag),
                float(extract.leakage[slot]),
            )
            for slot in range(8)
        ]
        worst = float(np.abs(simulated - analytic).max())
        return rows, worst

    results = _map_ordered(one, config.kappa_ratios, config.threads)
    rows = [row for block, _ in results for row in block]
    gamma0 = residual_gate_entry(config.params(0.0))
    lines = [f"lossless |001⟩ gate entry: {gamma0:.6f}"]
    for ratio, (_, worst) in zip(config.kappa_ratios, results):
        lines.append(f"kappa_ratio={_fmt(ratio)}: max |analytic - simulated| = {worst:.3e}")
    return SweepTable(
        experiment="gate",
        header=("kappa_ratio", "slot", "analytic", "simulated_real", "simulated_imag", "leakage"),
        rows=tuple(rows),
        summary="\n".join(lines),
    )


def _search_experiment(config: ExperimentConfig) -> SweepTable:
    tau = MarkedState(config.tau)

    def one(ratio: float):
        params = config.params(ratio)
        try:
            return run_search(tau, config.k_max, GateVariant.DECAYED, params)
        except NumericalError as exc:
            raise _annotate(exc, "search", f"kappa_ratio={ratio}") from exc

    results = _map_ordered(one, config.kappa_ratios, config.threads)
    rows = []
    lines = [
        f"marked state |{tau}⟩; "
        "fidelity = normalized overlap with the exact-gate trajectory"
    ]
    iteration_us = 2.0 * gate_time(config.params(0.0)) * 1e6
    lines.append(f"iteration time (two gates, kappa=0): {iteration_us:.2f} us")
    for ratio, records in zip(config.kappa_ratios, results):
        for rec in records:
            rows.append((rec.iteration, ratio, rec.p_find, rec.survival, rec.fidelity))
        best = max(records, key=lambda r: r.p_find)
        lines.append(
            f"kappa_ratio={_fmt(ratio)}: best p_find={best.p_find:.4f} at k={best.iteration}"
        )
    return SweepTable(
        experiment="search",
        header=("iteration", "kappa_ratio", "p_find", "survival", "fidelity"),
        rows=tuple(rows),
        summary="\n".join(lines),
    )


def _timing_experiment(config: ExperimentConfig) -> SweepTable:
    fracs = config.delta_t_fracs()

    def one(ratio: float):
        params = config.params(ratio)
        t_gate = gate_time(params)
        delta_ts = [frac * t_gate for frac in fracs]
        try:
            formula = timing_infidelity_grid(params, delta_ts)
            oracle = timing_oracle_grid(params, delta_ts)
            return [(ratio, *point) for point in zip(fracs, formula, oracle)]
        except NumericalError as exc:
            raise _annotate(exc, "timing", f"kappa_ratio={ratio}") from exc

    results = _map_ordered(one, config.kappa_ratios, config.threads)
    rows = [row for block in results for row in block]
    lines = ["delta_t in fractions of one gate time; atom 1 exits late"]
    for ratio in config.kappa_ratios:
        base = next(r for r in rows if r[0] == ratio and r[1] == 0.0)
        lines.append(
            f"kappa_ratio={_fmt(ratio)}: delta_t=0 infidelity formula={base[2]:.3e} "
            f"oracle={base[3]:.3e}"
        )
    return SweepTable(
        experiment="timing",
        header=("kappa_ratio", "delta_t_frac", "infidelity_formula", "infidelity_oracle"),
        rows=tuple(rows),
        summary="\n".join(lines),
    )


def _offset_experiment(config: ExperimentConfig) -> SweepTable:
    ratio = config.offset_kappa_ratio
    params = config.params(ratio)
    points = [(chi, eta) for chi in config.chi_list for eta in config.eta_grid()]

    def one(point):
        chi, eta = point
        scenario = OffsetScenario(
            eta=eta,
            chi=chi,
            params=params,
            model=config.offset_model,
            per_atom_eta=config.offset_eta_per_atom,
        )
        return (eta, chi, ratio, coupling_offset_infidelity(scenario))

    rows = _map_ordered(one, points, config.threads)
    baseline = coupling_offset_infidelity(
        OffsetScenario(eta=0.0, chi=config.chi_list[0], params=params)
    )
    lines = [
        f"offset model: {config.offset_model}; four-gate search at "
        f"kappa_ratio={_fmt(ratio)}",
        f"eta=0 decay-only baseline: {baseline:.4e}",
    ]
    return SweepTable(
        experiment="offset",
        header=("eta", "chi", "kappa_ratio", "infidelity_formula"),
        rows=tuple(rows),
        summary="\n".join(lines),
    )


def _geometry_experiment(config: ExperimentConfig) -> SweepTable:
    omega0 = 8.0 * config.omega1c  # antinode coupling; atom 3 crosses there
    z1, z2, z3 = positions_for_ratio(omega0, config.lambda0)
    ratio = abs(z1) / abs(z2)
    rows = ((z1, z2, z3, ratio),)
    summary = (
        f"crossing offsets in units of lambda0={_fmt(config.lambda0)}: "
        f"z1={z1:.6f}, z2={z2:.6f}, z3={z3:.6f}\n"
        f"|z1|/|z2| = {ratio:.4f}"
    )
    return SweepTable(
        experiment="geometry",
        header=("z1", "z2", "z3", "ratio_z1_z2"),
        rows=rows,
        summary=summary,
    )


_RUNNERS = {
    "gate": _gate_experiment,
    "search": _search_experiment,
    "timing": _timing_experiment,
    "offset": _offset_experiment,
    "geometry": _geometry_experiment,
}

