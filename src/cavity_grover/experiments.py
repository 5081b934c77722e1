"""Parameter sweeps behind the CLI: deterministic CSV tables plus a short
text summary per experiment.

Every experiment is a pure function of its configuration: no randomness,
fixed grid order, shortest round-trip float formatting, so repeated runs
emit byte-identical files. Each returns a column-wise ``SweepTable``: the
grid coordinates as ``Axis`` columns (values, repeat, tile), the computed
grids flattened; ``write_csv`` formats each axis value and each computed
value once. Each quantity is one call over a whole axis: one
``run_search`` for every decay ratio, one ``coupling_offset_infidelity``
for the (chi, eta) grid, and one ``extract_gate``, ``timing_infidelity``
and ``timing_oracle`` each for the stack of every decay ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import CavityParams, extract_gate, gate_time, positions_for_ratio
from .errors import ConfigError, NumericalError
from .gates import MarkedState, decayed_i000, residual_gate_entry
from .grover import check_k_max, run_search
from .imperfections import (
    OffsetScenario,
    TimingScenario,
    coupling_offset_infidelity,
    timing_infidelity,
    timing_oracle,
)
from .tables import Axis, SweepTable, write_csv  # noqa: F401  (write_csv re-exported)

EXPERIMENTS = ("gate", "search", "timing", "offset", "geometry")

# Upper bound on sweep sizes: far above any useful run, low enough that a
# typo cannot ask for a huge grid. The owner caps k_max.
MAX_GRID_POINTS = 100_000

# Keys whose only value is 1: every run is single-threaded, and the basis
# stops at one photon. They stay so that existing configs still parse.
_RETIRED_KEYS = ("threads", "photon_cutoff")

# Float-valued config fields: NaN or inf in any of them is rejected, read or not.
_FLOAT_FIELDS = (
    "omega1c_khz", "kappa_ratios", "delta_t_max_frac", "eta_max",
    "offset_eta_per_atom", "offset_kappa_ratio", "lambda0",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """All experiment inputs, with the reference defaults baked in.

    Every table depends on kappa/omega1 and the coupling ratios alone, so
    the experiments compute in units of the atom-1 coupling (omega1 = 1,
    times in 1/omega1); kappa is specified as a fraction of it. The atom-1
    coupling itself enters in kHz (cycles, not angular) and only sets the
    search summary's iteration time. Sweep grids are uniform with
    ``*_points`` samples from 0 to ``*_max``.

    Loading keeps, in ratio order, the parameter set and the gate diagonal
    it builds to check each decay ratio (``_kappa_params``, ``_kappa_gates``;
    plain attributes, not fields), and the runs read those.
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
    photon_cutoff: int = 1  # retired, see _RETIRED_KEYS
    lambda0: float = 1.0
    output: str | None = None
    threads: int = 1  # retired, see _RETIRED_KEYS

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa_ratios", tuple(self.kappa_ratios))
        object.__setattr__(self, "chi_list", tuple(self.chi_list))
        if self.offset_eta_per_atom is not None:
            object.__setattr__(self, "offset_eta_per_atom", tuple(self.offset_eta_per_atom))
        # Rules only the config knows: finite floats, grid shapes and caps.
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if v is not None):
                raise ConfigError(f"{name} must be finite, got {value}")
        _check_grid("kappa_ratios", self.kappa_ratios)
        _check_grid("chi_list", self.chi_list)
        for key, value in (("delta_t_points", self.delta_t_points), ("eta_points", self.eta_points)):
            if not 1 <= value <= MAX_GRID_POINTS:
                raise ConfigError(f"{key} must lie in 1..{MAX_GRID_POINTS}, got {value}")
        for key in _RETIRED_KEYS:
            if getattr(self, key) != 1:
                raise ConfigError(f"{key} is retired and must be 1, got {getattr(self, key)}")
        for key, maximum, points in (
            ("delta_t_max_frac", self.delta_t_max_frac, self.delta_t_points),
            ("eta_max", self.eta_max, self.eta_points),
        ):
            if maximum < 0:
                raise ConfigError(f"{key} must be >= 0, got {maximum}")
            if points > 1 and maximum == 0:
                raise ConfigError(f"{key} must be > 0 for a {points}-point grid")
        # Every other rule belongs to the type that uses the value: build the
        # objects the experiments will build, so a bad value fails at load
        # time whichever experiment runs, with its key named.
        _built("k_max", self.k_max, check_k_max, self.k_max)
        _built("tau", self.tau, MarkedState, self.tau)
        _built("omega1c_khz", self.omega1c_khz, self.iteration_us)
        stack, gates = [], []
        for ratio in self.kappa_ratios:
            stack.append(params := _built("kappa_ratios", ratio, self.params, ratio))
            gates.append(_built("kappa_ratios", ratio, decayed_i000, params))  # fails if damped out
            # linspace ends exactly at delta_t_max_frac: the sweep's last delay.
            delay = self.delta_t_max_frac * gate_time(params)
            _built("delta_t_max_frac", self.delta_t_max_frac, TimingScenario, delay, params)
        object.__setattr__(self, "_kappa_params", tuple(stack))
        object.__setattr__(self, "_kappa_gates", tuple(gates))
        ratio = self.offset_kappa_ratio
        offset = _built("offset_kappa_ratio", ratio, self.params, ratio)
        _built("offset_kappa_ratio", ratio, decayed_i000, offset)
        model, per_atom = self.offset_model, self.offset_eta_per_atom
        _built("offset_model", model, OffsetScenario, 0.0, 1, offset, model, (0.0,) * 3)
        _built("offset_eta_per_atom", per_atom, OffsetScenario, 0.0, 1, offset, model, per_atom)
        _built("eta_max", self.eta_max, OffsetScenario, self.eta_max, 1, offset)
        for chi in self.chi_list:
            _built("chi_list", chi, OffsetScenario, 0.0, chi, offset)
        _built("lambda0", self.lambda0, positions_for_ratio, self.lambda0)

    def iteration_us(self) -> float:
        """Two lossless gate times, one search iteration, in microseconds: the
        one figure in physical units, at the atom-1 coupling in rad/s."""
        return 2.0 * gate_time(CavityParams.designed(2.0 * math.pi * self.omega1c_khz * 1e3)) * 1e6

    def params(self, kappa_ratio: float) -> CavityParams:
        """Designed couplings and decay in units of the atom-1 coupling."""
        return CavityParams.designed(1.0, kappa_ratio)

    def delta_t_fracs(self) -> np.ndarray:
        return np.linspace(0.0, self.delta_t_max_frac, self.delta_t_points)

    def eta_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.eta_max, self.eta_points)


def _built(key: str, value, build, *args):
    """``build(*args)``, with the key and its given value prefixed to any ``ConfigError``."""
    try:
        return build(*args)
    except ConfigError as exc:
        raise ConfigError(f"{key} = {_value_text(value) or '(empty)'}: {exc}") from exc


def _check_grid(name: str, values: tuple) -> None:
    if not values:
        raise ConfigError(f"{name} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly increasing, got {values}")


# --- flat key = value config files -------------------------------------


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file; '#' starts a comment.

    Every key is optional and defaults to the reference values; unknown
    keys and a key given twice are rejected with the offending name.
    """
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    overrides: dict = {}
    seen: dict[str, int] = {}  # key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in defaults:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"config line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            overrides[key] = _parse_value(key, value, defaults[key])
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**overrides)


def _parse_value(key: str, value: str, default):
    if key == "output":
        return value or None
    if isinstance(default, tuple):  # a list of the default's element type
        return tuple(type(default[0])(v) for v in value.split(",") if v.strip())
    if key == "offset_eta_per_atom":
        if not value:
            return None
        triple = tuple(float(v) for v in value.split(",") if v.strip())
        if len(triple) != 3:
            raise ConfigError(f"{key} needs exactly three comma-separated values")
        return triple
    return type(default)(value)  # int, float or str, as the default


def serialize_config(config: ExperimentConfig) -> str:
    """Emit the full configuration as the flat text format; round-trips
    through ``parse_config`` exactly."""
    lines = [f"{f.name} = {_value_text(getattr(config, f.name))}" for f in fields(config)]
    return "\n".join(lines) + "\n"


def _value_text(value) -> str:
    """A config value as the flat text format writes it."""
    if value is None:
        return ""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _over_kappa(experiment: str, config: ExperimentConfig, run, *axes):
    """``run(stack, *axes)`` in one call for every decay ratio; on a
    ``NumericalError`` alone, one-ratio stacks again, to name the first that fails."""
    stack = config._kappa_params
    try:
        return run(stack, *axes)
    except NumericalError as exc:
        for ratio, params, *point in zip(config.kappa_ratios, stack, *axes):
            try:
                run([params], *([row] for row in point))
            except NumericalError as one:
                raise NumericalError(f"{experiment} failed at kappa_ratio={ratio}: {one}") from one
        raise NumericalError(f"{experiment} failed over all kappa_ratios: {exc}") from exc


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
    gamma0 = residual_gate_entry(config.params(0.0))
    lines = [f"lossless |001⟩ gate entry: {gamma0:.6f}"]
    analytic = np.array([gate.entries() for gate in config._kappa_gates])
    times = [gate_time(p) for p in config._kappa_params]
    extract = _over_kappa("gate", config, extract_gate, times)
    simulated = extract.restricted.diagonal()
    for ratio, worst in zip(config.kappa_ratios, np.abs(simulated - analytic).max(axis=1)):
        lines.append(f"kappa_ratio={ratio}: max |analytic - simulated| = {worst:.3e}")
    return SweepTable(
        experiment="gate",
        header=("kappa_ratio", "slot", "analytic", "simulated_real", "simulated_imag", "leakage"),
        columns=(
            Axis(config.kappa_ratios, repeat=8),
            Axis(np.arange(8), tile=len(config.kappa_ratios)),
            analytic.ravel(),
            simulated.real.ravel(),
            simulated.imag.ravel(),
            extract.leakage.ravel(),
        ),
        summary="\n".join(lines),
    )


def _search_experiment(config: ExperimentConfig) -> SweepTable:
    tau = MarkedState(config.tau)
    grid = run_search(tau, config.k_max, config._kappa_gates)
    lines = [
        f"marked state |{tau}⟩; "
        "fidelity = normalized overlap with the exact-gate trajectory"
    ]
    lines.append(f"iteration time (two gates, kappa=0): {config.iteration_us():.2f} us")
    for ratio, p_find in zip(config.kappa_ratios, grid.p_find):
        best = int(p_find.argmax())
        lines.append(f"kappa_ratio={ratio}: best p_find={p_find[best]:.4f} at k={best + 1}")
    return SweepTable(
        experiment="search",
        header=("iteration", "kappa_ratio", "p_find", "survival", "fidelity"),
        columns=(
            Axis(np.arange(1, config.k_max + 1), tile=len(config.kappa_ratios)),
            Axis(config.kappa_ratios, repeat=config.k_max),
            grid.p_find.ravel(),
            grid.survival.ravel(),
            grid.fidelity.ravel(),
        ),
        summary="\n".join(lines),
    )


def _timing_experiment(config: ExperimentConfig) -> SweepTable:
    fracs = config.delta_t_fracs()
    delta_ts = [fracs * gate_time(p) for p in config._kappa_params]
    formula = _over_kappa("timing", config, timing_infidelity, delta_ts)
    oracle = _over_kappa("timing", config, timing_oracle, delta_ts)
    lines = ["delta_t in fractions of one gate time; atom 1 exits late"]
    for ratio, at_zero, oracle_at_zero in zip(config.kappa_ratios, formula[:, 0], oracle[:, 0]):
        lines.append(  # each grid starts at delta_t = 0
            f"kappa_ratio={ratio}: delta_t=0 infidelity formula={at_zero:.3e} "
            f"oracle={oracle_at_zero:.3e}"
        )
    return SweepTable(
        experiment="timing",
        header=("kappa_ratio", "delta_t_frac", "infidelity_formula", "infidelity_oracle"),
        columns=(
            Axis(config.kappa_ratios, repeat=len(fracs)),
            Axis(fracs, tile=len(config.kappa_ratios)),
            formula.ravel(),
            oracle.ravel(),
        ),
        summary="\n".join(lines),
    )


def _offset_experiment(config: ExperimentConfig) -> SweepTable:
    ratio = config.offset_kappa_ratio
    params = config.params(ratio)
    etas = config.eta_grid()
    grid = coupling_offset_infidelity(
        params, config.chi_list, etas, config.offset_model, config.offset_eta_per_atom
    )
    baseline = coupling_offset_infidelity(params, config.chi_list[:1], [0.0])[0, 0]
    lines = [
        f"offset model: {config.offset_model}; four-gate search at "
        f"kappa_ratio={ratio}",
        f"eta=0 decay-only baseline: {baseline:.4e}",
    ]
    return SweepTable(
        experiment="offset",
        header=("eta", "chi", "kappa_ratio", "infidelity_formula"),
        columns=(
            Axis(etas, tile=len(config.chi_list)),
            Axis(config.chi_list, repeat=len(etas)),
            Axis([ratio], repeat=grid.size),
            grid.ravel(),
        ),
        summary="\n".join(lines),
    )


def _geometry_experiment(config: ExperimentConfig) -> SweepTable:
    z1, z2, z3 = positions_for_ratio(config.lambda0)
    # The ratio is scale-free: at lambda0 = 1, since a subnormal z rounds it.
    unit1, unit2, _ = positions_for_ratio(1.0)
    ratio = abs(unit1) / abs(unit2)
    summary = (
        f"crossing offsets in units of lambda0={config.lambda0}: "
        f"z1={z1:.6f}, z2={z2:.6f}, z3={z3:.6f}\n"
        f"|z1|/|z2| = {ratio:.4f}"
    )
    return SweepTable(
        experiment="geometry",
        header=("z1", "z2", "z3", "ratio_z1_z2"),
        columns=([z1], [z2], [z3], [ratio]),
        summary=summary,
    )


_RUNNERS = {
    "gate": _gate_experiment,
    "search": _search_experiment,
    "timing": _timing_experiment,
    "offset": _offset_experiment,
    "geometry": _geometry_experiment,
}

