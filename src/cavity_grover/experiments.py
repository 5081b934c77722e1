"""Parameter sweeps behind the CLI: deterministic CSV tables plus a short
text summary per experiment.

Every experiment is a pure function of its configuration: no randomness,
fixed grid order, shortest round-trip float formatting, so repeated runs
emit byte-identical files. Each returns a column-wise ``SweepTable``: the
grid coordinates as ``Axis`` columns (values, repeat, tile), the computed
grids flattened; ``write_csv`` formats each axis value and each computed
value once, with one ``repr``. Each quantity is one call over a whole
axis: one ``run_search`` for every decay ratio, one
``coupling_offset_infidelity`` for the (chi, eta) grid, and one
``extract_gate``, ``timing_infidelity`` and ``timing_oracle`` each for the
stack of every decay ratio. The runs read the parameter sets and gates
config load built; ``offset``'s eta = 0 baseline needs only the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import CavityParams, extract_gate, gate_time, positions_for_ratio
from .errors import ConfigError, NumericalError
from .gates import decayed_i000, full_diagonal, marked_index, residual_gate_entry
from .grover import check_k_max, run_search
from .imperfections import (
    _four_gate_infidelities,
    check_chi,
    coupling_offset_infidelity,
    delay_fractions,
    offset_couplings,
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

    Loading keeps the parameter set and the gate slots it builds to check
    each decay ratio, in ratio order, and ``offset_kappa_ratio`` (plain
    attributes, not fields: ``_kappa_params``, ``_kappa_gates`` (K, 4),
    ``_offset_params``, ``_offset_gate`` (4,)), and the runs read those.
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
        if self.eta_max < 0:  # delay_fractions below bounds delta_t_max_frac
            raise ConfigError(f"eta_max must be >= 0, got {self.eta_max}")
        for key, maximum, points in (
            ("delta_t_max_frac", self.delta_t_max_frac, self.delta_t_points),
            ("eta_max", self.eta_max, self.eta_points),
        ):
            if points > 1 and maximum == 0:
                raise ConfigError(f"{key} must be > 0 for a {points}-point grid")
        # Every other rule is written once, by the type or function that uses
        # the value: build and check what the experiments will, so a bad value
        # fails at load time whichever experiment runs, with its key named.
        _built("k_max", self.k_max, check_k_max, self.k_max)
        _built("tau", self.tau, marked_index, self.tau)
        _built("omega1c_khz", self.omega1c_khz, self.iteration_us)
        # linspace ends exactly at delta_t_max_frac: the sweep's last delay.
        _built("delta_t_max_frac", self.delta_t_max_frac, delay_fractions, [self.delta_t_max_frac])
        stack, gates = [], []
        for ratio in self.kappa_ratios:
            stack.append(params := _built("kappa_ratios", ratio, self.params, ratio))
            gates.append(_built("kappa_ratios", ratio, decayed_i000, params))  # fails if damped out
        object.__setattr__(self, "_kappa_params", tuple(stack))
        object.__setattr__(self, "_kappa_gates", gates := np.array(gates))
        gates.flags.writeable = False
        ratio = self.offset_kappa_ratio
        offset = _built("offset_kappa_ratio", ratio, self.params, ratio)
        gate = _built("offset_kappa_ratio", ratio, decayed_i000, offset)
        object.__setattr__(self, "_offset_params", offset)
        object.__setattr__(self, "_offset_gate", gate)
        model, per_atom = self.offset_model, self.offset_eta_per_atom
        _built("offset_model", model, offset_couplings, offset, [0.0], model, (0.0,) * 3)
        _built("offset_eta_per_atom", per_atom, offset_couplings, offset, [0.0], model, per_atom)
        _built("eta_max", self.eta_max, offset_couplings, offset, [self.eta_max])
        for chi in self.chi_list:
            _built("chi_list", chi, check_chi, chi)
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
    if key == "offset_eta_per_atom" or isinstance(default, tuple):
        # Each comma-separated item converts to the default's element type
        # (float for the per-atom triple): a blank item fails, and an empty
        # value is the empty list.
        kind = type(default[0]) if default else float
        items = tuple(map(kind, value.split(","))) if value else ()
        if key != "offset_eta_per_atom":
            return items
        if len(items) not in (0, 3):
            raise ConfigError(f"{key} needs exactly three comma-separated values")
        return items or None
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


def run_experiment(name: str, config: ExperimentConfig) -> SweepTable:
    """Run one named experiment and return its table; a ``NumericalError``
    naming a row of the decay-ratio stack is raised again naming its ratio.

    ``gate``     analytic vs simulated phase-gate diagonals and leakage
    ``search``   per-iteration probability/survival/fidelity per kappa
    ``timing``   atom-1 delay sweep: closed form and dynamical oracle
    ``offset``   coupling-offset grid over eta and imperfect-cavity count
    ``geometry`` crossing positions realizing the designed coupling ratio
    """
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    try:
        return _RUNNERS[name](config)
    except NumericalError as exc:
        if exc.row is None:
            raise
        ratio = config.kappa_ratios[exc.row]
        raise NumericalError(f"{name} failed at kappa_ratio={ratio}: {exc}") from exc


def _gate_experiment(config: ExperimentConfig) -> SweepTable:
    gamma0 = residual_gate_entry(config.params(0.0))
    lines = [f"lossless |001⟩ gate entry: {gamma0:.6f}"]
    analytic = full_diagonal(config._kappa_gates)
    extract = extract_gate(config._kappa_params, [gate_time(p) for p in config._kappa_params])
    simulated = extract.restricted.diagonal(0, -2, -1)
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
    grid = run_search(config.k_max, config._kappa_gates)
    lines = [
        f"marked state |{config.tau}⟩; "
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
    formula = timing_infidelity(config._kappa_params, fracs)
    oracle = timing_oracle(config._kappa_params, fracs)
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
    params = config._offset_params
    etas = config.eta_grid()
    grid = coupling_offset_infidelity(
        params, config.chi_list, etas, config.offset_model, config.offset_eta_per_atom
    )
    # At eta = 0 the atom-1 offset factors are the design factors.
    base = config._offset_gate
    baseline = _four_gate_infidelities(base[None], base, config.chi_list[:1])[0, 0]
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

