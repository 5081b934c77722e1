"""Parameter sweeps behind the CLI: deterministic CSV tables plus a short
text summary per experiment.

Every experiment is a pure function of its configuration: no randomness,
fixed grid order, shortest round-trip float formatting, so repeated runs
emit byte-identical files. Each returns the plain triple ``(header,
columns, summary)``: the grid coordinates as ``Axis`` columns (values,
repeat, tile), the computed grids flattened. ``write_csv`` checks the
columns (count, lengths, finiteness) before it opens the path, then formats
each axis value and each computed value once, with one ``repr``. Each
quantity is one call over a whole axis: one ``run_search`` for every decay
ratio, one ``coupling_offset_infidelity`` for the (chi, eta) grid, and one
``extract_gate``, ``timing_infidelity`` and ``timing_oracle`` each for the
axis of every decay ratio, kappa/omega1; only ``gate`` builds the dense
engine's ``CavityParams``. ``gate`` and ``search`` build their ratios' gates
with one ``decayed_i000`` call (``gate``'s lossless |001⟩ entry is a constant
built at import); ``offset``'s eta = 0 baseline needs only its ratio's gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import CavityParams, extract_gate, gate_time, positions_for_ratio
from .errors import ConfigError, NumericalError, _refuse_bools
from .gates import decayed_i000, full_diagonal, marked_index
from .grover import check_grid_size, run_search
from .imperfections import (
    _four_gate_infidelities,
    check_chi,
    coupling_offset_infidelity,
    delay_fractions,
    offset_couplings,
    timing_infidelity,
    timing_oracle,
)
from .tables import Axis, write_csv  # noqa: F401  (write_csv re-exported)

EXPERIMENTS = ("gate", "search", "timing", "offset", "geometry")


@dataclass(frozen=True)
class ExperimentConfig:
    """All experiment inputs, with the reference defaults baked in.

    Every table depends on kappa/omega1 and the coupling ratios alone, so
    the experiments compute in units of the atom-1 coupling (omega1 = 1,
    times in 1/omega1); kappa is specified as a fraction of it. The atom-1
    coupling itself enters in kHz (cycles, not angular) and only sets the
    search summary's iteration time. Sweep grids are uniform with
    ``*_points`` samples from 0 to ``*_max``.
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
    photon_cutoff: int = 1  # retired: the basis stops at one photon
    lambda0: float = 1.0
    output: str | None = None
    threads: int = 1  # retired: every run is single-threaded

    def __post_init__(self) -> None:
        for key in ("kappa_ratios", "chi_list", "offset_eta_per_atom"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, tuple(getattr(self, key)))
        for key, rule, *args in (  # the rules only the config knows
            ("kappa_ratios", _increasing),
            ("chi_list", _increasing),
            ("delta_t_points", check_grid_size, "delta_t_points"),
            ("eta_points", check_grid_size, "eta_points"),
            ("threads", _retired),
            ("photon_cutoff", _retired),
            ("eta_max", _non_negative),  # delay_fractions below bounds delta_t_max_frac
            ("delta_t_max_frac", _grid_end, self.delta_t_points),
            ("eta_max", _grid_end, self.eta_points),
            ("k_max", check_grid_size, "k_max"),
        ):
            _built(key, getattr(self, key), rule, getattr(self, key), *args)
        # Every other rule is written once, by the type or function that uses
        # the value: build and check what the experiments will, so a bad value
        # fails at load time whichever experiment runs, with its key named.
        _built("tau", self.tau, marked_index, self.tau)
        _built("omega1c_khz", self.omega1c_khz, self.iteration_us)
        # linspace ends exactly at delta_t_max_frac: the sweep's last delay.
        _built("delta_t_max_frac", self.delta_t_max_frac, delay_fractions, [self.delta_t_max_frac])
        for ratio in self.kappa_ratios:  # in order: the first bad ratio is named
            _built("kappa_ratios", ratio, decayed_i000, ratio)
        _built("offset_kappa_ratio", self.offset_kappa_ratio, decayed_i000, self.offset_kappa_ratio)
        model, per_atom = self.offset_model, self.offset_eta_per_atom
        _built("offset_model", model, offset_couplings, [0.0], model, (0.0,) * 3)
        _built("offset_eta_per_atom", per_atom, offset_couplings, [0.0], model, per_atom)
        _built("eta_max", self.eta_max, offset_couplings, [self.eta_max])
        for chi in self.chi_list:
            _built("chi_list", chi, check_chi, chi)
        _built("lambda0", self.lambda0, positions_for_ratio, self.lambda0)
        _built("output", self.output, _flat_path, self.output)

    def iteration_us(self) -> float:
        """Two lossless gate times, one search iteration, in microseconds: the
        one figure in physical units, at the atom-1 coupling in rad/s."""
        _refuse_bools("omega1c_khz", self.omega1c_khz)  # before it is a float
        return 2.0 * gate_time(CavityParams.designed(2.0 * math.pi * self.omega1c_khz * 1e3)) * 1e6

    def delta_t_fracs(self) -> np.ndarray:
        return np.linspace(0.0, self.delta_t_max_frac, self.delta_t_points)

    def eta_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.eta_max, self.eta_points)


def _built(key: str, value, build, *args):
    """``build(*args)``, with the key and its given value prefixed to any
    ``ConfigError``."""
    try:
        return build(*args)
    except ConfigError as exc:
        raise ConfigError(f"{key} = {_value_text(value) or '(empty)'}: {exc}") from exc


def _increasing(values: tuple) -> None:
    if not values:
        raise ConfigError("must not be empty")
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ConfigError(f"must be strictly increasing, got {b} after {a}")


def _retired(value) -> None:
    if value != 1 or isinstance(value, (bool, np.bool_)):
        raise ConfigError("retired, its only value is 1")


def _non_negative(value: float) -> None:
    if value < 0:
        raise ConfigError("must be >= 0")


def _grid_end(maximum: float, points: int) -> None:
    if points > 1 and maximum == 0:
        raise ConfigError(f"must be > 0 for a {points}-point grid")


def _flat_path(value) -> None:
    """None, or a path the flat format reads back as itself."""
    held = isinstance(value, str) and "#" not in value
    if value is not None and not (held and value.splitlines() == [value.strip()] == [value]):
        raise ConfigError("must be a path with no '#', line break, or whitespace at either end")


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
        key, value = (part.strip() for part in line.split("=", 1))
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


def run_experiment(name: str, config: ExperimentConfig) -> tuple:
    """Run one named experiment and return its table, the plain triple
    ``(header, columns, summary)`` that ``write_csv`` checks and writes; a
    ``NumericalError`` naming a row of the decay-ratio stack is raised
    again naming its ratio.

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


# The |001⟩ entry of the gate a lossless cavity realizes (see ``gates``).
_LOSSLESS_I001 = decayed_i000(0.0)[1]


def _gate_experiment(config: ExperimentConfig) -> tuple:
    lines = [f"lossless |001⟩ gate entry: {_LOSSLESS_I001:.6f}"]
    analytic = full_diagonal(decayed_i000(config.kappa_ratios))
    params = [CavityParams.designed(1.0, ratio) for ratio in config.kappa_ratios]
    restricted, leakage = extract_gate(params, [gate_time(p) for p in params])
    simulated = restricted.diagonal(0, -2, -1)
    for ratio, worst in zip(config.kappa_ratios, np.abs(simulated - analytic).max(axis=1)):
        lines.append(f"kappa_ratio={ratio}: max |analytic - simulated| = {worst:.3e}")
    return (
        ("kappa_ratio", "slot", "analytic", "simulated_real", "simulated_imag", "leakage"),
        (
            Axis(config.kappa_ratios, repeat=8),
            Axis(np.arange(8), tile=len(config.kappa_ratios)),
            analytic.ravel(),
            simulated.real.ravel(),
            simulated.imag.ravel(),
            leakage.ravel(),
        ),
        "\n".join(lines),
    )


def _search_experiment(config: ExperimentConfig) -> tuple:
    p_find, survival, fidelity = run_search(config.k_max, decayed_i000(config.kappa_ratios))
    lines = [
        f"marked state |{config.tau}⟩; "
        "fidelity = normalized overlap with the exact-gate trajectory"
    ]
    lines.append(f"iteration time (two gates, kappa=0): {config.iteration_us():.2f} us")
    for ratio, row in zip(config.kappa_ratios, p_find):
        best = int(row.argmax())
        lines.append(f"kappa_ratio={ratio}: best p_find={row[best]:.4f} at k={best + 1}")
    return (
        ("iteration", "kappa_ratio", "p_find", "survival", "fidelity"),
        (
            Axis(np.arange(1, config.k_max + 1), tile=len(config.kappa_ratios)),
            Axis(config.kappa_ratios, repeat=config.k_max),
            p_find.ravel(),
            survival.ravel(),
            fidelity.ravel(),
        ),
        "\n".join(lines),
    )


def _timing_experiment(config: ExperimentConfig) -> tuple:
    fracs = config.delta_t_fracs()
    formula = timing_infidelity(config.kappa_ratios, fracs)
    oracle = timing_oracle(config.kappa_ratios, fracs)
    lines = ["delta_t in fractions of one gate time; atom 1 exits late"]
    for ratio, at_zero, oracle_at_zero in zip(config.kappa_ratios, formula[:, 0], oracle[:, 0]):
        lines.append(  # each grid starts at delta_t = 0
            f"kappa_ratio={ratio}: delta_t=0 infidelity formula={at_zero:.3e} "
            f"oracle={oracle_at_zero:.3e}"
        )
    return (
        ("kappa_ratio", "delta_t_frac", "infidelity_formula", "infidelity_oracle"),
        (
            Axis(config.kappa_ratios, repeat=len(fracs)),
            Axis(fracs, tile=len(config.kappa_ratios)),
            formula.ravel(),
            oracle.ravel(),
        ),
        "\n".join(lines),
    )


def _offset_experiment(config: ExperimentConfig) -> tuple:
    ratio = config.offset_kappa_ratio
    etas = config.eta_grid()
    grid = coupling_offset_infidelity(
        ratio, config.chi_list, etas, config.offset_model, config.offset_eta_per_atom
    )
    # At eta = 0 the atom-1 offset factors are the design factors.
    base = decayed_i000(ratio)
    baseline = _four_gate_infidelities(base[None], base, config.chi_list[:1])[0, 0]
    lines = [
        f"offset model: {config.offset_model}; four-gate search at "
        f"kappa_ratio={ratio}",
        f"eta=0 decay-only baseline: {baseline:.4e}",
    ]
    return (
        ("eta", "chi", "kappa_ratio", "infidelity_formula"),
        (
            Axis(etas, tile=len(config.chi_list)),
            Axis(config.chi_list, repeat=len(etas)),
            Axis([ratio], repeat=grid.size),
            grid.ravel(),
        ),
        "\n".join(lines),
    )


def _geometry_experiment(config: ExperimentConfig) -> tuple:
    z1, z2, z3 = positions_for_ratio(config.lambda0)
    # The ratio is scale-free: at lambda0 = 1, since a subnormal z rounds it.
    unit1, unit2, _ = positions_for_ratio(1.0)
    ratio = abs(unit1) / abs(unit2)
    summary = (
        f"crossing offsets in units of lambda0={config.lambda0}: "
        f"z1={z1:.6f}, z2={z2:.6f}, z3={z3:.6f}\n"
        f"|z1|/|z2| = {ratio:.4f}"
    )
    return ("z1", "z2", "z3", "ratio_z1_z2"), ([z1], [z2], [z3], [ratio]), summary


_RUNNERS = {
    "gate": _gate_experiment,
    "search": _search_experiment,
    "timing": _timing_experiment,
    "offset": _offset_experiment,
    "geometry": _geometry_experiment,
}

