"""Closed-form error budgets for two experimental imperfections.

Timing mismatch: atom 1 is slightly slow and keeps interacting for an extra
``delta_t`` after atoms 2 and 3 have left the mode. The gate leaves each
atom-1-in-``E`` column with an atom-1 and a photon amplitude, and one delay
step applies the exact atom-1 block to them. The closed form takes those
amplitudes from the decayed gate (a photon only on |001⟩, from the partly
open atoms-1+3 Rabi cycle); its full-dynamics oracle ``timing_oracle``
takes them from ``gates.exact_columns``, the exact one-excitation blocks on
the same column model. ``timing_oracle_dense`` evolves the whole Hilbert
space at one delay and is the tests' reference for the blocks.

Coupling offsets: some of the four cavities in a two-iteration search run
with couplings off their design values by a relative offset ``eta``. The
closed form depends on the coupling ratios only, so only ratio-breaking
models (the default perturbs atom 1 alone) produce any ``eta`` dependence.
It has no full-dynamics oracle; ``coupling_offset_infidelity`` states the
error it drops.

Both infidelities are 1 minus a uniform-input fidelity: the gate is applied
to the uniform superposition and the result is compared, after
renormalization, with what the exact gate sequence would have produced.
One row-wise fidelity scores every delay and every offset. Each function
takes a whole axis: the timing ones K parameter sets and a (K, D) delay
grid, the offset one a 1-D ``etas``; one point is the one-value case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CavityParams,
    _check_result,
    add_cavity_decay,
    as_stack,
    block_propagator,
    decay_shifted_frequency,
    evolve,
    evolve_logical_basis,
    exchange_hamiltonian,
    gate_time,
)
from .errors import ConfigError
from .gates import _DESIGN_PHASES, TEXTBOOK, _bright_columns, decayed_i000, exact_columns
from .grover import _uniform_register

OFFSET_MODELS = ("atom1", "uniform", "per_atom")


@dataclass(frozen=True)
class TimingScenario:
    """Atom 1 exits ``delta_t`` after atoms 2 and 3 (who leave on time,
    after one gate time), in the inverse unit of the rates in ``params``.
    ``delta_t`` may be an array of delays, one scenario per value."""

    delta_t: float
    params: CavityParams

    def __post_init__(self) -> None:
        t_gate = gate_time(self.params)
        delta_t = np.asarray(self.delta_t)
        bad = delta_t[~((0.0 <= delta_t) & (delta_t <= t_gate))]  # NaN fails too
        if bad.size:
            raise ConfigError(
                f"delta_t={bad[0]} outside [0, one gate time = {t_gate}]; "
                "the overrun model only covers small delays"
            )


@dataclass(frozen=True)
class OffsetScenario:
    """``chi`` of the four phase-gate cavities run with offset couplings.

    ``model`` picks how the offset maps onto the triple: ``atom1`` scales
    only the first coupling by (1 + eta), ``uniform`` scales all three,
    ``per_atom`` applies individual factors (1 + eta_j) from
    ``per_atom_eta``. The imperfect cavities are assumed identical.
    ``eta`` may be an array of offsets, one scenario per value.
    """

    eta: float
    chi: int
    params: CavityParams
    model: str = "atom1"
    per_atom_eta: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.chi not in (1, 2, 3, 4):
            raise ConfigError(f"chi counts imperfect cavities, must be 1..4, got {self.chi}")
        eta = np.asarray(self.eta)
        bad = eta[~(np.abs(eta) < 1.0)]  # NaN fails too
        if bad.size:
            raise ConfigError(f"|eta| must be < 1, got {bad[0]}")
        if self.model not in OFFSET_MODELS:
            raise ConfigError(f"offset model must be one of {OFFSET_MODELS}, got {self.model!r}")
        if self.model == "per_atom" and self.per_atom_eta is None:
            raise ConfigError("per_atom model needs three per-atom offsets (eta1, eta2, eta3)")
        per_atom = self.per_atom_eta  # checked whenever given, whatever the model
        if per_atom is not None and not (len(per_atom) == 3 and all(abs(e) < 1 for e in per_atom)):
            raise ConfigError(f"per-atom offsets must be three values, |eta| < 1, got {per_atom}")


# The exact |000⟩ phase gate applied to the uniform register.
_GATE_REFERENCE = np.array(TEXTBOOK.entries()) * _uniform_register()


def _row_infidelity(reference: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """1 - |<reference|row>|^2 / <row|row> along the last axis of
    ``outputs``, unnormalized states, against a normalized ``reference``."""
    overlap = (reference.conj() * outputs).sum(axis=-1)
    return 1.0 - abs(overlap) ** 2 / (abs(outputs) ** 2).sum(axis=-1)


def _axis(name: str, values, ndim: int = 1) -> np.ndarray:
    """``values`` as an ``ndim``-D float array, else a ``ConfigError`` naming ``name``."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != ndim:
        raise ConfigError(f"{name} must be a {ndim}-D sequence of values, got shape {axis.shape}")
    return axis


def _delayed_infidelities(
    params: Sequence[CavityParams], delta_ts, columns: np.ndarray
) -> np.ndarray:
    """Gate infidelity of each of K parameter sets at every delay in its row
    of the (K, D) ``delta_ts``, in order, from the (K, 2, 4) (atom-1, photon)
    amplitudes ``columns`` of the four atom-1-in-``E`` columns at the gate
    time: each delay dt applies ``block_propagator(w1, kappa, dt)``, and the
    other four columns stay exactly 1."""
    stack = as_stack(params)
    delays = _axis("delta_ts", delta_ts, 2)
    if len(delays) != len(stack):
        raise ConfigError(f"delta_ts needs one row per parameter set, got shape {delays.shape}")
    for row, p in zip(delays, stack):
        TimingScenario(row, p)  # validates every delay
    w1, kappa = np.array([(p.omega[0], p.kappa) for p in stack]).T[..., None]
    atom1 = block_propagator(w1, kappa, delays)[..., 0, :] @ columns
    _check_result(atom1, None)
    diagonals = np.concatenate([atom1, np.ones(atom1.shape)], axis=-1)
    return _row_infidelity(_GATE_REFERENCE, diagonals * _uniform_register())


def timing_infidelity(params: Sequence[CavityParams], delta_ts) -> np.ndarray:
    """Closed-form gate infidelity caused by atom 1 overstaying by dt, for
    each of K parameter sets at every delay dt in its row of the (K, D)
    ``delta_ts``, in order: a (K, D) array.

    The block model of ``timing_oracle`` with the paper's approximations:
    the atom-1 amplitudes are ``decayed_i000``'s entries, with its two, and
    the photon column makes a third. Of the exact (w1/W)*P10(W, T) =
    -i*exp(-kappa*T/4) * w1/a * sin(a*T) it keeps -i*w1/a13 * sin(sqrt(65)*pi)
    on |001⟩ (a13 = sqrt(w1^2 + w3^2 - kappa^2/16)) and 0 on closed cycles:
    the phase moves as in the gate, and the envelope is dropped. Over dt the
    atom-1 block scales each entry by xi = exp(-kappa*dt/4) * [cos(a1*dt) +
    kappa/(4*a1) * sin(a1*dt)], a1 = sqrt(w1^2 - kappa^2/16), and adds to
    |001⟩ -w1^2/(a1*a13) * exp(-kappa*dt/4) * sin(a1*dt) * sin(sqrt(65)*pi).
    """
    columns = []
    for p in as_stack(params):  # scalar calls, one per set
        bright_sq, _ = _bright_columns(*p.omega)
        a13 = decay_shifted_frequency(math.sqrt(bright_sq[1]), p.kappa)  # the |001⟩ column
        photon = -1j * p.omega[0] / a13 * math.sin(_DESIGN_PHASES[1])
        columns.append([decayed_i000(p).entries()[:4], [0.0, photon, 0.0, 0.0]])
    return _delayed_infidelities(params, delta_ts, np.array(columns))


def timing_oracle(params: Sequence[CavityParams], delta_ts) -> np.ndarray:
    """Full-dynamics counterpart of ``timing_infidelity``, on the same K
    parameter sets and (K, D) delays. One gate time leaves each
    atom-1-in-``E`` column the exact amplitudes of ``gates.exact_columns``;
    each delay then applies P(w1, dt). ``timing_oracle_dense`` is its reference.
    """
    return _delayed_infidelities(params, delta_ts, exact_columns(params))


def timing_oracle_dense(scenario: TimingScenario, rk4_steps: int | None = None) -> float:
    """``timing_oracle`` at one delay by dense propagation: the test reference.

    Evolves each logical basis state under the complete no-jump Hamiltonian
    for one gate time, then under the atom-1-only coupling (atoms 2 and 3
    gone, decay still on) for delta_t, projects onto the logical subspace,
    and evaluates the same uniform-input infidelity. ``rk4_steps`` is passed
    to ``evolve``.
    """
    if np.ndim(scenario.delta_t) != 0:
        raise ConfigError(f"delta_t must be one delay, got shape {np.shape(scenario.delta_t)}")
    params = scenario.params
    embedding, mids = evolve_logical_basis([params], [gate_time(params)], rk4_steps)
    h_atom1 = exchange_hamiltonian((params.omega[0], 0.0, 0.0))  # atoms 2, 3 gone
    add_cavity_decay(h_atom1, params.kappa)
    logical = list(embedding)
    gate = np.column_stack(
        [evolve(h_atom1, scenario.delta_t, mid, rk4_steps).amplitudes[0, logical] for mid in mids]
    )
    return float(_row_infidelity(_GATE_REFERENCE, gate @ _uniform_register()))


def offset_couplings(scenario: OffsetScenario) -> tuple[float, float, float]:
    """Coupling triple inside an imperfect cavity under the chosen model;
    an array ``eta`` gives arrays where the model uses it."""
    w1, w2, w3 = scenario.params.omega
    if scenario.model == "atom1":
        return ((1.0 + scenario.eta) * w1, w2, w3)
    if scenario.model == "uniform":
        s = 1.0 + scenario.eta
        return (s * w1, s * w2, s * w3)
    e1, e2, e3 = scenario.per_atom_eta
    return ((1.0 + e1) * w1, (1.0 + e2) * w2, (1.0 + e3) * w3)


def coupling_offset_infidelity(
    params: CavityParams, chis: Sequence[int], etas: Sequence[float],
    model: str = "atom1", per_atom_eta: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Closed-form infidelity of a two-iteration search (four phase gates)
    when ``chi`` of the four cavities carry offset couplings, at every
    (chi, eta) pair: a (len(chis), len(etas)) array.

    Each four-gate composite damping factor multiplies ``chi`` imperfect-
    cavity factors with ``4 - chi`` design factors. In an imperfect-cavity
    factor the weights p1^2/(p1^2 + ...) come from the offset couplings,
    while decay, gate time and the Rabi phases stay at their design values
    (``decayed_i000``): sqrt(65)*pi on |001⟩, and cos = -1 or +1 on |000⟩,
    |010⟩ and |011⟩, as if every Rabi cycle still closed.
    So the |000⟩ factor is exp(-kappa*t/4) whatever the offset, and under a
    uniform offset the weights cancel and the whole infidelity is exactly
    independent of eta.

    Simulated gates (``dynamics.extract_gate``) disagree: an offset atom-1
    cycle does not close at the design gate time, so even their |000⟩ entry
    moves with eta. At kappa = w1/10 and eta = +0.05 this form falls with
    chi (0.0083388 -> 0.0083317), four simulated gates rise (0.008745 -> 0.009994).

    Each chi is checked once, and one scenario holding the whole eta array
    checks every offset. One ``decayed_i000`` call on the coupling arrays
    gives every offset factor, and the fidelity is row-wise, so each point
    is computed exactly as it would be alone. Only the four atom-1-in-``E``
    slots decay, so only their (len(etas), 4) block is raised to the power
    chi; the other four slots of every output row are u, as 1**chi * 1 * u is.
    """
    etas = _axis("etas", etas)
    for chi in chis:
        OffsetScenario(0.0, chi, params, model, per_atom_eta)  # validates
    scenario = OffsetScenario(etas, 1, params, model, per_atom_eta)
    # One value per eta for every coupling, also those the model leaves fixed.
    couplings = np.broadcast_arrays(*offset_couplings(scenario), scenario.eta)[:3]
    base = np.array(decayed_i000(params).entries()[:4])
    primed = np.stack(np.broadcast_arrays(*decayed_i000(params, couplings).entries()[:4]), 1)
    # After an even number of phase gates the |000⟩ sign flips cancel, so
    # the exact four-gate reference is the uniform register u itself.
    u = _uniform_register().real
    outputs = np.empty((len(etas), 8))
    outputs[:, 4:] = u[4:]
    rows = []
    for chi in chis:
        outputs[:, :4] = primed**chi * base ** (4 - chi) * u[:4]
        rows.append(_row_infidelity(u, outputs))
    return np.array(rows)
