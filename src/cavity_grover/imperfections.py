"""Closed-form error budgets for two experimental imperfections.

Timing mismatch: atom 1 is slightly slow and keeps interacting for an extra
``delta_t`` after atoms 2 and 3 have left the mode. During the overrun each
damped diagonal entry of the phase gate is multiplied by the atom-1 return
amplitude, and the |001⟩ entry also picks up a cross term from the partly
open atoms-1+3 Rabi cycle. A full-dynamics oracle cross-checks the closed
form.

Coupling offsets: some of the four cavities in a two-iteration search run
with couplings off their design values by a relative offset ``eta``. The
closed form raises each per-gate damping factor to the number of imperfect
gates, with the coupling-ratio weights recomputed from the offset couplings
but the Rabi phases taken at the design couplings. It therefore depends on
the coupling ratios only: a uniform offset leaves it unchanged, and only
ratio-breaking models (the default perturbs atom 1 alone) produce any
``eta`` dependence. It has no full-dynamics oracle. Simulated gates run for
the design gate time at offset couplings leave Rabi cycles unclosed, an
error this closed form drops; their four-gate infidelity rises with the
number of imperfect cavities, while the closed form's falls for eta > 0.

Both infidelities are 1 minus a uniform-input fidelity: the gate is applied
to the uniform superposition and the result is compared, after
renormalization, with what the exact gate sequence would have produced.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_SETTINGS,
    CavityParams,
    EvolutionSettings,
    _check_result,
    add_cavity_decay,
    decay_shifted_frequency,
    evolve,
    evolve_logical_basis,
    exchange_hamiltonian,
    gate_time,
)
from .errors import ConfigError
from .gates import _damping_factors, _pair13_phase, decayed_i000
from .grover import _fidelity, _uniform_register
from .hilbert import ProductBasis

OFFSET_MODELS = ("atom1", "uniform", "per_atom")


@dataclass(frozen=True)
class TimingScenario:
    """Atom 1 exits ``delta_t`` seconds after atoms 2 and 3 (who leave on
    time, after one gate time)."""

    delta_t: float
    params: CavityParams

    def __post_init__(self) -> None:
        if self.delta_t < 0:
            raise ConfigError(f"delta_t must be >= 0, got {self.delta_t}")
        if self.delta_t > gate_time(self.params):
            raise ConfigError(
                f"delta_t={self.delta_t} exceeds one gate time; "
                "the overrun model only covers small delays"
            )


@dataclass(frozen=True)
class OffsetScenario:
    """``chi`` of the four phase-gate cavities run with offset couplings.

    ``model`` picks how the offset maps onto the triple: ``atom1`` scales
    only the first coupling by (1 + eta), ``uniform`` scales all three,
    ``per_atom`` applies individual factors (1 + eta_j) from
    ``per_atom_eta``. The imperfect cavities are assumed identical.
    """

    eta: float
    chi: int
    params: CavityParams
    model: str = "atom1"
    per_atom_eta: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.chi not in (1, 2, 3, 4):
            raise ConfigError(f"chi counts imperfect cavities, must be 1..4, got {self.chi}")
        if abs(self.eta) >= 1.0:
            raise ConfigError(f"|eta| must be < 1, got {self.eta}")
        if self.model not in OFFSET_MODELS:
            raise ConfigError(f"offset model must be one of {OFFSET_MODELS}, got {self.model!r}")
        if self.model == "per_atom":
            if self.per_atom_eta is None or len(self.per_atom_eta) != 3:
                raise ConfigError("per_atom model needs three per-atom offsets (eta1, eta2, eta3)")
            if any(abs(e) >= 1.0 for e in self.per_atom_eta):
                raise ConfigError(f"per-atom offsets must satisfy |eta| < 1, got {self.per_atom_eta}")


def _one_gate_infidelity(output: np.ndarray) -> float:
    """Infidelity of ``output`` against the exact |000⟩ phase gate applied
    to the uniform register: the uniform state with its |000⟩ sign flipped."""
    reference = _uniform_register()
    reference[0] = -reference[0]
    return 1.0 - _fidelity(reference, output)


def timing_infidelity(scenario: TimingScenario) -> float:
    """Closed-form gate infidelity caused by atom 1 overstaying by delta_t:
    the one-delay case of ``timing_infidelity_grid``."""
    return timing_infidelity_grid(scenario.params, [scenario.delta_t])[0]


def timing_infidelity_grid(params: CavityParams, delta_ts: Sequence[float]) -> list[float]:
    """Closed-form timing infidelity at every delay dt in ``delta_ts``, in order.

    The overrun multiplies each damped diagonal entry by the atom-1 return
    amplitude

        xi = exp(-kappa*dt/4) * [cos(a1*dt) + kappa/(4*a1) * sin(a1*dt)],

    with a1 = sqrt(w1^2 - kappa^2/16), and shifts the |001⟩ entry by the
    atoms-1+3 cross amplitude

        w1^2/(a1*a13) * exp(-kappa*dt/4) * sin(a1*dt) * sin(sqrt(65)*pi),

    with a13 = sqrt(w1^2 + w3^2 - kappa^2/16). The result is the uniform-
    input infidelity of the shifted diagonal. The decayed gate, a1, a13 and
    the atoms-1+3 phase depend on ``params`` only and are evaluated once.
    """
    for dt in delta_ts:
        TimingScenario(dt, params)  # validates the delay
    w1, _, w3 = params.omega
    kappa = params.kappa
    a1 = decay_shifted_frequency(w1, kappa)
    a13 = decay_shifted_frequency(math.hypot(w1, w3), kappa)
    _, diag = decayed_i000(params)
    cross_scale = w1 * w1 / (a1 * a13)
    sin_pair13 = math.sin(_pair13_phase(params))
    uniform = _uniform_register()

    infidelities = []
    for dt in delta_ts:
        envelope = math.exp(-kappa * dt / 4.0)
        xi = envelope * (math.cos(a1 * dt) + kappa / (4.0 * a1) * math.sin(a1 * dt))
        cross = cross_scale * envelope * math.sin(a1 * dt) * sin_pair13
        entries = np.array(diag.entries())
        entries[:4] *= xi
        entries[1] -= cross
        infidelities.append(_one_gate_infidelity(entries * uniform))
    return infidelities


def timing_oracle(
    scenario: TimingScenario, settings: EvolutionSettings = DEFAULT_SETTINGS
) -> float:
    """Full-dynamics counterpart of ``timing_infidelity``.

    Evolves each logical basis state under the complete no-jump Hamiltonian
    for one gate time, then under the atom-1-only coupling (atoms 2 and 3
    gone, decay still on) for delta_t, projects onto the logical subspace,
    and evaluates the same uniform-input infidelity.
    """
    params = scenario.params
    embedding, mids = evolve_logical_basis(params, gate_time(params), settings)
    basis = mids[0].basis
    h_atom1 = _atom1_hamiltonian(params, basis)
    logical = list(embedding)
    gate = np.column_stack(
        [evolve(h_atom1, scenario.delta_t, mid, settings).amplitudes[logical] for mid in mids]
    )
    return _one_gate_infidelity(gate @ _uniform_register())


def timing_oracle_grid(params: CavityParams, delta_ts: Sequence[float]) -> list[float]:
    """``timing_oracle`` (matrix-exponential settings) at every delay in
    ``delta_ts``, in order.

    The logical states are evolved for one gate time once, into the columns
    of a block B. The atom-1-only generator -i*H_atom1 = V·diag(λ)·V⁻¹ is
    diagonalised once, so each delay costs one product
    V·diag(exp(λ·dt))·(V⁻¹·B) (the action-of-the-exponential view of
    Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)). Each propagated block
    passes the same finiteness and truncation checks as ``evolve``.
    """
    for dt in delta_ts:
        TimingScenario(dt, params)  # validates the delay
    embedding, mids = evolve_logical_basis(params, gate_time(params))
    basis = mids[0].basis
    block = np.column_stack([mid.amplitudes for mid in mids])
    rates, vectors = np.linalg.eig(-1j * _atom1_hamiltonian(params, basis))
    coeffs = np.linalg.solve(vectors, block)
    logical = list(embedding)
    uniform = _uniform_register()
    infidelities = []
    for dt in delta_ts:
        final = vectors @ (np.exp(rates * dt)[:, None] * coeffs)
        _check_result(final, basis)
        infidelities.append(_one_gate_infidelity(final[logical] @ uniform))
    return infidelities


def _atom1_hamiltonian(params: CavityParams, basis: ProductBasis) -> np.ndarray:
    """No-jump generator once atoms 2 and 3 have left: atom-1 exchange plus
    cavity decay."""
    return add_cavity_decay(
        exchange_hamiltonian((params.omega[0], 0.0, 0.0), basis), params.kappa, basis
    )


def offset_couplings(scenario: OffsetScenario) -> tuple[float, float, float]:
    """Coupling triple inside an imperfect cavity under the chosen model."""
    w1, w2, w3 = scenario.params.omega
    if scenario.model == "atom1":
        return ((1.0 + scenario.eta) * w1, w2, w3)
    if scenario.model == "uniform":
        s = 1.0 + scenario.eta
        return (s * w1, s * w2, s * w3)
    e1, e2, e3 = scenario.per_atom_eta
    return ((1.0 + e1) * w1, (1.0 + e2) * w2, (1.0 + e3) * w3)


def coupling_offset_infidelity(scenario: OffsetScenario) -> float:
    """Closed-form infidelity of a two-iteration search (four phase gates)
    when ``chi`` of the four cavities carry offset couplings.

    Each four-gate composite damping factor multiplies ``chi`` imperfect-
    cavity factors with ``4 - chi`` design factors. In an imperfect-cavity
    factor the weights p1^2/(p1^2 + ...) come from the offset couplings,
    while decay, gate time and the Rabi phases stay at their design values:
    the |001⟩ phase is ``_pair13_phase(params)`` and the |000⟩, |010⟩ and
    |011⟩ factors keep cos = -1 or +1, as if every Rabi cycle still closed.
    So the |000⟩ factor is exp(-kappa*t/4) whatever the offset, and under a
    uniform offset the weights cancel and the whole infidelity is exactly
    independent of eta.

    Design-time dynamics disagree: with an offset atom-1 coupling the
    atom-1 cycle does not close at the design gate time, so even the |000⟩
    entry of a simulated gate (``dynamics.extract_gate``) moves with eta.
    At kappa = w1/10 and eta = +0.05 this closed form falls with chi
    (0.0083388 -> 0.0083317) while the product of four simulated gates
    rises (0.008745 -> 0.009994).
    """
    base = _damping_factors(scenario.params, scenario.params.omega).entries()
    primed = _damping_factors(scenario.params, offset_couplings(scenario)).entries()
    chi = scenario.chi
    rest = 4 - chi
    # Powers of Python floats: NumPy array powers round differently.
    entries = np.array([p**chi * b**rest for p, b in zip(primed, base)])
    # After an even number of phase gates the |000⟩ sign flips cancel, so
    # the exact four-gate reference is the uniform state itself.
    u = _uniform_register()
    return 1.0 - _fidelity(u, entries * u)
