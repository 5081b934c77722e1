"""Iterated amplitude amplification on the logical register.

One search iteration applies the marked-state phase flip, then conjugates
the |000⟩ phase gate by Hadamard layers to invert all amplitudes about
their average. With the textbook gate the marked-state probability after k
iterations is the closed-form sin^2((2k+1) * asin(1/sqrt(8))), peaking near
k = 2 and again at k = 6.

The iteration runs on one of three |000⟩ gates (``GateVariant``): the
textbook reflection, the lossless gate (the decayed gate at kappa = 0) or
the decayed gate. Under cavity decay the register follows the unnormalized
no-jump branch: ``p_find`` is then the joint probability that no photon
ever leaked AND the readout lands on the marked state, ``survival`` is the
total no-jump probability, and ``fidelity`` compares the surviving
(renormalized) state against the trajectory an exact gate would have
produced.

``run_search`` builds its marked-state gate and the exact reference flip
once per call and reuses them for every iteration; ``grover_step`` is the
same iteration with the flip built from the marked state on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import CavityParams
from .errors import ConfigError
from .gates import (
    GateDiagonal,
    LogicalOperator,
    MarkedState,
    decayed_i000,
    hadamard3,
    ideal_i000,
    marked_gate,
)
from .hilbert import PureState

# The Hadamard layer, built once: every search iteration applies it twice.
_H3 = hadamard3()


class GateVariant(Enum):
    """Which |000⟩ phase gate drives the iteration."""

    EXACT = "exact"          # textbook diag(-1, 1, ..., 1)
    LOSSLESS = "lossless"    # the decayed gate at kappa = 0 (short |001⟩ entry)
    DECAYED = "decayed"      # realized under cavity decay (damped diagonal)


@dataclass(frozen=True)
class SearchRecord:
    """Per-iteration search outcome on the no-jump branch."""

    iteration: int
    p_find: float
    survival: float
    fidelity: float

    def __post_init__(self) -> None:
        values = (self.p_find, self.survival, self.fidelity)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"search record has non-finite fields: {values}")
        if self.p_find > self.survival + 1e-12:
            raise ConfigError(
                f"p_find={self.p_find} exceeds survival={self.survival}"
            )


def _uniform_register() -> np.ndarray:
    return np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)


def _fidelity(reference: np.ndarray, output: np.ndarray) -> float:
    """|<reference|output>|^2 / <output|output> for an unnormalized output
    state and a normalized reference."""
    return float(abs(np.vdot(reference, output)) ** 2 / np.vdot(output, output).real)


def initial_state() -> PureState:
    """Uniform superposition over all eight logical states, amplitude
    1/(2*sqrt(2)) each; equals the Hadamard layer applied to |000⟩."""
    return PureState(_uniform_register())


def _step(state: PureState, flip: LogicalOperator, i000: LogicalOperator) -> PureState:
    return _H3.apply(i000.apply(_H3.apply(flip.apply(state))))


def grover_step(
    state: PureState, tau: MarkedState | str, i000: LogicalOperator
) -> PureState:
    """One search iteration: the marked-state flip first, then the Hadamard /
    phase-gate / Hadamard sandwich. Output is unnormalized when ``i000`` is
    the decayed gate."""
    return _step(state, marked_gate(tau, i000), i000)


def _base_gate(variant: GateVariant, params: CavityParams) -> LogicalOperator:
    if variant is GateVariant.DECAYED:
        return decayed_i000(params)[0]
    return ideal_i000(params, exact=variant is GateVariant.EXACT)


def run_search(
    tau: MarkedState | str, k_max: int, variant: GateVariant, params: CavityParams
) -> list[SearchRecord]:
    """Iterate the search ``k_max`` times and record probability, survival,
    and fidelity against the exact-gate trajectory after each iteration."""
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    marked = MarkedState.of(tau)
    gate = _base_gate(variant, params)
    reference = _base_gate(GateVariant.EXACT, params)
    flip = marked_gate(marked, gate)
    reference_flip = marked_gate(marked, reference)

    state = initial_state()
    ideal = initial_state()
    records = []
    for k in range(1, k_max + 1):
        state = _step(state, flip, gate)
        ideal = _step(ideal, reference_flip, reference)
        survival = state.squared_norm()
        p_find = float(abs(state.amplitudes[marked.index]) ** 2)
        fidelity = _fidelity(ideal.amplitudes, state.amplitudes)
        records.append(
            SearchRecord(iteration=k, p_find=p_find, survival=survival, fidelity=fidelity)
        )
    return records


def phase_gate_success(state, diag: GateDiagonal) -> float:
    """Success probability of one phase gate on a register state.

    ``state`` carries the eight coefficients in the convention where the
    physical amplitudes are coefficient/(2*sqrt(2)), so the squared
    coefficients must sum to 8. Each of the first four slots survives the
    gate with its damping factor squared; the rest pass untouched:

        ( |c3|^2*alpha^2 + |c2|^2*beta^2 + |c1|^2*gamma^2 + |c0|^2*mu^2
          + |c4|^2 + |c5|^2 + |c6|^2 + |c7|^2 ) / 8
    """
    coeffs = state.amplitudes if isinstance(state, PureState) else np.asarray(state, dtype=complex)
    if coeffs.shape != (8,):
        raise ConfigError(f"expected 8 coefficients, got shape {coeffs.shape}")
    total = float(np.sum(np.abs(coeffs) ** 2))
    if abs(total - 8.0) > 1e-9:
        raise ConfigError(
            f"squared coefficients must sum to 8 (got {total}); "
            "amplitudes carry a 1/(2*sqrt(2)) prefactor in this convention"
        )
    return float(np.sum(np.abs(coeffs) ** 2 * np.array(diag.entries()) ** 2) / 8.0)


def closed_form_probability(k: int) -> float:
    """Marked-state probability after k iterations with the textbook gate:
    sin^2((2k+1) * asin(1/sqrt(8)))."""
    if k < 0:
        raise ConfigError(f"iteration count must be >= 0, got {k}")
    theta = math.asin(1.0 / math.sqrt(8.0))
    return math.sin((2 * k + 1) * theta) ** 2
