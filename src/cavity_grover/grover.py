"""Iterated amplitude amplification on the logical register.

One search iteration applies the marked-state phase flip, then conjugates
the |000⟩ phase gate by Hadamard layers to invert all amplitudes about
their average. With the textbook gate the marked-state probability after k
iterations is the closed-form sin^2((2k+1) * asin(1/sqrt(8))), peaking near
k = 2 and again at k = 6.

The iteration runs on any |000⟩ gate diagonal: ``gates.TEXTBOOK``, the
lossless gate (the decayed gate at kappa = 0) or the decayed gate. Under
cavity decay the register follows the unnormalized no-jump branch:
``p_find`` is then the joint probability that no photon ever leaked AND
the readout lands on the marked state, ``survival`` is the total no-jump
probability, and ``fidelity`` compares the surviving (renormalized) state
against the trajectory the textbook gate would have produced.

``run_search`` advances the register of every given gate diagonal and the
textbook reference trajectory in one stacked iteration and scores the
stored trajectories as arrays; ``grover_step`` is one iteration for one
state, the per-state reference.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .gates import TEXTBOOK, GateDiagonal, LogicalOperator, MarkedState, hadamard3, marked_gate
from .hilbert import PureState

# Far above any useful search length, low enough that a typo cannot ask for a huge search.
MAX_ITERATIONS = 100_000

# The Hadamard layer, built once: every search iteration applies it twice.
_H3 = hadamard3()


@dataclass(frozen=True, eq=False)  # array fields: == on them is elementwise
class SearchGrid:
    """Search outcomes over gate diagonals and iterations: each field is a
    (K, k_max) array whose row i holds diagonal i and whose column k - 1
    holds iteration k."""

    p_find: np.ndarray
    survival: np.ndarray
    fidelity: np.ndarray

    def __post_init__(self) -> None:
        # Every value finite, and p_find <= survival + 1e-12.
        values = np.array([self.p_find, self.survival, self.fidelity], dtype=float).reshape(3, -1)
        bad = ~np.isfinite(values).all(axis=0)
        if bad.any():
            first = tuple(values[:, bad.argmax()].tolist())
            raise NumericalError(f"search point has non-finite fields: {first}")
        over = values[0] > values[1] + 1e-12
        if over.any():
            first = over.argmax()
            raise NumericalError(f"p_find={values[0, first]} exceeds survival={values[1, first]}")


def _uniform_register() -> np.ndarray:
    return np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vdot`` along the last axis, bit for bit: one batched product."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _modulus_squared(z: np.ndarray) -> np.ndarray:
    """abs(z) ** 2 of every entry as the scalar expression rounds it: numpy's
    array abs and array square each round some values differently."""
    moduli = np.hypot(z.real, z.imag)
    return np.array([m**2 for m in moduli.ravel().tolist()]).reshape(moduli.shape)


def initial_state() -> PureState:
    """Uniform superposition over all eight logical states, amplitude
    1/(2*sqrt(2)) each; equals the Hadamard layer applied to |000⟩."""
    return PureState(_uniform_register())


def grover_step(
    state: PureState, tau: MarkedState | str, i000: LogicalOperator
) -> PureState:
    """One search iteration: the marked-state flip first, then the Hadamard /
    phase-gate / Hadamard sandwich. Output is unnormalized when ``i000`` is
    the decayed gate."""
    flip = marked_gate(tau, i000)
    return _H3.apply(i000.apply(_H3.apply(flip.apply(state))))


def check_k_max(k_max: int) -> None:
    """The one rule on a search length: 1..``MAX_ITERATIONS`` iterations."""
    if not 1 <= k_max <= MAX_ITERATIONS:
        raise ConfigError(f"k_max must lie in 1..{MAX_ITERATIONS}, got {k_max}")


def run_search(
    tau: MarkedState | str, k_max: int, diagonals: Sequence[GateDiagonal]
) -> SearchGrid:
    """Iterate the search ``k_max`` times with each gate diagonal in
    ``diagonals`` and record, after each iteration, the probability,
    survival and fidelity against the textbook-gate trajectory.

    The K gate diagonals and, as a last row, ``TEXTBOOK`` are stacked into
    a (K+1, 8, 1) array whose marked flips are one index permutation of it,
    so one expression advances every trajectory. The trajectories are
    stored, and p_find, survival and fidelity are then computed for all of
    them at once, each value exactly as the per-state scalar expression
    (``grover_step``, ``np.vdot``, ``abs(z) ** 2``) computes it.
    """
    check_k_max(k_max)
    if not diagonals:
        raise ConfigError("run_search needs at least one gate diagonal")
    marked = MarkedState.of(tau)
    perm = np.arange(8) ^ marked.index
    rows = [d.entries() for d in diagonals] + [TEXTBOOK.entries()]
    gates = np.array(rows, dtype=complex)[:, :, None]
    flips = gates[:, perm]
    h = _H3.matrix
    states = np.repeat(_uniform_register()[None, :, None], len(gates), axis=0)
    trajectory = np.empty((len(gates), k_max, 8), dtype=complex)
    for k in range(k_max):
        states = h @ (gates * (h @ (flips * states)))
        trajectory[:, k] = states[:, :, 0]
    outputs, ideal = trajectory[:-1], trajectory[-1:]
    survival = _vdot(outputs, outputs).real
    return SearchGrid(
        p_find=_modulus_squared(outputs[..., marked.index]),
        survival=survival,
        fidelity=_modulus_squared(_vdot(ideal, outputs)) / survival,
    )


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
    if not abs(total - 8.0) <= 1e-9:  # NaN fails too
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
