"""Iterated amplitude amplification on the logical register.

One search iteration applies the marked-state phase flip, then conjugates
the |000⟩ phase gate by Hadamard layers to invert all amplitudes about
their average. With the textbook gate the marked-state probability after k
iterations is the closed-form sin^2((2k+1) * asin(1/sqrt(8))), peaking near
k = 2 and again at k = 6.

The iteration runs on any |000⟩ gate given by its four decaying slots
(``gates``): ``gates.TEXTBOOK``, the lossless gate (the decayed gate at
kappa = 0), the decayed gate, or the complex atom-1 rows of
``gates.exact_columns``, the gate without the paper's approximations. Under
cavity decay the register follows the unnormalized no-jump branch:
``p_find`` is then the joint probability that no photon ever leaked AND
the readout lands on the marked state, ``survival`` is the total no-jump
probability, and ``fidelity`` compares the surviving (renormalized) state
against the trajectory the textbook gate would have produced.

``run_search`` advances the |000⟩ register of every given gate and the
textbook reference trajectory in one stacked iteration and scores the
stored trajectories with one row-wise fidelity, ``_row_fidelity``, which
also scores every gate in ``imperfections``. Its result is plain arrays:
one (gates, iterations) array each of ``p_find``, ``survival`` and
``fidelity``. The marked state, a string of three bits, enters only
``grover_step``, one iteration for one state and the per-state reference,
through ``gates.marked_gate``; the Hadamard layer ``_H3`` and the gate it
takes are plain 8x8 arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericalError, _first_row
from .gates import TEXTBOOK, full_diagonal, hadamard3, marked_gate

# The cap on every grid size: far above any useful run, below a typo's huge grid.
MAX_GRID_POINTS = 100_000

# The Hadamard layer, built once: every search iteration applies it twice.
_H3 = hadamard3()


def _uniform_register() -> np.ndarray:
    return np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)


def _row_fidelity(reference: np.ndarray, outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|<reference|row>|^2 / <row|row> and <row|row> along the last axis of
    the unnormalized ``outputs``, against a normalized ``reference`` that
    broadcasts against them: the overlap and the squared norm are two fused
    row reductions."""
    overlap = np.einsum("...i,...i->...", outputs, reference.conj())
    norm = np.einsum("...i,...i->...", outputs, outputs.conj()).real
    return abs(overlap) ** 2 / norm, norm


def grover_step(state, tau: str, i000) -> np.ndarray:
    """One search iteration on the amplitudes ``state``, one 8-vector, for
    the marked state ``tau`` (three bits): the marked-state flip first, then the
    Hadamard / phase-gate / Hadamard sandwich of the 8x8 |000⟩ gate
    ``i000``. Output is unnormalized when ``i000`` is the decayed gate."""
    if np.shape(state) != (8,):
        raise ConfigError(f"grover_step acts on one 8-vector, got shape {np.shape(state)}")
    flip = marked_gate(tau, i000)  # also checks i000: one finite 8x8 matrix
    return _H3 @ (i000 @ (_H3 @ (flip @ state)))


def check_grid_size(n, key: str) -> None:
    """The one rule on a grid size (points or iterations): an integer in
    1..``MAX_GRID_POINTS``, not a bool."""
    integer = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    if not (integer and 1 <= n <= MAX_GRID_POINTS):
        raise ConfigError(f"{key} must be an integer in 1..{MAX_GRID_POINTS}, got {n}")


def run_search(k_max: int, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the search for |000⟩ ``k_max`` times with each of the K gates
    whose decaying slots are the rows of the real or complex (K, 4)
    ``slots`` and record, after each iteration, the probability, survival
    and fidelity against the textbook-gate trajectory: ``(p_find, survival,
    fidelity)``, three (K, k_max) arrays whose row i holds gate i and whose
    column k - 1 holds iteration k, checked by ``_check_search``.

    The marked state is not an argument: for a marked state tau the flip is
    X^tau D X^tau, X^tau commutes with the sandwich H D H (H X^tau H is
    diagonal) and fixes the uniform register, so the register for tau is the
    |000⟩ register with tau's bits flipped, and every recorded value is the
    same. The |000⟩ diagonal D is its own marked flip, so the K gates' and,
    as a last row, ``TEXTBOOK``'s diagonals, stacked into a (K+1, 8, 1)
    array, advance every trajectory in one expression.
    """
    check_grid_size(k_max, "k_max")
    slots = np.asarray(slots)
    if slots.ndim != 2 or slots.shape[1] != 4 or not len(slots):
        raise ConfigError(f"run_search needs (K, 4) slots, at least one row, got {slots.shape}")
    gates = full_diagonal(np.concatenate([slots, TEXTBOOK[None]]).astype(complex))[:, :, None]
    states = np.repeat(_uniform_register()[None, :, None], len(gates), axis=0)
    trajectory = np.empty((len(gates), k_max, 8), dtype=complex)
    for k in range(k_max):
        states = _H3 @ (gates * (_H3 @ (gates * states)))
        trajectory[:, k] = states[:, :, 0]
    outputs = trajectory[:-1]
    fidelity, survival = _row_fidelity(trajectory[-1], outputs)
    p_find = abs(outputs[..., 0]) ** 2
    _check_search(p_find, survival, fidelity)
    return p_find, survival, fidelity


def _check_search(p_find, survival, fidelity) -> None:
    """The rule on search outcomes: every value finite, and p_find <=
    survival + 1e-12. The first bad point is named, with its row on a grid."""
    values = np.array([p_find, survival, fidelity], dtype=float)
    bad = ~np.isfinite(values).all(axis=0)
    if bad.any():
        first = tuple(values[:, bad][:, 0].tolist())
        raise NumericalError(f"search point has non-finite fields: {first}", _first_row(bad, 1))
    over = values[0] > values[1] + 1e-12
    if over.any():
        p_find, survival = values[:2, over][:, 0]
        raise NumericalError(f"p_find={p_find} exceeds survival={survival}", _first_row(over, 1))
