"""Test-only reference code: a full-space RK4 integrator and the helpers that
no experiment runs.

``cavity_grover`` propagates a logical input with the matrix exponential
on its reachable sector. ``rk4`` is the independent cross-check: classic
fixed-step RK4 on the whole (..., 36, 36) no-jump generator, every logical
column at once and no sector search, so agreement also checks that the
sector restriction drops nothing. The paper's formulas
(``phase_gate_success``, ``closed_form_probability``) are oracles for the
search, ``block_columns`` evaluates the gate's column model at any time,
and the rest are small conveniences on the basis, on states and 8x8
operators (complex arrays) and on the package's tables. Only public
names of the package are read here, and the model's ``_bright_columns``.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from cavity_grover import (
    TEXTBOOK,
    AtomLevel,
    BasisState,
    ConfigError,
    build_effective_hamiltonian,
    computational_embedding,
    gate_time,
)
from cavity_grover.dynamics import add_cavity_decay, block_propagator, exchange_hamiltonian
from cavity_grover.gates import _bright_columns, full_diagonal
from cavity_grover.hilbert import BASIS
from cavity_grover.tables import Axis

E, G, I = AtomLevel.E, AtomLevel.G, AtomLevel.I

# --- full-space RK4 ------------------------------------------------------------


def rk4(h: np.ndarray, t, amps: np.ndarray, steps: int) -> np.ndarray:
    """Integrate d(psi)/dt = -i*H*psi with classic RK4 over ``steps`` uniform
    steps: (..., d, d) generators, one time per generator, and (..., d, m)
    columns, all integrated at once."""
    gen = -1j * np.asarray(h)
    dt = np.asarray(t, dtype=float)[..., None, None] / steps
    y = np.array(amps, dtype=complex)
    for _ in range(steps):
        k1 = gen @ y
        k2 = gen @ (y + 0.5 * dt * k1)
        k3 = gen @ (y + 0.5 * dt * k2)
        k4 = gen @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def logical_columns() -> np.ndarray:
    """The eight logical inputs |000⟩..|111⟩ as the columns of a (36, 8) array."""
    return np.eye(len(BASIS), dtype=complex)[:, list(computational_embedding())]


def rk4_gate(params, t, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``extract_gate`` by ``rk4``: the (K, 8, 8) logical block and the (K, 8)
    leakage of each column, for K parameter sets at their K times."""
    h = np.stack([build_effective_hamiltonian(p) for p in params])
    finals = rk4(h, t, logical_columns(), steps)
    restricted = finals[..., list(computational_embedding()), :]
    leakage = (np.abs(finals) ** 2).sum(axis=-2) - (np.abs(restricted) ** 2).sum(axis=-2)
    return restricted, leakage


def rk4_timing_oracle(params, delta_t_frac: float, steps: int) -> float:
    """``timing_oracle_dense`` by ``rk4``: one gate time under the full
    generator, then ``delta_t_frac`` gate times under atom 1's coupling and
    the decay alone, scored by the uniform-input infidelity against the
    textbook gate."""
    t_gate = gate_time(params)
    mids = rk4(build_effective_hamiltonian(params), t_gate, logical_columns(), steps)
    h_atom1 = add_cavity_decay(exchange_hamiltonian((params.omega[0], 0.0, 0.0)), params.kappa)
    gate = rk4(h_atom1, delta_t_frac * t_gate, mids, steps)[list(computational_embedding())]
    uniform = initial_state()
    out, expected = gate @ uniform, full_diagonal(TEXTBOOK) * uniform
    return float(1.0 - abs(np.vdot(expected, out)) ** 2 / np.vdot(out, out).real)


def block_columns(params, t) -> tuple[np.ndarray, np.ndarray]:
    """Exact atom-1 and photon amplitudes of the four atom-1-in-``E``
    columns at any time ``t``: (1 - s) + s*P00 and (w1/W)*P10 with P =
    ``block_propagator(W, kappa, t)`` on each column's bright state."""
    bright_sq, share = (np.array(x) for x in _bright_columns(*params.omega))
    bright = np.sqrt(bright_sq)
    block = block_propagator(bright, params.kappa, t)
    return (1.0 - share) + share * block[..., 0, 0], params.omega[0] / bright * block[..., 1, 0]


# --- paper formulas ------------------------------------------------------------


def initial_state() -> np.ndarray:
    """Uniform superposition over all eight logical states, amplitude
    1/(2*sqrt(2)) each; equals the Hadamard layer applied to |000⟩."""
    return np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)


def phase_gate_success(coeffs, slots: np.ndarray) -> float:
    """Success probability of one phase gate, given by its four decaying
    ``slots`` (-mu, gamma, beta, alpha), on a register state.

    ``coeffs`` holds the eight coefficients as an array, in the convention
    where the physical amplitudes are coefficient/(2*sqrt(2)), so the squared
    coefficients must sum to 8. Each of the first four slots survives the
    gate with its damping factor squared; the rest pass untouched:

        ( |c3|^2*alpha^2 + |c2|^2*beta^2 + |c1|^2*gamma^2 + |c0|^2*mu^2
          + |c4|^2 + |c5|^2 + |c6|^2 + |c7|^2 ) / 8
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (8,):
        raise ConfigError(f"expected 8 coefficients, got shape {coeffs.shape}")
    total = float(np.sum(np.abs(coeffs) ** 2))
    if not abs(total - 8.0) <= 1e-9:  # NaN fails too
        raise ConfigError(
            f"squared coefficients must sum to 8 (got {total}); "
            "amplitudes carry a 1/(2*sqrt(2)) prefactor in this convention"
        )
    return float(np.sum(np.abs(coeffs) ** 2 * full_diagonal(slots) ** 2) / 8.0)


def closed_form_probability(k: int) -> float:
    """Marked-state probability after k iterations with the textbook gate:
    sin^2((2k+1) * asin(1/sqrt(8)))."""
    if k < 0:
        raise ConfigError(f"iteration count must be >= 0, got {k}")
    theta = math.asin(1.0 / math.sqrt(8.0))
    return math.sin((2 * k + 1) * theta) ** 2


def diffusion() -> np.ndarray:
    """Inversion about the average: entries 2/8 - delta_ij. Equals
    -H3 * diag(-1, 1, ..., 1) * H3 with H3 the Hadamard layer."""
    return np.full((8, 8), 0.25) - np.eye(8)


def coupling_at_position(z: float, omega0: float, lambda0: float) -> float:
    """Coupling omega0 * cos(2*pi*z/lambda0) seen by an atom crossing the
    standing-wave mode at transverse offset ``z`` (meters)."""
    if not 0.0 < lambda0 < math.inf:
        raise ConfigError(f"mode wavelength must be finite and > 0, got {lambda0}")
    return omega0 * math.cos(2.0 * math.pi * z / lambda0)


# --- the basis -------------------------------------------------------------------


def state_index(l1: AtomLevel, l2: AtomLevel, l3: AtomLevel, n: int) -> int:
    """Position of the product state (l1, l2, l3, n) in ``BASIS``.

    Bijective inverse of ``BASIS[i]``; rejects levels or photon numbers
    outside the basis.
    """
    if l1 not in (E, G):
        raise ConfigError(f"atom 1 has no level {l1.name}; allowed: E, G")
    if l2 not in (I, G, E) or l3 not in (I, G, E):
        raise ConfigError("atoms 2 and 3 must be one of I, G, E")
    if n not in (0, 1):
        raise ConfigError(f"photon number {n} outside 0..1")
    return BASIS.index(BasisState(l1, l2, l3, n))


def excitation_number(position: int) -> int:
    """Photon number plus the count of atoms in the upper level.

    The resonant coupling conserves this quantity, which is what makes the
    photon truncation exact for logical inputs.
    """
    state = BASIS[position]
    return state.n + sum(1 for level in state.atom_levels() if level is E)


def unit(position: int) -> np.ndarray:
    """Unit amplitude vector on one product state of ``BASIS``."""
    amps = np.zeros(len(BASIS), dtype=complex)
    amps[position] = 1.0
    return amps


# --- states, 8x8 operators and tables ----------------------------------------------------


def gate_operator(slots: np.ndarray) -> np.ndarray:
    """The complex 8x8 gate of four decaying slots: diag(-mu, gamma, beta, alpha, 1, 1, 1, 1)."""
    return np.diag(full_diagonal(slots)).astype(complex)


def compose(*operators: np.ndarray) -> np.ndarray:
    """The matrix product of the operators, taken from the left as ``a @ b @ c`` is."""
    return reduce(np.matmul, operators)


def is_unitary(operator: np.ndarray) -> bool:
    """Whether every Gram entry is within 1e-10 of the identity's."""
    gram = operator.conj().swapaxes(-1, -2) @ operator
    return bool(np.abs(gram - np.eye(8)).max() <= 1e-10)


def squared_norm(amps: np.ndarray):
    """The squared norm of a state, a float, or one per state of a stack,
    rounded as ``np.vdot`` rounds it."""
    return (amps.conj()[..., None, :] @ amps[..., :, None])[..., 0, 0].real


def rows(table: tuple) -> tuple[tuple, ...]:
    """A ``(header, columns, summary)`` table row by row, as Python ints and
    floats: each column an ``Axis`` expanded as
    ``np.tile(np.repeat(values, repeat), tile)``, or a plain column as is."""
    axes = (c if isinstance(c, Axis) else Axis(c) for c in table[1])
    return tuple(zip(*(np.tile(np.repeat(v, r), t).tolist() for v, r, t in axes)))
