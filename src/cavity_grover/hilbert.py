"""State space for three multilevel atoms sharing one quantized cavity mode.

Atom 1 uses two levels (upper ``E``, lower ``G``). Atoms 2 and 3 carry an
additional level ``I`` below ``E`` that never couples to the cavity; it only
stores logical information. The product basis ``BASIS`` is the tensor
product of the atomic levels with the vacuum and one-photon states, ordered
lexicographically so that operator matrices and CSV output are bit-stable
across runs. One photon layer is exact for logical inputs: each holds at
most one excitation (atom 1 in ``E``).

Logical qubits are encoded per atom: qubit 1 is 0 ↔ ``E``, 1 ↔ ``G``;
qubits 2 and 3 are 0 ↔ ``I``, 1 ↔ ``G``. The eight logical basis states all
live in the photon vacuum; ``PureState`` holds a state on either space and
``LogicalOperator`` an 8x8 operator on the logical register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


class AtomLevel(Enum):
    """Internal atomic level. ``I`` sits below ``E`` and is dark to the
    cavity coupling; ``G`` ↔ ``E`` is the cavity-coupled transition."""

    I = "i"
    G = "g"
    E = "e"


# Level orderings used for basis enumeration, per atom slot.
_ATOM1_LEVELS = (AtomLevel.E, AtomLevel.G)
_ATOM23_LEVELS = (AtomLevel.I, AtomLevel.G, AtomLevel.E)


class BasisState(NamedTuple):
    """One product state: three atomic levels and a photon number."""

    l1: AtomLevel
    l2: AtomLevel
    l3: AtomLevel
    n: int

    def atom_levels(self) -> tuple[AtomLevel, AtomLevel, AtomLevel]:
        return (self.l1, self.l2, self.l3)


@dataclass(frozen=True)
class ProductBasis:
    """Ordered enumeration of product states.

    ``guard`` lists the truncation-sensitive positions: amplitude there
    means the truncation is biting.
    """

    states: tuple[BasisState, ...]
    _index: dict[BasisState, int] = field(repr=False, compare=False)
    guard: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.states)

    def position(self, state: BasisState) -> int:
        return self._index[state]


def build_basis() -> ProductBasis:
    """Enumerate the 36 product states (l1, l2, l3, n) with n in {0, 1}.

    Ordering is lexicographic with level order E < G for atom 1 and
    I < G < E for atoms 2 and 3, then increasing photon number. The guard
    is the one-photon states with an atom in ``E``, which couple to the
    (absent) two-photon layer.
    """
    states = tuple(
        BasisState(l1, l2, l3, n)
        for l1 in _ATOM1_LEVELS
        for l2 in _ATOM23_LEVELS
        for l3 in _ATOM23_LEVELS
        for n in (0, 1)
    )
    index = {s: i for i, s in enumerate(states)}
    guard = tuple(
        i for i, s in enumerate(states) if s.n == 1 and AtomLevel.E in s.atom_levels()
    )
    return ProductBasis(states=states, _index=index, guard=guard)


BASIS = build_basis()


def state_index(l1: AtomLevel, l2: AtomLevel, l3: AtomLevel, n: int) -> int:
    """Position of the product state (l1, l2, l3, n) in ``BASIS``.

    Bijective inverse of ``BASIS.states``; rejects levels or photon numbers
    outside the basis.
    """
    if l1 not in _ATOM1_LEVELS:
        raise ConfigError(f"atom 1 has no level {l1.name}; allowed: E, G")
    if l2 not in _ATOM23_LEVELS or l3 not in _ATOM23_LEVELS:
        raise ConfigError("atoms 2 and 3 must be one of I, G, E")
    if n not in (0, 1):
        raise ConfigError(f"photon number {n} outside 0..1")
    return BASIS.position(BasisState(l1, l2, l3, n))


# Fixed by ``BASIS``, so found once. Bit 0/1 is E/G on atom 1, I/G on atoms 2, 3.
_EMBEDDING = tuple(
    BASIS.position(BasisState(l1, l2, l3, 0))
    for l1 in (AtomLevel.E, AtomLevel.G)
    for l2 in (AtomLevel.I, AtomLevel.G)
    for l3 in (AtomLevel.I, AtomLevel.G)
)


def computational_embedding() -> tuple[int, ...]:
    """Indices of the eight logical basis states |000⟩..|111⟩.

    All eight are photon-vacuum states; the order follows the binary value
    of the logical bits (qubit 1 most significant) under the encoding
    above, i.e. position 0 is (E, I, I, 0) and position 7 is (G, G, G, 0).
    """
    return _EMBEDDING


def excitation_number(position: int) -> int:
    """Photon number plus the count of atoms in the upper level.

    The resonant coupling conserves this quantity, which is what makes the
    photon truncation exact for logical inputs.
    """
    state = BASIS.states[position]
    return state.n + sum(1 for l in state.atom_levels() if l is AtomLevel.E)


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over a basis.

    ``basis`` is the full product basis, or None for a bare 8-dimensional
    logical register. Amplitudes are stored read-only; under decay the
    vector is the unnormalized no-jump branch, so its squared norm is the
    probability that no photon has leaked.
    """

    amplitudes: np.ndarray
    basis: ProductBasis | None = None

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ConfigError("amplitudes must be a 1-d vector")
        if self.basis is not None and len(amps) != self.basis.dimension:
            raise ConfigError(
                f"amplitude length {len(amps)} != basis dimension "
                f"{self.basis.dimension}"
            )
        if self.basis is None and len(amps) != 8:
            raise ConfigError(
                f"logical states are 8-dimensional, got length {len(amps)}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)

    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


_UNITARY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class LogicalOperator:
    """Dense 8x8 complex matrix on the logical register."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (8, 8):
            raise ConfigError(f"logical operators are 8x8, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ConfigError("logical operator has non-finite entries")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def unitary(self) -> bool:
        gram = self.matrix.conj().T @ self.matrix
        return bool(np.abs(gram - np.eye(8)).max() <= _UNITARY_TOLERANCE)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def __matmul__(self, other: "LogicalOperator") -> "LogicalOperator":
        return LogicalOperator(self.matrix @ other.matrix)

    def apply(self, state: PureState) -> PureState:
        if state.dimension != 8:
            raise ConfigError("logical operators act on 8-dimensional states")
        return PureState(self.matrix @ state.amplitudes, state.basis)


def basis_state(position: int) -> PureState:
    """Unit vector on one product state of ``BASIS``."""
    amps = np.zeros(BASIS.dimension, dtype=complex)
    amps[position] = 1.0
    return PureState(amps, BASIS)
