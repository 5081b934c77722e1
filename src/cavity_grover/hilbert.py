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
live in the photon vacuum; ``PureState`` holds a state on either space. An
operator on the logical register is a plain complex (8, 8) array.
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


@dataclass(frozen=True, eq=False)  # array fields: == on them is elementwise
class PureState:
    """Complex amplitude vector over a basis, or a (K, dimension) stack of
    them, one per parameter set.

    ``basis`` is the full product basis, or None for a bare 8-dimensional
    logical register. Amplitudes are stored read-only; under decay the
    vector is the unnormalized no-jump branch, so its squared norm is the
    probability that no photon has leaked.
    """

    amplitudes: np.ndarray
    basis: ProductBasis | None = None

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex, order="C")
        n = 8 if self.basis is None else self.basis.dimension  # a logical register has 8
        if amps.ndim not in (1, 2) or amps.shape[-1] != n:
            raise ConfigError(f"amplitudes need shape ({n},) or (K, {n}), got {amps.shape}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[-1]


def basis_state(position: int) -> PureState:
    """Unit vector on one product state of ``BASIS``."""
    amps = np.zeros(BASIS.dimension, dtype=complex)
    amps[position] = 1.0
    return PureState(amps, BASIS)
