"""State space for three multilevel atoms sharing one quantized cavity mode.

Atom 1 uses two levels (upper ``E``, lower ``G``). Atoms 2 and 3 carry an
additional level ``I`` below ``E`` that never couples to the cavity; it only
stores logical information. The product basis ``BASIS`` is the tuple of the
36 products of the atomic levels with the vacuum and one-photon states,
ordered lexicographically so that operator matrices and CSV output are
bit-stable across runs. One photon layer is exact for logical inputs: each
holds at most one excitation (atom 1 in ``E``); ``GUARD`` lists the
positions where amplitude means the truncation is biting.

Logical qubits are encoded per atom: qubit 1 is 0 ↔ ``E``, 1 ↔ ``G``;
qubits 2 and 3 are 0 ↔ ``I``, 1 ↔ ``G``. The eight logical basis states all
live in the photon vacuum. A state is a plain complex amplitude array, 36
wide on ``BASIS`` or 8 wide on the logical register, and an operator on the
logical register is a plain complex (8, 8) array.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


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


def build_basis() -> tuple[BasisState, ...]:
    """Enumerate the 36 product states (l1, l2, l3, n) with n in {0, 1}.

    Ordering is lexicographic with level order E < G for atom 1 and
    I < G < E for atoms 2 and 3, then increasing photon number.
    """
    return tuple(
        BasisState(l1, l2, l3, n)
        for l1 in _ATOM1_LEVELS
        for l2 in _ATOM23_LEVELS
        for l3 in _ATOM23_LEVELS
        for n in (0, 1)
    )


BASIS = build_basis()

# The truncation-sensitive positions: the one-photon states with an atom in
# ``E``, which couple to the (absent) two-photon layer.
GUARD = tuple(i for i, s in enumerate(BASIS) if s.n == 1 and AtomLevel.E in s.atom_levels())


# Fixed by ``BASIS``, so found once. Bit 0/1 is E/G on atom 1, I/G on atoms 2, 3.
_EMBEDDING = tuple(
    BASIS.index(BasisState(l1, l2, l3, 0))
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
