"""Resonant atom-cavity dynamics, with and without photon loss.

The interaction Hamiltonian exchanges one excitation between each atom's
``G`` ↔ ``E`` transition and the cavity mode,

    H = sum_j omega_j * (a† S_j^- + a S_j^+),

so states only mix within blocks of equal excitation number. A logical
input holds at most one excitation, so the basis stops at one photon and
``evolve`` exponentiates only the sector a state can reach, at most four
states for a logical input. A state is a plain complex amplitude array, one
(36,) vector on ``hilbert.BASIS`` or a (K, 36) stack, and every result that
wide is checked against the truncation guard ``hilbert.GUARD``, where
amplitude raises ``CutoffError``. Weak cavity decay at rate
``kappa`` is treated on the no-jump quantum-trajectory branch by the
non-Hermitian effective Hamiltonian H_eff = H - i*(kappa/2)*a†a; the norm
the state loses is the probability that a photon leaked.

Simultaneous resonant evolution for one gate time realizes a three-qubit
conditional phase flip when the couplings are designed in the ratio
1 : sqrt(35) : 8 — each logical state then completes an integer number of
Rabi cycles except |000⟩, which picks up a sign. ``extract_gate`` recovers
the realized logical operator directly from the simulated dynamics and is
the validation oracle for the closed-form gate matrices in ``gates``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutoffError, NumericalError, _first_row
from .hilbert import BASIS, GUARD, AtomLevel, computational_embedding

# Coupling ratios that make every logical Rabi cycle close after one gate
# time: block frequencies sqrt(36) = 6 (atoms 1+2) and sqrt(100) = 10 (all
# three) are integers; only sqrt(65) (atoms 1+3) is not.
DESIGNED_RATIOS = (1.0, math.sqrt(35.0), 8.0)

# Amplitude allowed on truncation-sensitive Fock states before a run aborts.
TOP_LAYER_TOLERANCE = 1e-10

# Degree-13 Padé coefficients b_0..b_13, and theta_13, the largest 1-norm at
# which the unscaled approximant is accurate to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26 (2005) 1179).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class CavityParams:
    """Couplings of the three atoms to the mode and the cavity decay rate.

    All rates are angular frequencies in any one unit, and times are in its
    inverse; the experiments use omega[0] = 1. ``kappa`` must stay below
    4*omega[0] so that the decay-shifted exchange frequency of the weakest-
    coupled atom remains real (underdamped regime).
    """

    omega: tuple[float, float, float]
    kappa: float = 0.0

    def __post_init__(self) -> None:
        # Each guard is written so that NaN fails it.
        if len(self.omega) != 3 or not all(0.0 < w < math.inf for w in self.omega):
            raise ConfigError(f"couplings must be three finite positive rates, got {self.omega}")
        if not 0.0 <= self.kappa < 4.0 * self.omega[0]:
            raise ConfigError(
                f"kappa={self.kappa} outside [0, 4*omega1={4 * self.omega[0]}): "
                "decay rates are >= 0, and above 4*omega1 atom-1 exchange is overdamped"
            )

    @classmethod
    def designed(cls, omega1c: float, kappa: float = 0.0) -> "CavityParams":
        """Parameters with the couplings locked to 1 : sqrt(35) : 8."""
        r1, r2, r3 = DESIGNED_RATIOS
        return cls(omega=(omega1c * r1, omega1c * r2, omega1c * r3), kappa=kappa)

    def has_designed_ratios(self) -> bool:
        w1, w2, w3 = self.omega
        return (
            math.isclose(w2 / w1, DESIGNED_RATIOS[1])
            and math.isclose(w3 / w1, DESIGNED_RATIOS[2])
        )


def decay_shifted_frequency(omega: float, kappa: float) -> float:
    """Exchange frequency sqrt(omega^2 - kappa^2/16) of a two-state block
    whose excited partner decays at ``kappa``."""
    arg = omega * omega - kappa * kappa / 16.0
    if not 0.0 < arg < math.inf:
        raise ConfigError(
            f"omega={omega}, kappa={kappa}: needs kappa < 4*|omega| (a larger kappa "
            "overdamps the block) and squared rates that neither overflow nor underflow"
        )
    return math.sqrt(arg)


def gate_time(params: CavityParams) -> float:
    """Interaction time for one conditional phase gate: a half period of the
    atom-1 exchange, pi / sqrt(omega1^2 - kappa^2/16), in the inverse rate unit."""
    return math.pi / decay_shifted_frequency(params.omega[0], params.kappa)


def block_propagator(omega, kappa, t) -> np.ndarray:
    """Exact no-jump propagator on the (bright atomic state, one photon)
    amplitudes of a one-excitation block with coupling ``omega``, shape
    broadcast(omega, kappa, t) + (2, 2): with a = sqrt(omega^2 - kappa^2/16) > 0,
    exp(-kappa*t/4) * [cos(a*t)*I + sin(a*t)/a * [[kappa/4, -i*omega], [-i*omega, -kappa/4]]].
    """
    omega, kappa, t = (np.asarray(x, float) for x in (omega, kappa, t))
    a = np.sqrt(omega * omega - kappa * kappa / 16.0)
    envelope, cos, sin = np.exp(-kappa * t / 4.0), np.cos(a * t), np.sin(a * t) / a
    shape = np.broadcast_shapes(omega.shape, kappa.shape, t.shape)
    block = np.empty(shape + (2, 2), dtype=complex)
    block[..., 0, 0] = envelope * (cos + kappa / 4.0 * sin)
    block[..., 1, 1] = envelope * (cos - kappa / 4.0 * sin)
    block[..., 0, 1] = block[..., 1, 0] = -1j * envelope * omega * sin
    return block


def _exchange_pattern() -> np.ndarray:
    """Index rows (vacuum state, its one-photon partner, atom j) with one
    column per (..E.., 0) ↔ (..G.., 1) coupling in ``BASIS``."""
    return np.array([
        (i, BASIS.index(state._replace(**{f"l{j + 1}": AtomLevel.G}, n=1)), j)
        for i, state in enumerate(BASIS)
        for j, level in enumerate(state.atom_levels())
        if level is AtomLevel.E and state.n == 0
    ]).T


# Fixed by ``BASIS``, so found once: each entry holds at most one coupling.
_VACUUM, _PARTNER, _ATOM = _exchange_pattern()
_ONE_PHOTON = np.array([i for i, state in enumerate(BASIS) if state.n])


def exchange_hamiltonian(omega: tuple[float, float, float]) -> np.ndarray:
    """Resonant exchange matrix on ``BASIS`` for an arbitrary coupling
    triple.

    Couples (..E.., 0) ↔ (..G.., 1) with strength omega_j for each atom j;
    atoms in level ``I`` are untouched. Zero entries switch an atom's
    interaction off (an atom that has left the mode). Hermitian, no
    diagonal terms, conserves excitation number.
    """
    h = np.zeros((len(BASIS), len(BASIS)), dtype=complex)
    weights = np.asarray(omega, dtype=float)[_ATOM]
    h[_PARTNER, _VACUUM] += weights
    h[_VACUUM, _PARTNER] += weights
    return h


def build_effective_hamiltonian(params: CavityParams) -> np.ndarray:
    """Non-Hermitian no-jump generator H - i*(kappa/2)*a†a on ``BASIS``.
    Equal to ``exchange_hamiltonian(params.omega)`` when kappa = 0.
    """
    return add_cavity_decay(exchange_hamiltonian(params.omega), params.kappa)


def add_cavity_decay(h: np.ndarray, kappa: float) -> np.ndarray:
    """Add the anti-Hermitian no-jump term -i*(kappa/2)*a†a to ``h`` (on
    ``BASIS``) in place and return it: -i*kappa/2 on each one-photon state."""
    h[_ONE_PHOTON, _ONE_PHOTON] += -0.5j * kappa
    return h


def _check_result(amps: np.ndarray) -> None:
    """Reject non-finite amplitudes and, on states as wide as ``BASIS``,
    amplitude above ``TOP_LAYER_TOLERANCE`` on ``GUARD``. ``amps`` holds one
    state vector along its last axis, or a stack of them: its first bad row is named."""
    if not (finite := np.isfinite(amps.view(float))).all():
        raise NumericalError("evolution produced non-finite amplitudes", _first_row(~finite, 1))
    if amps.shape[-1] == len(BASIS):
        top = np.abs(amps[..., GUARD])
        if (over := top > TOP_LAYER_TOLERANCE).any():
            row = _first_row(over, 1)  # top[None] is all of an unstacked top
            raise CutoffError(
                f"amplitude {top[row].max():.3e} on truncation-sensitive Fock states: "
                "the input holds more than the one excitation the basis is exact for", row
            )


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005) of one
    matrix, or of each matrix in a (..., n, n) stack with the bits of a
    one-matrix call.

    Scales each matrix by its own 2**-s so its 1-norm is at most theta_13,
    evaluates the degree-13 Padé approximant (V - U)^-1 (V + U) =
    I + 2 (V - U)^-1 U with six products and one solve, then squares each
    result its own s times. The second form keeps expm(0) exactly the
    identity, which an all-zero ``a`` gets directly.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)  # 1-norms; 0 for 0x0 blocks
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    if not any(values := norms.ravel().tolist()):
        return eye + a  # the identity, in the shape and dtype of the all-zero a
    s = [math.ceil(math.log2(n / _THETA13)) if n > _THETA13 else 0 for n in values]
    if max(s):  # a power-of-two scale is exact, so s = 0 needs none
        a = a * np.reshape([2.0**-k for k in s], norms.shape + (1, 1))
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(min(s)):  # the squarings every matrix needs
        r = r @ r
    for step in range(min(s), max(s)):
        square = np.reshape(s, norms.shape) > step
        r[square] = r[square] @ r[square]
    return r


def evolve(h: np.ndarray, t, psi0) -> np.ndarray:
    """Propagate the amplitudes psi0 by exp(-i*H*t): one (d, d) generator and
    a float t, or a (K, d, d) stack and K times, with psi0 one (d,) state or
    a (K, d) stack; the result is a complex array of the broadcast shape.

    For a non-Hermitian H this is the unnormalized no-jump branch. The
    matrix exponential propagates psi0 on its reachable sector alone, the
    block of H on ``_reachable_sector``: no entry of H leads out of that
    sector, so the result is exactly zero outside it. A stack shares one
    sector, and each check runs once for the whole stack, naming its first bad row.
    """
    times = np.asarray(t, dtype=float)
    if not all(0.0 <= x < math.inf for x in times.ravel().tolist()):  # NaN fails too
        raise ConfigError(f"evolution time must be finite and >= 0, got {t}")
    psi0 = np.asarray(psi0, dtype=complex)
    d = psi0.shape[-1] if psi0.ndim in (1, 2) else -1
    if h.ndim not in (2, 3) or h.shape[-2:] != (d, d) or times.shape != h.shape[:-2]:
        raise ConfigError(
            f"operator shape {h.shape} does not match {times.shape} times and a 1-D or "
            f"2-D state as wide as it, got {psi0.shape}"
        )
    # Checked on all of H: a bad entry outside the sector never reaches the result.
    if not (finite := np.isfinite(h)).all():
        raise NumericalError("generator has non-finite entries", _first_row(~finite, 2))
    sector = _reachable_sector(h, psi0)
    # Indexing a stack puts its leading axis innermost; C order gives every
    # slice the layout, and so the BLAS path and the bits, of a one-H call.
    block = np.ascontiguousarray(h[..., sector[:, None], sector])
    part = np.ascontiguousarray(psi0[..., sector, None])
    part = expm(-1j * block * times[..., None, None]) @ part
    amps = np.zeros(part.shape[:-2] + (d,), dtype=complex)
    amps[..., sector] = part[..., 0]
    _check_result(amps)
    return amps


def _reachable_sector(h: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sorted positions of the smallest set that holds the support of
    ``amps`` and is closed under H: an entry h[i, j] != 0 (NaN included)
    adds i whenever j is in the set. On stacks of H or of states it is the
    sector of the union of their nonzero patterns."""
    linked = h != 0 if h.ndim == 2 else (h != 0).any(axis=0)
    reached = amps != 0 if amps.ndim == 1 else (amps != 0).any(axis=0)
    size = np.count_nonzero(reached)
    while True:
        reached = reached | (linked @ reached)  # one step along every edge
        grown = np.count_nonzero(reached)
        if grown == size:
            return np.flatnonzero(reached)
        size = grown


@dataclass(frozen=True, eq=False)  # array fields: == on them is elementwise
class GateExtract:
    """Realized logical gate recovered from simulation.

    ``restricted`` is the complex 8x8 operator on the logical subspace (columns
    in logical order |000⟩..|111⟩); ``leakage`` is the squared amplitude each
    column left outside that subspace, ≥ 0. Column norm plus leakage is 1 for
    lossless evolution and below 1 under decay. A stack adds a leading axis.
    """

    restricted: np.ndarray
    leakage: np.ndarray

    def __post_init__(self) -> None:
        gate = np.array(self.restricted, dtype=complex, order="C")
        leak = np.asarray(self.leakage, dtype=float).copy()
        gate.flags.writeable = leak.flags.writeable = False
        object.__setattr__(self, "restricted", gate)
        object.__setattr__(self, "leakage", leak)
        cols = np.sum(np.abs(gate) ** 2, axis=-2)
        over, under = ~(cols + leak <= 1.0 + 1e-9), ~(leak >= -1e-9)  # NaN fails both
        if (bad := over | under).any():
            row = _first_row(bad, 1)  # under[None] is all of an unstacked item
            what = "column norm plus leakage exceeds 1"
            if under[row].any():  # named first: a NaN leakage breaks both rules
                what = "leakage is NaN or below -1e-9"
            raise NumericalError(what, row)


def as_stack(params: Sequence[CavityParams]) -> list[CavityParams]:
    """A non-empty sequence of parameter sets as a list."""
    stack = list(params)
    if not stack:
        raise ConfigError("needs at least one set of cavity parameters")
    return stack


def evolve_logical_basis(params: Sequence[CavityParams], t) -> np.ndarray:
    """Evolve each logical basis state |000⟩..|111⟩ under the no-jump
    Hamiltonian of K parameter sets for their K times ``t``, one ``evolve``
    call each: a (K, 8, 36) array whose axis 1 is in logical order."""
    h_eff = np.stack([build_effective_hamiltonian(p) for p in as_stack(params)])
    units = np.eye(len(BASIS), dtype=complex)
    return np.stack([evolve(h_eff, t, units[pos]) for pos in computational_embedding()], axis=-2)


def extract_gate(params: Sequence[CavityParams], t) -> GateExtract:
    """Simulate the gate of K parameter sets at their K times ``t``: evolve
    each logical basis state under the no-jump Hamiltonian and project back
    onto the logical subspace. The eight ``evolve`` calls propagate a (K, 36,
    36) stack; slice k of the extract has the bits of a one-set stack.
    """
    if not np.all(np.asarray(t, dtype=float) > 0.0):  # NaN fails too; evolve rejects inf
        raise ConfigError(f"gate extraction needs a finite t > 0, got {t}")
    amps = evolve_logical_basis(params, t)  # (K, column, state)
    # Contiguous, so the sums below run along rows of 8.
    projected = np.ascontiguousarray(amps[..., computational_embedding()])
    norm = np.einsum("...i,...i->...", amps, amps.conj()).real
    leakage = norm - (np.abs(projected) ** 2).sum(axis=-1)
    return GateExtract(projected.swapaxes(-1, -2), leakage)


def positions_for_ratio(lambda0: float) -> tuple[float, float, float]:
    """Crossing offsets (z1, z2, z3) that realize couplings in the designed
    ratio 1 : sqrt(35) : 8, for any peak coupling.

    Atom 3 crosses the antinode (z3 = 0, full coupling); atoms 1 and 2 sit
    on the first cosine lobe where the mode has dropped to 1/8 and
    sqrt(35)/8 of its peak. A wavelength that puts z2 below the smallest
    normal float is rejected: subnormal offsets keep only a few bits.
    """
    if not 0.0 < lambda0 < math.inf:
        raise ConfigError(f"mode wavelength must be finite and > 0, got {lambda0}")
    scale = lambda0 / (2.0 * math.pi)
    z1 = scale * math.acos(1.0 / 8.0)
    z2 = scale * math.acos(math.sqrt(35.0) / 8.0)
    if z2 < sys.float_info.min:
        raise ConfigError(f"mode wavelength {lambda0} puts offset z2={z2} below the normal floats")
    return (z1, z2, 0.0)
