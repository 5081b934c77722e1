"""Resonant atom-cavity dynamics, with and without photon loss.

The interaction Hamiltonian exchanges one excitation between each atom's
``G`` ↔ ``E`` transition and the cavity mode,

    H = sum_j omega_j * (a† S_j^- + a S_j^+),

so states only mix within blocks of equal excitation number. A logical
input holds at most one excitation, so the basis stops at one photon and
``evolve`` exponentiates only the sector a state can reach, at most four
states for a logical input. Weak cavity decay at rate
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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutoffError, NumericalError
from .hilbert import (
    BASIS,
    AtomLevel,
    LogicalOperator,
    ProductBasis,
    PureState,
    basis_state,
    computational_embedding,
)

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

    All rates are angular frequencies in rad/s. ``kappa`` must stay below
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
            f"omega={omega}, kappa={kappa}: needs finite rates with kappa < 4*|omega| "
            "(a larger kappa overdamps the block)"
        )
    return math.sqrt(arg)


def gate_time(params: CavityParams) -> float:
    """Interaction time for one conditional phase gate: a half period of the
    atom-1 exchange, pi / sqrt(omega1^2 - kappa^2/16), in seconds."""
    return math.pi / decay_shifted_frequency(params.omega[0], params.kappa)


def block_propagator(omega, kappa: float, t) -> np.ndarray:
    """Exact no-jump propagator on the (bright atomic state, one photon)
    amplitudes of a one-excitation block with coupling ``omega``, shape
    broadcast(omega, t) + (2, 2): with a = sqrt(omega^2 - kappa^2/16) > 0,
    exp(-kappa*t/4) * [cos(a*t)*I + sin(a*t)/a * [[kappa/4, -i*omega], [-i*omega, -kappa/4]]].
    """
    omega, t = np.broadcast_arrays(np.asarray(omega, float), np.asarray(t, float))
    a = np.sqrt(omega * omega - kappa * kappa / 16.0)
    envelope, cos, sin = np.exp(-kappa * t / 4.0), np.cos(a * t), np.sin(a * t) / a
    block = np.empty(omega.shape + (2, 2), dtype=complex)
    block[..., 0, 0] = envelope * (cos + kappa / 4.0 * sin)
    block[..., 1, 1] = envelope * (cos - kappa / 4.0 * sin)
    block[..., 0, 1] = block[..., 1, 0] = -1j * envelope * omega * sin
    return block


def _exchange_pattern() -> np.ndarray:
    """Index rows (vacuum state, its one-photon partner, atom j) with one
    column per (..E.., 0) ↔ (..G.., 1) coupling in ``BASIS``."""
    return np.array([
        (i, BASIS.position(state._replace(**{f"l{j + 1}": AtomLevel.G}, n=1)), j)
        for i, state in enumerate(BASIS.states)
        for j, level in enumerate(state.atom_levels())
        if level is AtomLevel.E and state.n == 0
    ]).T


# Fixed by ``BASIS``, so found once: each entry holds at most one coupling.
_VACUUM, _PARTNER, _ATOM = _exchange_pattern()
_ONE_PHOTON = np.array([i for i, state in enumerate(BASIS.states) if state.n])


def exchange_hamiltonian(omega: tuple[float, float, float]) -> np.ndarray:
    """Resonant exchange matrix on ``BASIS`` for an arbitrary coupling
    triple, in rad/s.

    Couples (..E.., 0) ↔ (..G.., 1) with strength omega_j for each atom j;
    atoms in level ``I`` are untouched. Zero entries switch an atom's
    interaction off (an atom that has left the mode). Hermitian, no
    diagonal terms, conserves excitation number.
    """
    h = np.zeros((BASIS.dimension, BASIS.dimension), dtype=complex)
    weights = np.asarray(omega, dtype=float)[_ATOM]
    h[_PARTNER, _VACUUM] += weights
    h[_VACUUM, _PARTNER] += weights
    return h


def build_effective_hamiltonian(params: CavityParams) -> np.ndarray:
    """Non-Hermitian no-jump generator H - i*(kappa/2)*a†a on ``BASIS``, in
    rad/s. Equal to ``exchange_hamiltonian(params.omega)`` when kappa = 0.
    """
    return add_cavity_decay(exchange_hamiltonian(params.omega), params.kappa)


def add_cavity_decay(h: np.ndarray, kappa: float) -> np.ndarray:
    """Add the anti-Hermitian no-jump term -i*(kappa/2)*a†a to ``h`` (on
    ``BASIS``) in place and return it: -i*kappa/2 on each one-photon state."""
    h[_ONE_PHOTON, _ONE_PHOTON] += -0.5j * kappa
    return h


def _check_result(amps: np.ndarray, basis: ProductBasis | None) -> None:
    """Reject non-finite amplitudes, and amplitude above
    ``TOP_LAYER_TOLERANCE`` on ``basis.guard``. ``amps`` is one state vector
    or a block with one state per column."""
    if not np.isfinite(amps.view(float)).all():
        raise NumericalError("evolution produced non-finite amplitudes")
    if basis is not None and basis.guard:
        worst = float(np.abs(amps[list(basis.guard)]).max())
        if worst > TOP_LAYER_TOLERANCE:
            raise CutoffError(
                f"amplitude {worst:.3e} on truncation-sensitive Fock states: "
                "the input holds more than the one excitation the basis is exact for"
            )


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005).

    Scales ``a`` by 2**-s so its 1-norm is at most theta_13, evaluates the
    degree-13 Padé approximant (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U with
    six products and one solve, then squares the result s times. The second
    form keeps expm(0) exactly the identity, which a zero ``a`` gets directly.
    """
    norm = np.abs(a).sum(axis=0).max(initial=0.0)  # the 1-norm; 0 for a 0x0 block
    if norm == 0.0:
        return np.eye(a.shape[0], dtype=a.dtype)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0**-s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
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
    for _ in range(s):
        r = r @ r
    return r


def evolve(
    h: np.ndarray, t: float, psi0: PureState, rk4_steps: int | None = None
) -> PureState:
    """Propagate psi0 by exp(-i*H*t).

    For a non-Hermitian H this is the unnormalized no-jump branch. By
    default the matrix exponential propagates; an integer ``rk4_steps``
    (at least 100) instead integrates dpsi/dt = -i*H*psi with classic RK4
    over that many uniform steps, the independent cross-check.

    Either method propagates psi0 on its reachable sector alone, the block
    of H on ``_reachable_sector``: no entry of H leads out of that sector,
    so the result is exactly zero outside it.
    """
    if not 0.0 <= t < math.inf:
        raise ConfigError(f"evolution time must be finite and >= 0, got {t}")
    if rk4_steps is not None and rk4_steps < 100:
        raise ConfigError(f"RK4 integration needs rk4_steps >= 100, got {rk4_steps}")
    if h.shape != (psi0.dimension, psi0.dimension):
        raise ConfigError(
            f"operator shape {h.shape} does not match state dimension {psi0.dimension}"
        )
    # Checked on all of H: a bad entry outside the sector never reaches the result.
    if not np.isfinite(h).all():
        raise NumericalError("generator has non-finite entries")
    sector = _reachable_sector(h, psi0.amplitudes)
    block = h[sector[:, None], sector]
    if rk4_steps is None:
        part = expm(-1j * block * t) @ psi0.amplitudes[sector]
    else:
        part = _rk4(block, t, psi0.amplitudes[sector], rk4_steps)
    amps = np.zeros(psi0.dimension, dtype=complex)
    amps[sector] = part
    _check_result(amps, psi0.basis)
    return PureState(amps, psi0.basis)


def _reachable_sector(h: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sorted positions of the smallest set that holds the support of
    ``amps`` and is closed under H: an entry h[i, j] != 0 (NaN included)
    adds i whenever j is in the set."""
    linked = h != 0
    reached = amps != 0
    size = np.count_nonzero(reached)
    while True:
        reached = reached | (linked @ reached)  # one step along every edge
        grown = np.count_nonzero(reached)
        if grown == size:
            return np.flatnonzero(reached)
        size = grown


def _rk4(h: np.ndarray, t: float, amps: np.ndarray, steps: int) -> np.ndarray:
    gen = -1j * h
    dt = t / steps
    y = amps.astype(complex)
    for _ in range(steps):
        k1 = gen @ y
        k2 = gen @ (y + 0.5 * dt * k1)
        k3 = gen @ (y + 0.5 * dt * k2)
        k4 = gen @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@dataclass(frozen=True)
class GateExtract:
    """Realized logical gate recovered from simulation.

    ``restricted`` is the 8x8 operator on the logical subspace (columns in
    logical order |000⟩..|111⟩); ``leakage`` is the squared amplitude each
    column left outside that subspace. Column norm plus leakage is 1 for
    lossless evolution and below 1 under decay.
    """

    restricted: LogicalOperator
    leakage: np.ndarray

    def __post_init__(self) -> None:
        leak = np.asarray(self.leakage, dtype=float).copy()
        leak.flags.writeable = False
        object.__setattr__(self, "leakage", leak)
        cols = np.sum(np.abs(self.restricted.matrix) ** 2, axis=0)
        if np.any(cols + leak > 1.0 + 1e-9):
            raise NumericalError("column norm plus leakage exceeds 1")


def evolve_logical_basis(
    params: CavityParams, t: float, rk4_steps: int | None = None
) -> tuple[tuple[int, ...], list[PureState]]:
    """Evolve each logical basis state |000⟩..|111⟩ under the no-jump
    Hamiltonian for time ``t``. Returns the logical embedding and the eight
    final states, in logical order."""
    h_eff = build_effective_hamiltonian(params)
    embedding = computational_embedding()
    return embedding, [evolve(h_eff, t, basis_state(pos), rk4_steps) for pos in embedding]


def extract_gate(
    params: CavityParams, t: float, rk4_steps: int | None = None
) -> GateExtract:
    """Simulate the gate: evolve each logical basis state under the no-jump
    Hamiltonian for time ``t`` and project back onto the logical subspace."""
    if not 0.0 < t < math.inf:
        raise ConfigError(f"gate extraction needs a finite t > 0, got {t}")
    embedding, finals = evolve_logical_basis(params, t, rk4_steps)
    matrix = np.zeros((8, 8), dtype=complex)
    leakage = np.zeros(8)
    for col, final in enumerate(finals):
        projected = final.amplitudes[list(embedding)]
        matrix[:, col] = projected
        leakage[col] = final.squared_norm() - float(
            np.sum(np.abs(projected) ** 2)
        )
    return GateExtract(restricted=LogicalOperator(matrix), leakage=leakage)


def coupling_at_position(z: float, omega0: float, lambda0: float) -> float:
    """Coupling omega0 * cos(2*pi*z/lambda0) seen by an atom crossing the
    standing-wave mode at transverse offset ``z`` (meters)."""
    _check_wavelength(lambda0)
    return omega0 * math.cos(2.0 * math.pi * z / lambda0)


def positions_for_ratio(omega0: float, lambda0: float) -> tuple[float, float, float]:
    """Crossing offsets (z1, z2, z3) that realize couplings in the designed
    ratio 1 : sqrt(35) : 8.

    Atom 3 crosses the antinode (z3 = 0, full coupling omega0); atoms 1 and
    2 sit on the first cosine lobe where the mode has dropped to 1/8 and
    sqrt(35)/8 of its peak.
    """
    _check_wavelength(lambda0)
    scale = lambda0 / (2.0 * math.pi)
    z1 = scale * math.acos(1.0 / 8.0)
    z2 = scale * math.acos(math.sqrt(35.0) / 8.0)
    return (z1, z2, 0.0)


def _check_wavelength(lambda0: float) -> None:
    if not 0.0 < lambda0 < math.inf:
        raise ConfigError(f"mode wavelength must be finite and > 0, got {lambda0}")
