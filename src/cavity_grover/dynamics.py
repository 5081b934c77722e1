"""Resonant atom-cavity dynamics, with and without photon loss.

The interaction Hamiltonian exchanges one excitation between each atom's
``G`` ↔ ``E`` transition and the cavity mode,

    H = sum_j omega_j * (a† S_j^- + a S_j^+),

so states only mix within blocks of equal excitation number. A logical
input holds at most one excitation and reaches at most four states, so the
basis stops at one photon. ``evolve`` exponentiates the generator it is
given; ``evolve_logical_basis`` gives it each logical input's sector, fixed
by ``BASIS`` and found once, at import. A state is a plain complex amplitude
array, one (36,) vector on ``hilbert.BASIS`` or a (K, 36) stack, and every
result that wide is checked against the truncation guard ``hilbert.GUARD``,
where amplitude raises ``CutoffError``. Weak cavity decay at rate
``kappa`` is treated on the no-jump quantum-trajectory branch by the
non-Hermitian effective Hamiltonian H_eff = H - i*(kappa/2)*a†a; the norm
the state loses is the probability that a photon leaked.

Simultaneous resonant evolution for one gate time realizes a three-qubit
conditional phase flip when the couplings are designed in the ratio
1 : sqrt(35) : 8 — each logical state then completes an integer number of
Rabi cycles except |000⟩, which picks up a sign. ``extract_gate`` recovers
the realized logical operator directly from the simulated dynamics and is
the validation oracle for the closed-form gate matrices in ``gates``. Its
result is a pair of plain read-only arrays, the gate and its per-column leakage.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutoffError, NumericalError, _first_row, _refuse_bools
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
    """Couplings of the three atoms to the mode and the cavity decay rate:
    the dense engine's input. Rates are angular frequencies in any one unit,
    times are in its inverse, and ``check_kappa`` keeps kappa underdamped."""

    omega: tuple[float, float, float]
    kappa: float = 0.0

    def __post_init__(self) -> None:
        _refuse_bools("couplings", self.omega)
        try:  # NaN fails the guard; a wrong count or a non-number raises
            ok = len(self.omega) == 3 and all(0.0 < w < math.inf for w in self.omega)
        except TypeError:
            ok = False
        if not ok:
            raise ConfigError(f"couplings must be three finite positive rates, got {self.omega}")
        check_kappa(self.kappa, self.omega[0])

    @classmethod
    def designed(cls, omega1c: float, kappa: float = 0.0) -> "CavityParams":
        """Parameters with the couplings locked to 1 : sqrt(35) : 8."""
        r1, r2, r3 = DESIGNED_RATIOS
        return cls(omega=(omega1c * r1, omega1c * r2, omega1c * r3), kappa=kappa)


def check_kappa(kappa, omega1: float = 1.0) -> np.ndarray:
    """The one rule on a decay rate: ``kappa``, one rate or a non-empty axis,
    holds numbers in [0, 4*omega1), no bool. Returns them as a float array;
    an axis's first bad rate is named."""
    _refuse_bools("kappa", kappa)
    rates = np.asarray(kappa, dtype=float)
    if rates.ndim > 1:
        raise ConfigError(f"kappa must be one rate or a 1-D axis of rates, got shape {rates.shape}")
    if rates.size == 0:
        raise ConfigError("needs at least one set of decay rates")
    bad = rates[~((0.0 <= rates) & (rates < 4.0 * omega1))]  # NaN fails too
    if bad.size:
        raise ConfigError(
            f"kappa={bad[0] if rates.ndim else kappa} outside [0, 4*omega1={4 * omega1}): "
            "decay rates are >= 0, and above 4*omega1 atom-1 exchange is overdamped"
        )
    return rates


def decay_shifted_frequency(omega, kappa):
    """Exchange frequency sqrt(omega^2 - kappa^2/16) of two-state blocks
    whose excited partner decays at ``kappa``: floats or arrays that broadcast."""
    arg = np.asarray(omega * omega - kappa * kappa / 16.0)
    if not ((0.0 < arg) & (arg < math.inf)).all():
        raise ConfigError(
            f"omega={omega}, kappa={kappa}: needs kappa < 4*|omega| (a larger kappa "
            "overdamps the block) and squared rates that neither overflow nor underflow"
        )
    return np.sqrt(arg)


def gate_time(params: CavityParams) -> float:
    """Interaction time for one conditional phase gate: a half period of the
    atom-1 exchange, pi / sqrt(omega1^2 - kappa^2/16), in the inverse rate unit."""
    return float(math.pi / decay_shifted_frequency(params.omega[0], params.kappa))


def block_propagator(omega, kappa, t) -> np.ndarray:
    """Exact no-jump propagator on the (bright atomic state, one photon)
    amplitudes of a one-excitation block with coupling ``omega``, shape
    broadcast(omega, kappa, t) + (2, 2): with a = sqrt(omega^2 - kappa^2/16) > 0,
    exp(-kappa*t/4) * [cos(a*t)*I + sin(a*t)/a * [[kappa/4, -i*omega], [-i*omega, -kappa/4]]].
    """
    omega, kappa, t = (np.asarray(x, float) for x in (omega, kappa, t))
    a = np.sqrt(omega * omega - kappa * kappa / 16.0)
    cos, sin = np.cos(at := a * t), np.sin(at) / a  # of the broadcast shape
    envelope, damped = np.exp(-kappa * t / 4.0), kappa / 4.0 * sin
    block = np.empty(cos.shape + (2, 2), dtype=complex)
    block[..., 0, 0] = envelope * (cos + damped)
    block[..., 1, 1] = envelope * (cos - damped)
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
    eye = _identity(a.shape[-1], a.dtype)
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


@functools.cache
def _identity(n: int, dtype: np.dtype) -> np.ndarray:
    """The n x n identity of ``dtype``, built once per pair: a read-only view."""
    return np.broadcast_to(np.eye(n, dtype=dtype), (n, n))


def evolve(h: np.ndarray, t, psi0) -> np.ndarray:
    """Propagate the amplitudes psi0 by exp(-i*H*t): one (d, d) generator and
    a float t, or a (K, d, d) stack and K times, with psi0 one (d,) state or
    a stack of them, (K2, d) for one generator and (1, d) or (K, d) for a
    stack; the result is a complex array of the broadcast shape.

    For a non-Hermitian H this is the unnormalized no-jump branch. The whole
    of H is exponentiated: a caller that wants a sector passes its block, as
    ``evolve_logical_basis`` does. Each check runs once for the whole stack,
    naming its first bad row.
    """
    times, psi0 = _checked_operands(h, t, psi0)
    # C order gives every slice of a stack the layout, and so the BLAS path
    # and the bits, of a one-H call.
    amps = (expm(np.ascontiguousarray(-1j * h * times[..., None, None])) @ psi0[..., None])[..., 0]
    _check_result(amps)
    return amps


def _checked_operands(h: np.ndarray, t, psi0) -> tuple[np.ndarray, np.ndarray]:
    """``evolve``'s rules: finite times >= 0, one per generator, shapes that
    match, and a finite H. Returns the times and psi0 as arrays."""
    times = np.asarray(t, dtype=float)
    if not all(0.0 <= x < math.inf for x in times.ravel().tolist()):  # NaN fails too
        raise ConfigError(f"evolution time must be finite and >= 0, got {t}")
    psi0 = np.asarray(psi0, dtype=complex)
    d = psi0.shape[-1] if psi0.ndim in (1, 2) else -1
    mismatched = h.ndim == 3 and psi0.ndim == 2 and len(psi0) not in (1, len(h))
    if h.ndim not in (2, 3) or h.shape[-2:] != (d, d) or times.shape != h.shape[:-2] or mismatched:
        raise ConfigError(
            f"operator shape {h.shape} does not match {times.shape} times and a 1-D or "
            f"2-D state as wide as it, one row or one per operator, got {psi0.shape}"
        )
    if not (finite := np.isfinite(h)).all():
        raise NumericalError("generator has non-finite entries", _first_row(~finite, 2))
    return times, psi0


def _reachable_sector(h: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sorted positions of the smallest set that holds the support of the
    1-D ``amps`` and is closed under the 2-D H: an entry h[i, j] != 0 adds i
    whenever j is in the set. Run at import only, for ``_LOGICAL_SECTORS``."""
    linked, reached = h != 0, amps != 0
    size = np.count_nonzero(reached)
    while True:
        reached = reached | (linked @ reached)  # one step along every edge
        grown = np.count_nonzero(reached)
        if grown == size:
            return np.flatnonzero(reached)
        size = grown


# Fixed by ``BASIS``, so found once: couplings are positive and decay only adds
# diagonal entries, so each logical input reaches one sector under every H_eff.
_UNITS = np.eye(len(BASIS), dtype=complex)
_LOGICAL_SECTORS = [
    (pos, _reachable_sector(exchange_hamiltonian((1.0, 1.0, 1.0)), _UNITS[pos]))
    for pos in computational_embedding()
]
# Per sector, as flat positions: its block in a (K, 36 * 36) view of an H
# stack, its start state, and its column's entries in a (K, 8 * 36) view.
_SECTOR_BLOCKS = [
    ((sector[:, None] * len(BASIS) + sector).ravel(), _UNITS[pos, sector], column * len(BASIS) + sector)
    for column, (pos, sector) in enumerate(_LOGICAL_SECTORS)
]
_LOGICAL = np.array(computational_embedding())


def evolve_logical_basis(params: Sequence[CavityParams], t) -> np.ndarray:
    """Evolve each logical basis state |000⟩..|111⟩ under the no-jump
    Hamiltonian of K parameter sets for their K times ``t``: a (K, 8, 36)
    array whose axis 1 is in logical order. The whole (K, 36, 36) stack is
    checked once, so a bad entry outside every sector is refused too; one
    ``evolve`` call per state exponentiates its sector's (K, n, n) block,
    n <= 4, and the result is checked once on ``GUARD``."""
    if not (stack := list(params)):
        raise ConfigError("needs at least one set of cavity parameters")
    h_eff = np.stack([build_effective_hamiltonian(p) for p in stack])
    times, _ = _checked_operands(h_eff, t, _UNITS[0])  # any state as wide as BASIS
    k, d = h_eff.shape[:2]
    flat, amps = h_eff.reshape(k, d * d), np.zeros((k, len(_SECTOR_BLOCKS) * d), dtype=complex)
    for take, start, put in _SECTOR_BLOCKS:
        amps[:, put] = evolve(flat.take(take, axis=1).reshape(k, len(start), len(start)), times, start)
    amps = amps.reshape(k, len(_SECTOR_BLOCKS), d)
    _check_result(amps)
    return amps


def extract_gate(params: Sequence[CavityParams], t) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the gate of K parameter sets at their K times ``t``: evolve
    each logical basis state under the no-jump Hamiltonian and project back
    onto the logical subspace. Returns ``(restricted, leakage)``, read-only:
    the complex (K, 8, 8) gate on the logical subspace (columns in logical
    order |000⟩..|111⟩) and the float (K, 8) squared amplitude each column
    left outside it, checked by ``_check_gate``. The eight ``evolve`` calls
    each propagate one column's (K, n, n) block of the (K, 36, 36) stack;
    slice k has the bits of a one-set stack.
    """
    if not np.all(np.asarray(t, dtype=float) > 0.0):  # NaN fails too; evolve rejects inf
        raise ConfigError(f"gate extraction needs a finite t > 0, got {t}")
    amps = evolve_logical_basis(params, t)  # (K, column, state)
    projected = amps.take(_LOGICAL, axis=-1)  # C order: the sums below run along rows of 8
    norm = np.einsum("...i,...i->...", amps, amps.conj()).real
    leakage = norm - (np.abs(projected) ** 2).sum(axis=-1)
    restricted = projected.swapaxes(-1, -2)
    _check_gate(restricted, leakage)
    restricted.flags.writeable = leakage.flags.writeable = False
    return restricted, leakage


def _check_gate(restricted: np.ndarray, leakage: np.ndarray) -> None:
    """The rule on an extracted gate: column norm plus leakage is 1 for
    lossless evolution and below 1 under decay, and leakage is a squared
    norm. A stack names its first row that breaks either rule, one gate no row."""
    cols = np.sum(np.abs(restricted) ** 2, axis=-2)
    over, under = ~(cols + leakage <= 1.0 + 1e-9), ~(leakage >= -1e-9)  # NaN fails both
    if (bad := over | under).any():
        row = _first_row(bad, 1)  # under[None] is all of an unstacked gate
        what = "column norm plus leakage exceeds 1"
        if under[row].any():  # named first: a NaN leakage breaks both rules
            what = "leakage is NaN or below -1e-9"
        raise NumericalError(what, row)


def positions_for_ratio(lambda0: float) -> tuple[float, float, float]:
    """Crossing offsets (z1, z2, z3) that realize couplings in the designed
    ratio 1 : sqrt(35) : 8, for any peak coupling.

    Atom 3 crosses the antinode (z3 = 0, full coupling); atoms 1 and 2 sit
    on the first cosine lobe where the mode has dropped to 1/8 and
    sqrt(35)/8 of its peak. A wavelength that puts z2 below the smallest
    normal float is rejected: subnormal offsets keep only a few bits.
    """
    _refuse_bools("mode wavelength", lambda0)
    if not 0.0 < lambda0 < math.inf:
        raise ConfigError(f"mode wavelength must be finite and > 0, got {lambda0}")
    scale = lambda0 / (2.0 * math.pi)
    z1 = scale * math.acos(1.0 / 8.0)
    z2 = scale * math.acos(math.sqrt(35.0) / 8.0)
    if z2 < sys.float_info.min:
        raise ConfigError(f"mode wavelength {lambda0} puts offset z2={z2} below the normal floats")
    return (z1, z2, 0.0)
