"""Closed-form 8x8 operators on the logical register.

Everything here acts in the logical order |000⟩..|111⟩ fixed by
``hilbert.computational_embedding``. The phase gate diag(-mu, gamma, beta,
alpha, 1, 1, 1, 1) is one read-only array of its four decaying slots, (4,)
or (n, 4) for n gates (``full_diagonal`` appends the four exact ones).
``decayed_i000`` gives them in the paper's closed form, each damped by the
photon population its logical state cycles through the mode, on the column
model ``_bright_columns``; coupling arrays give one row per value, bit for
bit the scalar call's. ``exact_columns`` is the same model without the
paper's approximations: the exact atom-1 and photon amplitudes of those four
columns, whose complex atom-1 rows are slots too. Named cases:

* the gate a lossless cavity actually realizes is the decayed gate at
  kappa = 0; its |001⟩ entry (``residual_gate_entry``) still falls short
  of 1 because the atoms-1+3 Rabi cycle (frequency sqrt(65) in units of
  the weakest coupling) does not close after one gate time, and
* the textbook reflection diag(-1, 1, ..., 1), the constant ``TEXTBOOK``,
  has every damping factor equal to 1.

Every other marked state's phase gate is the |000⟩ gate conjugated by bit
flips, which is an index permutation, and the same gate sandwiched between
Hadamard layers inverts every amplitude about the average, so one physical
gate drives the whole search.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CavityParams, as_stack, block_propagator, gate_time
from .errors import ConfigError
from .hilbert import LogicalOperator  # re-exported: defined beside PureState


@dataclass(frozen=True)
class MarkedState:
    """Three-bit label of the state the search is asked to find."""

    bits: str

    def __post_init__(self) -> None:
        if (
            not isinstance(self.bits, str)
            or len(self.bits) != 3
            or any(c not in "01" for c in self.bits)
        ):
            raise ConfigError(f"marked state must be three bits, got {self.bits!r}")

    @classmethod
    def of(cls, tau: MarkedState | str) -> MarkedState:
        """``tau`` itself if already a marked state, else its validated label."""
        return tau if isinstance(tau, cls) else cls(tau)

    @property
    def index(self) -> int:
        return int(self.bits, 2)

    def __str__(self) -> str:
        return self.bits


# The textbook reflection diag(-1, 1, ..., 1): every damping factor 1. Its
# slots are also the signs that turn slots into factors: slot 0 holds -mu.
TEXTBOOK = np.array([-1.0, 1.0, 1.0, 1.0])
TEXTBOOK.flags.writeable = False


def full_diagonal(slots: np.ndarray) -> np.ndarray:
    """The eight diagonal entries of the gates with decaying ``slots``
    (..., 4): those four, then the four exact entries 1 of |100⟩..|111⟩."""
    return np.concatenate([slots, np.ones_like(slots)], axis=-1)


def hadamard3() -> LogicalOperator:
    """Tensor cube of the single-qubit Hadamard; unitary and involutive."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return LogicalOperator(np.kron(np.kron(h1, h1), h1))


def pauli_x(qubit: int) -> LogicalOperator:
    """Bit flip on one logical qubit (1-based); a self-inverse permutation."""
    if qubit not in (1, 2, 3):
        raise ConfigError(f"qubit index must be 1..3, got {qubit}")
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    factors = [eye, eye, eye]
    factors[qubit - 1] = x
    return LogicalOperator(np.kron(np.kron(factors[0], factors[1]), factors[2]))


def _bright_columns(w1, w2, w3):
    """W^2 = w1^2 + b2*w2^2 + b3*w3^2 and atom-1 share s = w1^2/W^2 of the
    bright state that links column |0 b2 b3⟩ to the mode, for |000⟩, |001⟩,
    |010⟩, |011⟩ (s = 1 exactly on |000⟩); floats or equal-shape arrays."""
    w1sq, w3sq = w1 * w1, w3 * w3
    w12sq = w1sq + w2 * w2
    bright_sq = (w1sq, w1sq + w3sq, w12sq, w12sq + w3sq)
    return bright_sq, (1.0, w1sq / bright_sq[1], w1sq / w12sq, w1sq / bright_sq[3])


def exact_columns(params: Sequence[CavityParams], t=None) -> np.ndarray:
    """Exact atom-1 and photon amplitudes of the four atom-1-in-``E``
    columns |000⟩, |001⟩, |010⟩, |011⟩ for each of K parameter sets at its
    time in the K ``t``, the gate times by default.

    Column |0 b2 b3⟩ moves only through its bright state, coupling W and
    atom-1 share s (``_bright_columns``), so with P = ``block_propagator(W,
    kappa, t)`` the rows are (1 - s) + s*P00 and (w1/W)*P10: a signed
    complex (K, 2, 4) array. Any coupling triple works; kappa < 4*w1 <= 4*W
    keeps every block underdamped.
    """
    stack = as_stack(params)
    w1, kappa = np.array([(p.omega[0], p.kappa) for p in stack]).T[..., None]
    times = np.array([gate_time(p) for p in stack] if t is None else t, dtype=float)
    if times.shape != (len(stack),):
        raise ConfigError(f"needs one time per parameter set, got shape {times.shape}")
    bright_sq, share = np.array([_bright_columns(*p.omega) for p in stack]).swapaxes(0, 1)
    bright = np.sqrt(bright_sq)  # (K, 4)
    block = block_propagator(bright, kappa, times[:, None])
    atom1, photon = (1.0 - share) + share * block[..., 0, 0], w1 / bright * block[..., 1, 0]
    return np.stack([atom1, photon], axis=-2)


# Column phases W*pi/w1 at kappa = 0 and the designed ratios; sqrt(65)*pi leaves a cycle open.
_DESIGN_PHASES = tuple(math.pi * math.sqrt(n) for n in (1.0, 65.0, 36.0, 100.0))
_DESIGN_COS = np.array([math.cos(phase) for phase in _DESIGN_PHASES])  # -1, cos(sqrt(65)*pi), 1, 1


def residual_gate_entry(params: CavityParams) -> float:
    """Lossless-gate diagonal entry on |001⟩, the decayed gate's gamma at kappa = 0:
    (1 - s) + s*cos(sqrt(65)*pi) with s = w1^2/(w1^2 + w3^2), about 0.9997."""
    return float(decayed_i000(replace(params, kappa=0.0))[1])


def decayed_i000(
    params: CavityParams, couplings: tuple[float, float, float] | None = None
) -> np.ndarray:
    """The decaying slots (-mu, gamma, beta, alpha) of the phase gate in the
    paper's closed form, a read-only (4,) array.

    Column |0 b2 b3⟩ meets the mode through one bright state, coupling W and
    atom-1 share s (``_bright_columns``). Its exact entry at the gate time T
    is (1 - s) + s*P00(W, T), P00 = exp(-kappa*T/4) * [cos(a*T) +
    kappa/(4*a) * sin(a*T)], a = sqrt(W^2 - kappa^2/16). The paper's form
    1. drops the kappa/(4*a) * sin(a*T) term, and
    2. takes the phase at the kappa = 0 gate time: a*T -> W*pi/w1,
    so each slot is (1 - s) + s*(exp(-kappa*T/4) * cos(W*pi/w1)), -mu on
    |000⟩. There s = 1 and cos = -1 leave mu the envelope bit for bit; the
    form 1 - s*(1 - envelope*cos) would round a tiny envelope to mu = 0.
    ``dynamics.extract_gate`` differs by exactly the two dropped terms: at
    most 1.3e-5 at kappa = w1/10. Decay, gate time and the phases (designed
    ratios) come from ``params``, the shares from ``couplings`` (floats or
    equal-shape arrays, one row per value; ``params.omega`` by default). A
    factor outside (0, 1] (a damped-out gate) is a ``ConfigError``.
    """
    if not params.has_designed_ratios():
        raise ConfigError(f"couplings {params.omega} are not in the designed ratio 1:sqrt(35):8")
    _, shares = _bright_columns(*(params.omega if couplings is None else couplings))
    # (4,), or (n, 4) from coupling arrays: slot 0's share is always the float 1.
    shares = np.array(shares) if couplings is None else np.stack(np.broadcast_arrays(*shares), -1)
    envelope = math.exp(-params.kappa * gate_time(params) / 4.0)
    slots = (1.0 - shares) + shares * (envelope * _DESIGN_COS)
    factors = slots * TEXTBOOK
    bad = ~((0.0 < factors) & (factors <= 1.0))  # NaN is bad too
    if bad.any():
        slot = int(bad.reshape(-1, 4).any(axis=0).argmax())
        value = factors[..., slot][bad[..., slot]][0]
        name = ("mu", "gamma", "beta", "alpha")[slot]
        raise ConfigError(f"gate diagonal factor {name}={value} outside (0, 1]")
    slots.flags.writeable = False
    return slots


def marked_gate(tau: MarkedState | str, base: LogicalOperator) -> LogicalOperator:
    """Phase gate for an arbitrary marked state: the |000⟩ gate conjugated
    by a bit flip on every qubit where ``tau`` has a 1.

    The conjugation is the index permutation base[i ^ tau, j ^ tau]. With
    the exact base this equals the reflection I - 2|tau⟩⟨tau|; with a
    damped base the diagonal factors follow the permuted slots, so the
    marked state itself carries the -mu entry.
    """
    perm = np.arange(8) ^ MarkedState.of(tau).index
    return LogicalOperator(base.matrix[np.ix_(perm, perm)])
