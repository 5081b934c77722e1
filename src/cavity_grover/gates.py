"""Closed-form 8x8 operators on the logical register, as read-only complex
arrays.

Everything here acts in the logical order |000⟩..|111⟩ fixed by
``hilbert.computational_embedding``. The phase gate diag(-mu, gamma, beta,
alpha, 1, 1, 1, 1) is one read-only array of its four decaying slots, (4,)
or (n, 4) for n gates (``full_diagonal`` appends the four exact ones).
One function, ``_gate_columns``, models the four columns they sit in, with
the paper's approximations or without, at the designed couplings with
omega1 = 1: its one input is the decay rate kappa/omega1, one rate or a
(K,) axis of them. ``decayed_i000`` is its paper setting, each slot damped
by the photon population its logical state cycles through the mode;
coupling arrays give one row per value, bit for bit the scalar call's.
``exact_columns`` is its exact setting: the atom-1 and photon amplitudes,
whose complex atom-1 rows are slots too. Named cases:

* the gate a lossless cavity actually realizes is the decayed gate at
  kappa = 0; its |001⟩ entry, ``decayed_i000(0.0)[1]``, still falls short
  of 1 because the atoms-1+3 Rabi cycle (frequency sqrt(65) in units of
  the weakest coupling) does not close after one gate time, and
* the textbook reflection diag(-1, 1, ..., 1), the constant ``TEXTBOOK``,
  has every damping factor equal to 1.

Sandwiched between Hadamard layers, the |000⟩ gate inverts every amplitude
about the average, so one physical gate drives the whole search, and the
search needs only that gate. Another marked state's gate, ``marked_gate``,
is it conjugated by bit flips, an index permutation, which only relabels
the search's output. A marked state is its three-bit string, checked by the
one rule ``marked_index``.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import DESIGNED_RATIOS, block_propagator, check_kappa, decay_shifted_frequency
from .errors import ConfigError


def marked_index(tau: str) -> int:
    """The one rule on a marked state: a string of three bits. Returns its
    position 0..7 in the logical order."""
    if not isinstance(tau, str) or len(tau) != 3 or any(c not in "01" for c in tau):
        raise ConfigError(f"marked state must be three bits, got {tau!r}")
    return int(tau, 2)


# The textbook reflection diag(-1, 1, ..., 1): every damping factor 1. Its
# slots are also the signs that turn slots into factors: slot 0 holds -mu.
TEXTBOOK = np.array([-1.0, 1.0, 1.0, 1.0])
TEXTBOOK.flags.writeable = False


def full_diagonal(slots: np.ndarray) -> np.ndarray:
    """The eight diagonal entries of the gates with decaying ``slots``
    (..., 4): those four, then the four exact entries 1 of |100⟩..|111⟩."""
    return np.concatenate([slots, np.ones_like(slots)], axis=-1)


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """A freshly built ``matrix``, made complex and read-only."""
    out = np.asarray(matrix, dtype=complex)
    out.flags.writeable = False
    return out


def hadamard3() -> np.ndarray:
    """Tensor cube of the single-qubit Hadamard; unitary and involutive."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return _read_only(np.kron(np.kron(h1, h1), h1))


def pauli_x(qubit: int) -> np.ndarray:
    """Bit flip on one logical qubit (1-based); a self-inverse permutation."""
    if qubit not in (1, 2, 3):
        raise ConfigError(f"qubit index must be 1..3, got {qubit}")
    factors = [np.eye(2)] * 3
    factors[qubit - 1] = np.array([[0.0, 1.0], [1.0, 0.0]])
    return _read_only(np.kron(np.kron(factors[0], factors[1]), factors[2]))


def _bright_columns(w1, w2, w3):
    """W^2 = w1^2 + b2*w2^2 + b3*w3^2 and atom-1 share s = w1^2/W^2 of the
    bright state that links column |0 b2 b3⟩ to the mode, for |000⟩, |001⟩,
    |010⟩, |011⟩ (s = 1 exactly on |000⟩); floats or equal-shape arrays."""
    w1sq, w3sq = w1 * w1, w3 * w3
    w12sq = w1sq + w2 * w2
    bright_sq = (w1sq, w1sq + w3sq, w12sq, w12sq + w3sq)
    return bright_sq, (1.0, w1sq / bright_sq[1], w1sq / w12sq, w1sq / bright_sq[3])


# cos of the column phases W*pi/w1 at kappa = 0 and the designed ratios,
# pi*sqrt(n) for n = 1, 65, 36, 100, and -i*sin of them: only sqrt(65)*pi
# leaves a cycle open, and the closed cycles' sines are 0, not sin(pi) = 1.2e-16.
_DESIGN_COS = np.array([math.cos(math.pi * math.sqrt(n)) for n in (1.0, 65.0, 36.0, 100.0)])
_DESIGN_ISIN = -1j * np.array([0.0, math.sin(math.pi * math.sqrt(65.0)), 0.0, 0.0])


def _gate_times(kappa: np.ndarray) -> np.ndarray:
    """``dynamics.gate_time`` at w1 = 1 for each decay rate of ``kappa``."""
    return math.pi / decay_shifted_frequency(1.0, kappa)


def _gate_columns(kappa, exact: bool, couplings=None):
    """Atom-1 and photon rows, two (..., 4) arrays, of the four atom-1-in-``E``
    columns |000⟩, |001⟩, |010⟩, |011⟩ after the gate time at each decay rate
    of ``kappa`` (``check_kappa``), in units of the designed w1 = 1: the
    package's one column model.

    Column |0 b2 b3⟩ moves only through its bright state, coupling W and
    atom-1 share s (``_bright_columns``), so with P = ``block_propagator(W,
    kappa, T)`` the ``exact`` rows are (1 - s) + s*P00 and (w1/W)*P10:
    kappa < 4*w1 <= 4*W keeps every block underdamped. The other setting is
    the paper's; ``decayed_i000`` and ``timing_infidelity`` name what it
    drops from each row. ``couplings`` (floats or equal-shape arrays) replace
    the shares at one rate, one atom-1 row per value.
    """
    kappa = check_kappa(kappa)[..., None]
    t = _gate_times(kappa)
    bright_sq, shares = _bright_columns(*DESIGNED_RATIOS)
    if exact:
        bright = np.sqrt(bright_sq)
        block = block_propagator(bright, kappa, t)
        bright_atom, photon = block[..., 0, 0], 1.0 / bright * block[..., 1, 0]
    else:  # per rate the envelope, and w1/a on |001⟩, the one column with a sine
        envelope = np.reshape([math.exp(x) for x in np.ravel(-kappa * t / 4.0).tolist()], t.shape)
        w1_over_a = 1.0 / decay_shifted_frequency(math.sqrt(bright_sq[1]), kappa)
        # envelope*cos: -mu (s = 1, cos = -1) is the envelope bit for bit, never rounded to 0.
        bright_atom, photon = envelope * _DESIGN_COS, w1_over_a * _DESIGN_ISIN
    if couplings is not None:  # (..., 4); slot 0's share is always the float 1
        shares = np.stack(np.broadcast_arrays(*_bright_columns(*couplings)[1]), -1)
    shares = np.asarray(shares)
    return (1.0 - shares) + shares * bright_atom, photon


def exact_columns(kappa) -> np.ndarray:
    """The exact setting of ``_gate_columns`` at each decay rate of
    ``kappa``, atom-1 row first: a signed complex (..., 2, 4) array."""
    return np.stack(_gate_columns(kappa, True), axis=-2)


def decayed_i000(kappa, couplings: tuple[float, float, float] | None = None) -> np.ndarray:
    """The decaying slots (-mu, gamma, beta, alpha) of the phase gate in the
    paper's closed form, the atom-1 row of ``_gate_columns``' paper setting:
    read-only, (4,) at one decay rate ``kappa`` (in units of w1), (K, 4) at a
    (K,) axis, one row per value of coupling arrays (bit for bit the scalar call's).

    Of the exact row it drops the kappa/(4*a) * sin(a*T) term and takes the
    phase at the kappa = 0 gate time, a*T -> W*pi/w1: ``dynamics.extract_gate``
    differs by exactly those two terms, at most 1.3e-5 at kappa = w1/10.
    Decay, gate time and the phases (designed ratios) come from ``kappa``,
    the shares from ``couplings`` (the designed ratios by default). At
    kappa = 0, gamma is (1 - s) + s*cos(sqrt(65)*pi), s = 1/65, about 0.9997.
    A factor outside (0, 1] (a damped-out gate) is a ``ConfigError`` naming
    the first bad factor in slot order, and its first bad value.
    """
    atom1, _ = _gate_columns(kappa, False, couplings)
    factors = atom1 * TEXTBOOK
    bad = ~((0.0 < factors) & (factors <= 1.0))  # NaN is bad too
    if bad.any():
        slot = int(bad.reshape(-1, 4).any(axis=0).argmax())
        name, value = ("mu", "gamma", "beta", "alpha")[slot], factors[..., slot][bad[..., slot]][0]
        raise ConfigError(f"gate diagonal factor {name}={value} outside (0, 1]")
    atom1.flags.writeable = False
    return atom1


def marked_gate(tau: str, base) -> np.ndarray:
    """Phase gate for an arbitrary marked state: the |000⟩ gate ``base``, one
    finite 8x8 matrix, conjugated by a bit flip on every qubit where the
    three bits ``tau`` have a 1.

    The conjugation is the index permutation base[i ^ tau, j ^ tau]. With
    the exact base this equals the reflection I - 2|tau⟩⟨tau|; with a
    damped base the diagonal factors follow the permuted slots, so the
    marked state itself carries the -mu entry.
    """
    perm = np.arange(8) ^ marked_index(tau)
    base = np.asarray(base, dtype=complex)
    if base.shape != (8, 8) or not np.isfinite(base).all():
        raise ConfigError(f"marked_gate needs one finite 8x8 base gate, got shape {base.shape}")
    return _read_only(base[np.ix_(perm, perm)])
