"""Closed-form 8x8 operators on the logical register, as read-only complex
arrays.

Everything here acts in the logical order |000⟩..|111⟩ fixed by
``hilbert.computational_embedding``. The phase gate diag(-mu, gamma, beta,
alpha, 1, 1, 1, 1) is one read-only array of its four decaying slots, (4,)
or (n, 4) for n gates (``full_diagonal`` appends the four exact ones).
One function, ``_gate_columns``, models the four columns they sit in, with
the paper's approximations or without. ``decayed_i000`` is its paper
setting, each slot damped by the photon population its logical state cycles
through the mode; coupling arrays give one row per value, bit for bit the
scalar call's. ``exact_columns`` is its exact setting: the atom-1 and photon
amplitudes, whose complex atom-1 rows are slots too. Named cases:

* the gate a lossless cavity actually realizes is the decayed gate at
  kappa = 0; its |001⟩ entry (``residual_gate_entry``) still falls short
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
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from .dynamics import CavityParams, as_stack, block_propagator, decay_shifted_frequency, gate_time
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
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    factors = [eye, eye, eye]
    factors[qubit - 1] = x
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


def _gate_columns(params: Sequence[CavityParams], exact: bool, couplings=None):
    """Atom-1 and photon rows, two (K, 4) arrays, of the four atom-1-in-``E``
    columns |000⟩, |001⟩, |010⟩, |011⟩ of each of K parameter sets after its
    gate time T: the package's one column model.

    Column |0 b2 b3⟩ moves only through its bright state, coupling W and
    atom-1 share s (``_bright_columns``), so with P = ``block_propagator(W,
    kappa, T)`` the ``exact`` rows are (1 - s) + s*P00 and (w1/W)*P10, for
    any couplings: kappa < 4*w1 <= 4*W keeps every block underdamped. The
    other setting is the paper's, at the designed ratios only;
    ``decayed_i000`` and ``timing_infidelity`` name what it drops from each
    row. ``couplings`` (floats or equal-shape arrays) replace the shares of
    a single set, one atom-1 row per value; its photon row stays the set's.
    """
    stack = as_stack(params)
    if not exact and (bad := [p.omega for p in stack if not p.has_designed_ratios()]):
        raise ConfigError(f"couplings {bad[0]} are not in the designed ratio 1:sqrt(35):8")
    bright_sq, shares = zip(*(_bright_columns(*p.omega) for p in stack))
    if exact:
        w1, kappa, t = np.array([(p.omega[0], p.kappa, gate_time(p)) for p in stack]).T[..., None]
        bright = np.sqrt(bright_sq)  # (K, 4)
        block = block_propagator(bright, kappa, t)
        bright_atom, photon = block[..., 0, 0], w1 / bright * block[..., 1, 0]
    else:  # per set the envelope, and w1/a on |001⟩, the one column with a sine
        envelope, w1_over_a = np.array([(
            math.exp(-p.kappa * gate_time(p) / 4.0),
            p.omega[0] / decay_shifted_frequency(math.sqrt(w_sq[1]), p.kappa),
        ) for p, w_sq in zip(stack, bright_sq)]).T[..., None]
        # envelope*cos: -mu (s = 1, cos = -1) is the envelope bit for bit, never rounded to 0.
        bright_atom, photon = envelope * _DESIGN_COS, w1_over_a * _DESIGN_ISIN
    if couplings is None:
        shares = np.array(shares)
    else:  # (..., 4); slot 0's share is always the float 1
        shares = np.stack(np.broadcast_arrays(*_bright_columns(*couplings)[1]), -1)
        bright_atom = bright_atom[0]
    return (1.0 - shares) + shares * bright_atom, photon


def exact_columns(params: Sequence[CavityParams]) -> np.ndarray:
    """The exact setting of ``_gate_columns`` for K parameter sets, atom-1
    row first: a signed complex (K, 2, 4) array."""
    return np.stack(_gate_columns(params, True), axis=-2)


def residual_gate_entry(params: CavityParams) -> float:
    """Lossless-gate diagonal entry on |001⟩, the decayed gate's gamma at kappa = 0:
    (1 - s) + s*cos(sqrt(65)*pi) with s = w1^2/(w1^2 + w3^2), about 0.9997."""
    return float(decayed_i000(replace(params, kappa=0.0))[1])


def decayed_i000(
    params: CavityParams, couplings: tuple[float, float, float] | None = None
) -> np.ndarray:
    """The decaying slots (-mu, gamma, beta, alpha) of the phase gate in the
    paper's closed form: the atom-1 row of ``_gate_columns``' paper setting,
    a read-only (4,) array, or one row per value of coupling arrays, bit for
    bit the scalar call's.

    Of the exact row it drops the kappa/(4*a) * sin(a*T) term and takes the
    phase at the kappa = 0 gate time, a*T -> W*pi/w1: ``dynamics.extract_gate``
    differs by exactly those two terms, at most 1.3e-5 at kappa = w1/10.
    Decay, gate time and the phases (designed ratios) come from ``params``,
    the shares from ``couplings`` (``params.omega`` by default). A factor
    outside (0, 1] (a damped-out gate) is a ``ConfigError``.
    """
    atom1, _ = _gate_columns([params], False, couplings)
    slots = atom1[0] if couplings is None else atom1
    factors = slots * TEXTBOOK
    bad = ~((0.0 < factors) & (factors <= 1.0))  # NaN is bad too
    if bad.any():
        slot = int(bad.reshape(-1, 4).any(axis=0).argmax())
        value = factors[..., slot][bad[..., slot]][0]
        name = ("mu", "gamma", "beta", "alpha")[slot]
        raise ConfigError(f"gate diagonal factor {name}={value} outside (0, 1]")
    slots.flags.writeable = False
    return slots


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
