"""Closed-form 8x8 operators on the logical register.

Everything here acts in the logical order |000⟩..|111⟩ fixed by
``hilbert.computational_embedding``. The conditional phase gate has one
closed form, ``decayed_i000``, which returns the ``GateDiagonal`` of the
decaying-cavity gate: its first four entries are damped by the photon
population each logical state cycles through the mode. Called with coupling
arrays it gives one factor per coupling value, bit for bit the scalar
call's. Two special cases are named:

* the gate a lossless cavity actually realizes is the decayed gate at
  kappa = 0; its |001⟩ entry (``residual_gate_entry``) still falls short
  of 1 because the atoms-1+3 Rabi cycle (frequency sqrt(65) in units of
  the weakest coupling) does not close after one gate time, and
* the textbook reflection diag(-1, 1, ..., 1), the constant ``TEXTBOOK``,
  has every factor equal to 1.

Every other marked state's phase gate is the |000⟩ gate conjugated by bit
flips, which is an index permutation, and the inversion-about-average
operator is the same gate sandwiched between Hadamard layers, so one
physical gate drives the whole search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CavityParams, gate_time
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


@dataclass(frozen=True)
class GateDiagonal:
    """Damping factors (mu, gamma, beta, alpha) of the decaying phase gate.

    The realized gate is diag(-mu, gamma, beta, alpha, 1, 1, 1, 1): mu on
    |000⟩, gamma on |001⟩, beta on |010⟩, alpha on |011⟩; the four states
    with qubit 1 in logical 1 never excite the mode and stay exact. Each
    factor, or each value of a factor array over a grid, lies in (0, 1].
    """

    mu: float
    gamma: float
    beta: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("mu", "gamma", "beta", "alpha"):
            value = np.asarray(getattr(self, name))
            bad = value[~((0.0 < value) & (value <= 1.0))]  # NaN is bad too
            if bad.size:
                raise ConfigError(f"gate diagonal factor {name}={bad[0]} outside (0, 1]")

    def entries(self) -> tuple[float, ...]:
        """The eight diagonal entries (-mu, gamma, beta, alpha, 1, 1, 1, 1)."""
        return (-self.mu, self.gamma, self.beta, self.alpha, 1.0, 1.0, 1.0, 1.0)

    def operator(self) -> LogicalOperator:
        return LogicalOperator(np.diag(self.entries()))


# The textbook reflection diag(-1, 1, ..., 1): every damping factor 1.
TEXTBOOK = GateDiagonal(mu=1.0, gamma=1.0, beta=1.0, alpha=1.0)


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


def _pair13_phase(params: CavityParams) -> float:
    # Phase advanced by the atoms-1+3 block over one gate time at kappa=0:
    # sqrt(w1^2 + w3^2) * pi / w1, i.e. sqrt(65)*pi at the designed ratios.
    w1, _, w3 = params.omega
    return math.sqrt(w1 * w1 + w3 * w3) / w1 * math.pi


def residual_gate_entry(params: CavityParams) -> float:
    """Lossless-gate diagonal entry on |001⟩: the decayed gate's gamma at
    kappa = 0, the atoms-1+3 return amplitude
    1 - w1^2/(w1^2 + w3^2) * (1 - cos(sqrt(65)*pi)), about 0.9997."""
    return decayed_i000(replace(params, kappa=0.0)).gamma


def decayed_i000(
    params: CavityParams, couplings: tuple[float, float, float] | None = None
) -> GateDiagonal:
    """Damping factors of the phase gate realized under cavity decay,
    evaluated at the gate time; ``.operator()`` is the 8x8 gate.

    Each damping factor is the fraction of one gate time the logical state
    keeps a photon in the mode, weighted by that state's share of coupling
    to atom 1:

        mu    = exp(-kappa*t/4)                                (|000⟩)
        gamma = 1 - w1^2/(w1^2+w3^2) * (1 - mu*cos(sqrt(65)*pi))  (|001⟩)
        beta  = 1 - w1^2/(w1^2+w2^2) * (1 - mu)                (|010⟩)
        alpha = 1 - w1^2/(w1^2+w2^2+w3^2) * (1 - mu)           (|011⟩)

    Decay, gate time and the atoms-1+3 Rabi phase come from ``params``; the
    weights come from ``couplings`` (floats or equal-shape arrays, one
    factor per value), which default to ``params.omega``. Sub-leading
    oscillatory corrections of order kappa/w1 vanish at the gate time for
    the |000⟩ block and are dropped for the others; the dynamical oracle
    ``dynamics.extract_gate`` agrees to about 1e-3 at kappa = w1/10.
    """
    if not params.has_designed_ratios():
        raise ConfigError(f"couplings {params.omega} are not in the designed ratio 1:sqrt(35):8")
    w1, w2, w3 = params.omega if couplings is None else couplings
    damp = math.exp(-params.kappa * gate_time(params) / 4.0)
    w1sq = w1 * w1
    return GateDiagonal(
        mu=damp,
        gamma=1.0 - w1sq / (w1sq + w3 * w3) * (1.0 - damp * math.cos(_pair13_phase(params))),
        beta=1.0 - w1sq / (w1sq + w2 * w2) * (1.0 - damp),
        alpha=1.0 - w1sq / (w1sq + w2 * w2 + w3 * w3) * (1.0 - damp),
    )


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


def diffusion() -> LogicalOperator:
    """Inversion about the average: entries 2/8 - delta_ij. Equals
    -H3 * diag(-1, 1, ..., 1) * H3 with H3 the Hadamard layer."""
    return LogicalOperator(np.full((8, 8), 0.25) - np.eye(8))
