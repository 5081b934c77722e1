"""Closed-form error budgets for two experimental imperfections.

Timing mismatch: atom 1 is slightly slow and keeps interacting for an extra
``delta_t`` after atoms 2 and 3 have left the mode. The gate leaves each
atom-1-in-``E`` column with an atom-1 and a photon amplitude, and one delay
step applies the exact atom-1 block to them. Both timing functions take
those amplitudes from the one column model ``gates._gate_columns``: the
closed form from its paper setting (a photon only on |001⟩, from the partly
open atoms-1+3 Rabi cycle), the full-dynamics oracle ``timing_oracle`` from
its exact setting. ``timing_oracle_dense`` evolves the whole Hilbert space
at one delay and is the tests' reference for the blocks.

Coupling offsets: some of the four cavities in a two-iteration search run
with couplings off their design values by a relative offset ``eta``. The
closed form depends on the coupling ratios only, so only ratio-breaking
models (the default perturbs atom 1 alone) produce any ``eta`` dependence.
It has no full-dynamics oracle; ``coupling_offset_infidelity`` states the
error it drops.

Both infidelities are 1 minus a uniform-input fidelity: the gate is applied
to the uniform superposition and the result is compared, after
renormalization, with what the exact gate sequence would have produced.
One row-wise fidelity, ``grover._row_fidelity``, scores every delay and
every offset, as it scores every search iteration. Each function
takes a whole axis: the timing ones K parameter sets and one 1-D axis of
delays in gate times, shared by the K sets (``delay_fractions`` is its one
rule), the offset one a 1-D ``etas`` (``offset_couplings`` is its one rule,
``check_chi`` that of each chi count); one point is the one-value case.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .dynamics import (
    CavityParams,
    _check_result,
    add_cavity_decay,
    as_stack,
    block_propagator,
    evolve,
    evolve_logical_basis,
    exchange_hamiltonian,
    gate_time,
)
from .errors import ConfigError
from .gates import TEXTBOOK, _gate_columns, decayed_i000, exact_columns, full_diagonal
from .grover import _row_fidelity, _uniform_register
from .hilbert import computational_embedding

OFFSET_MODELS = ("atom1", "uniform", "per_atom")


# The exact |000⟩ phase gate applied to the uniform register.
_GATE_REFERENCE = full_diagonal(TEXTBOOK) * _uniform_register()


def _axis(name: str, values) -> np.ndarray:
    """``values`` as a 1-D float array, else a ``ConfigError`` naming ``name``."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1:
        raise ConfigError(f"{name} must be a 1-D sequence of values, got shape {axis.shape}")
    return axis


def delay_fractions(values) -> np.ndarray:
    """Atom 1's delays in gate times as a 1-D float array, each in [0, 1]."""
    fracs = _axis("delta_t_frac", values)
    bad = fracs[~((0.0 <= fracs) & (fracs <= 1.0))]  # NaN fails too
    if bad.size:
        raise ConfigError(f"delta_t_frac={bad[0]} outside [0, 1]; the model stops at one gate time")
    return fracs


def _delayed_infidelities(
    params: Sequence[CavityParams], fracs, columns: np.ndarray
) -> np.ndarray:
    """Gate infidelity of each of K parameter sets at every delay of the 1-D
    ``fracs`` (fractions of that set's gate time), in order: a (K, D) array, from the
    (K, 2, 4) (atom-1, photon) amplitudes ``columns`` of the four
    atom-1-in-``E`` columns at the gate time, whose atom-1 rows are the
    gates' decaying slots: each delay dt applies ``block_propagator(w1,
    kappa, dt)``, and the other four columns stay exactly 1."""
    stack = as_stack(params)
    fracs = delay_fractions(fracs)
    w1, kappa, t = np.array([(p.omega[0], p.kappa, gate_time(p)) for p in stack]).T[..., None]
    atom1 = block_propagator(w1, kappa, fracs * t)[..., 0, :] @ columns
    _check_result(atom1)
    return 1.0 - _row_fidelity(_GATE_REFERENCE, full_diagonal(atom1) * _uniform_register())[0]


def timing_infidelity(params: Sequence[CavityParams], fracs) -> np.ndarray:
    """Closed-form gate infidelity caused by atom 1 overstaying by dt, for
    each of K parameter sets at every delay of the 1-D ``fracs``, each a
    fraction of that set's gate time, in order: a (K, D) array.

    The delay model of ``timing_oracle`` on the paper setting of
    ``gates._gate_columns``. Its atom-1 row is ``decayed_i000``'s. Of the
    exact photon row -i*exp(-kappa*T/4) * w1/a * sin(a*T) it takes the phase
    at W*pi/w1, as that row does, and drops the envelope: -i*w1/a13 *
    sin(sqrt(65)*pi) on |001⟩ (a13 = sqrt(w1^2 + w3^2 - kappa^2/16)) and
    exactly 0 on the closed cycles.
    """
    return _delayed_infidelities(params, fracs, np.stack(_gate_columns(params, False), -2))


def timing_oracle(params: Sequence[CavityParams], fracs) -> np.ndarray:
    """Full-dynamics counterpart of ``timing_infidelity``, on the same K
    parameter sets and 1-D delay fractions. One gate time leaves each
    atom-1-in-``E`` column the exact amplitudes of ``gates.exact_columns``;
    each delay then applies P(w1, dt). ``timing_oracle_dense`` is its reference.
    """
    return _delayed_infidelities(params, fracs, exact_columns(params))


def timing_oracle_dense(params: CavityParams, delta_t_frac: float) -> float:
    """``timing_oracle`` at one delay, in gate times, by dense propagation:
    the test reference.

    Evolves each logical basis state under the complete no-jump Hamiltonian
    for one gate time, then under the atom-1-only coupling (atoms 2 and 3
    gone, decay still on) for the delay, projects onto the logical subspace,
    and evaluates the same uniform-input infidelity.
    """
    (frac,) = delay_fractions([delta_t_frac])
    t_gate = gate_time(params)
    mids = evolve_logical_basis([params], [t_gate])[0]
    h_atom1 = exchange_hamiltonian((params.omega[0], 0.0, 0.0))  # atoms 2, 3 gone
    add_cavity_decay(h_atom1, params.kappa)
    logical = list(computational_embedding())
    gate = np.column_stack([evolve(h_atom1, frac * t_gate, mid)[logical] for mid in mids])
    return float(1.0 - _row_fidelity(_GATE_REFERENCE, gate @ _uniform_register())[0])


def check_chi(chi) -> None:
    """The one rule on an imperfect-cavity count: an integer in 1..4."""
    if not (isinstance(chi, (int, np.integer)) and 1 <= chi <= 4):
        raise ConfigError(f"chi counts imperfect cavities, must be 1..4, got {chi}")


def offset_couplings(
    params: CavityParams, etas, model: str = "atom1",
    per_atom_eta: tuple[float, float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling triple inside an imperfect cavity at each offset of the 1-D
    ``etas``: three arrays of its shape, one value per eta for every
    coupling, also those the model leaves fixed. The one offset rule: every
    |eta| < 1 (the first bad value is named, NaN too), a known ``model``, and
    a given ``per_atom_eta`` three values with |eta| < 1, whatever the model.

    ``atom1`` scales only the first coupling by (1 + eta), ``uniform``
    scales all three, ``per_atom`` applies individual factors (1 + eta_j)
    from ``per_atom_eta`` at every eta. The imperfect cavities are assumed
    identical.
    """
    eta = np.asarray(etas)
    bad = eta[~(np.abs(eta) < 1.0)]  # NaN fails too
    if bad.size:
        raise ConfigError(f"|eta| must be < 1, got {bad[0]}")
    if model not in OFFSET_MODELS:
        raise ConfigError(f"offset model must be one of {OFFSET_MODELS}, got {model!r}")
    if model == "per_atom" and per_atom_eta is None:
        raise ConfigError("per_atom model needs three per-atom offsets (eta1, eta2, eta3)")
    if per_atom_eta is not None and not (
        len(per_atom_eta) == 3 and all(abs(e) < 1 for e in per_atom_eta)
    ):
        raise ConfigError(f"per-atom offsets must be three values, |eta| < 1, got {per_atom_eta}")
    shifts = {"atom1": (eta, 0.0, 0.0), "uniform": (eta, eta, eta), "per_atom": per_atom_eta}
    couplings = [(1.0 + e) * w for e, w in zip(shifts[model], params.omega)]  # 1.0 * w is w
    return tuple(np.broadcast_arrays(*couplings, eta)[:3])


def coupling_offset_infidelity(
    params: CavityParams, chis: Sequence[int], etas: Sequence[float],
    model: str = "atom1", per_atom_eta: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Closed-form infidelity of a two-iteration search (four phase gates)
    when ``chi`` of the four cavities carry offset couplings, at every
    (chi, eta) pair: a (len(chis), len(etas)) array.

    Each four-gate composite damping factor multiplies ``chi`` imperfect-
    cavity factors with ``4 - chi`` design factors. In an imperfect-cavity
    factor the weights p1^2/(p1^2 + ...) come from the offset couplings,
    while decay, gate time and the Rabi phases stay at their design values
    (``decayed_i000``): sqrt(65)*pi on |001⟩, and cos = -1 or +1 on |000⟩,
    |010⟩ and |011⟩, as if every Rabi cycle still closed.
    So the |000⟩ factor is exp(-kappa*t/4) whatever the offset, and under a
    uniform offset the weights cancel and the whole infidelity is exactly
    independent of eta.

    Simulated gates (``dynamics.extract_gate``) disagree: an offset atom-1
    cycle does not close at the design gate time, so even their |000⟩ entry
    moves with eta. At kappa = w1/10 and eta = +0.05 this form falls with
    chi (0.0083388 -> 0.0083317), four simulated gates rise (0.008745 -> 0.009994).

    ``check_chi`` checks each chi once, and one ``offset_couplings`` call
    checks every offset and gives the coupling arrays. One ``decayed_i000``
    call on them gives every offset slot; their chi-th powers are products
    and the fidelity is row-wise, so each point is computed exactly as it
    would be alone.
    """
    etas = _axis("etas", etas)
    for chi in chis:
        check_chi(chi)
    couplings = offset_couplings(params, etas, model, per_atom_eta)
    base = decayed_i000(params)
    return _four_gate_infidelities(decayed_i000(params, couplings), base, chis)


def _four_gate_infidelities(primed: np.ndarray, base: np.ndarray, chis) -> np.ndarray:
    """(len(chis), n) infidelities from the four decaying slots, the (n, 4)
    offset factors ``primed`` and the (4,) design factors ``base``: only that
    block is raised to the power chi; the other four slots of every output
    row are u, as 1**chi * 1 * u is. The power is chi - 1 products in one
    sequence for any ``chis`` (``**`` calls C ``pow`` per element for 3, 4)."""
    # After an even number of phase gates the |000⟩ sign flips cancel, so
    # the exact four-gate reference is the uniform register u itself.
    u = np.ascontiguousarray(_uniform_register().real)  # einsum's sum order follows strides
    outputs = np.empty((len(primed), 8))
    outputs[:, 4:] = u[4:]
    powers = [primed]  # powers[k] is primed**(k + 1) as k products
    for _ in range(max(chis, default=1) - 1):
        powers.append(powers[-1] * primed)
    grid = np.empty((len(chis), len(primed)))
    for row, chi in zip(grid, chis):
        outputs[:, :4] = powers[chi - 1] * base ** (4 - chi) * u[:4]
        row[:] = 1.0 - _row_fidelity(u, outputs)[0]
    return grid
