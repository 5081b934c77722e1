import math

import numpy as np
import pytest

from cavity_grover import (
    CavityParams,
    ConfigError,
    GateDiagonal,
    LogicalOperator,
    decayed_i000,
    diffusion,
    extract_gate,
    gate_time,
    hadamard3,
    ideal_i000,
    marked_gate,
    pauli_x,
    residual_gate_entry,
)

ALL_TAUS = [format(v, "03b") for v in range(8)]


# --- Hadamard layer -------------------------------------------------------


def test_hadamard_creates_uniform_superposition():
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    out = hadamard3().matrix @ zero
    assert np.abs(out - 1.0 / (2.0 * math.sqrt(2.0))).max() <= 1e-15


def test_hadamard_is_involutive_and_unitary():
    h3 = hadamard3()
    assert np.abs((h3 @ h3).matrix - np.eye(8)).max() <= 1e-12
    assert h3.unitary


def test_hadamard_corner_entry():
    assert hadamard3().matrix[0, 0] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)


# --- bit flips -------------------------------------------------------------


def test_bit_flip_moves_states():
    ket = np.zeros(8)
    ket[0b000] = 1.0
    assert (pauli_x(1).matrix @ ket)[0b100] == 1.0
    ket = np.zeros(8)
    ket[0b101] = 1.0
    assert (pauli_x(3).matrix @ ket)[0b100] == 1.0


def test_bit_flip_self_inverse():
    x2 = pauli_x(2)
    assert np.array_equal((x2 @ x2).matrix, np.eye(8))


def test_bit_flip_rejects_bad_index():
    with pytest.raises(ConfigError):
        pauli_x(4)


# --- phase gates -----------------------------------------------------------


def test_residual_entry_value(params_lossless):
    gamma0 = residual_gate_entry(params_lossless)
    assert gamma0 == pytest.approx(0.9997, abs=5e-5)
    # substituting the designed ratios reduces the entry to (cos(sqrt(65)*pi) + 64)/65
    assert gamma0 == pytest.approx(
        (math.cos(math.sqrt(65.0) * math.pi) + 64.0) / 65.0, abs=1e-15
    )


def test_ideal_gate_variants(params_lossless):
    exact = ideal_i000(params_lossless, exact=True)
    assert np.array_equal(exact.matrix, np.diag([-1.0, 1, 1, 1, 1, 1, 1, 1]))
    assert np.abs((exact @ exact).matrix - np.eye(8)).max() == 0.0
    realized = ideal_i000(params_lossless)
    assert realized.matrix[1, 1] == pytest.approx(residual_gate_entry(params_lossless))


def test_ideal_gate_rejects_undesigned_ratios(omega1c):
    crooked = CavityParams(omega=(omega1c, 2.0 * omega1c, 3.0 * omega1c))
    with pytest.raises(ConfigError):
        ideal_i000(crooked)


def test_decayed_gate_reduces_to_lossless(params_lossless):
    operator, diag = decayed_i000(params_lossless)
    assert diag.mu == 1.0 and diag.beta == 1.0 and diag.alpha == 1.0
    assert np.abs(operator.matrix - ideal_i000(params_lossless).matrix).max() <= 1e-15


def test_decayed_gate_factors_strong_decay(params_strong_decay):
    _, diag = decayed_i000(params_strong_decay)
    assert diag.mu == pytest.approx(0.9244, abs=1e-4)
    assert diag.gamma == pytest.approx(0.9986, abs=1e-4)
    assert diag.beta == pytest.approx(0.9979, abs=1e-4)
    assert diag.alpha == pytest.approx(0.9992, abs=1e-4)


def test_decayed_gate_factor_weak_decay(params_weak_decay):
    _, diag = decayed_i000(params_weak_decay)
    assert diag.mu == pytest.approx(0.9844, abs=1e-4)


def test_diagonal_factors_monotone_in_decay(omega1c):
    grid = np.linspace(0.0, omega1c / 10.0, 15)
    previous = None
    for kappa in grid:
        _, diag = decayed_i000(CavityParams.designed(omega1c, float(kappa)))
        current = (diag.mu, diag.gamma, diag.beta, diag.alpha)
        if previous is not None:
            assert all(c <= p + 1e-15 for c, p in zip(current, previous))
        previous = current


def test_gate_diagonal_validates_range():
    with pytest.raises(ConfigError):
        GateDiagonal(mu=0.0, gamma=1.0, beta=1.0, alpha=1.0)
    with pytest.raises(ConfigError):
        GateDiagonal(mu=1.0, gamma=1.1, beta=1.0, alpha=1.0)


# --- marked-state conjugation ----------------------------------------------


def test_marked_gate_identity_on_000(params_lossless):
    base = ideal_i000(params_lossless, exact=True)
    assert np.array_equal(marked_gate("000", base).matrix, base.matrix)


def test_marked_gate_exact_reflection(params_lossless):
    base = ideal_i000(params_lossless, exact=True)
    gate = marked_gate("101", base)
    expected = np.eye(8)
    expected[0b101, 0b101] = -1.0
    assert np.abs(gate.matrix - expected).max() <= 1e-15


def test_marked_gate_permutes_damped_diagonal(params_strong_decay):
    operator, diag = decayed_i000(params_strong_decay)
    gate = marked_gate("001", operator)
    entries = np.diag(gate.matrix).real
    # flipping bit 3 swaps slot pairs (0,1), (2,3), (4,5), (6,7)
    assert entries[0b001] == pytest.approx(-diag.mu, rel=1e-15)
    assert entries[0b000] == pytest.approx(diag.gamma, rel=1e-15)
    assert entries[0b010] == pytest.approx(diag.alpha, rel=1e-15)
    assert entries[0b011] == pytest.approx(diag.beta, rel=1e-15)


def test_marked_gate_rejects_bad_label(params_lossless):
    base = ideal_i000(params_lossless, exact=True)
    with pytest.raises(ConfigError):
        marked_gate("0012", base)
    with pytest.raises(ConfigError):
        marked_gate(9, base)
    with pytest.raises(ConfigError):
        marked_gate(5, base)


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_marked_gate_equals_bit_flip_conjugation(tau):
    # The index permutation must reproduce X_q * base * X_q over every set
    # bit exactly, on a dense complex base with no structure to hide behind.
    rng = np.random.default_rng(7)
    base = LogicalOperator(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    expected = base
    for qubit, bit in enumerate(tau, start=1):
        if bit == "1":
            expected = pauli_x(qubit) @ expected @ pauli_x(qubit)
    assert np.array_equal(marked_gate(tau, base).matrix, expected.matrix)


# --- diffusion -------------------------------------------------------------


def test_diffusion_entries():
    d = diffusion().matrix
    assert np.all(np.diag(d) == -0.75)
    off = d - np.diag(np.diag(d))
    assert np.all(off[~np.eye(8, dtype=bool)] == 0.25)


def test_diffusion_unitary_and_symmetric():
    d = diffusion()
    assert d.unitary
    assert np.array_equal(d.matrix, d.matrix.T)


def test_diffusion_from_gate_sandwich(params_lossless):
    h3 = hadamard3()
    exact = ideal_i000(params_lossless, exact=True)
    built = -(h3 @ exact @ h3).matrix
    assert np.abs(built - diffusion().matrix).max() <= 1e-12


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_iteration_equals_diffusion_form(tau, params_lossless):
    # H3 * I000 * H3 * I_tau == -D * I_tau for every marked state.
    h3 = hadamard3()
    exact = ideal_i000(params_lossless, exact=True)
    flip = marked_gate(tau, exact)
    lhs = (h3 @ exact @ h3 @ flip).matrix
    rhs = -(diffusion() @ flip).matrix
    assert np.abs(lhs - rhs).max() <= 1e-12


# --- closed forms vs dynamics ------------------------------------------


def test_closed_form_matches_dynamics_under_decay(params_strong_decay):
    operator, _ = decayed_i000(params_strong_decay)
    simulated = extract_gate(
        params_strong_decay, gate_time(params_strong_decay)
    ).restricted.diagonal()
    assert np.abs(simulated - operator.diagonal()).max() <= 1e-3


def test_closed_form_matches_dynamics_lossless(params_lossless):
    operator, _ = decayed_i000(params_lossless)
    simulated = extract_gate(
        params_lossless, gate_time(params_lossless)
    ).restricted.diagonal()
    errors = np.abs(simulated - operator.diagonal())
    assert errors[[0, 2, 3]].max() <= 1e-6
    assert errors[4:].max() <= 1e-9


def test_slot_ordering_locked_to_coupling_pairs(omega1c):
    # With undesigned couplings (w, 2w, 3w) the |001> slot must follow the
    # atoms-1+3 closed form and the |010> slot the atoms-1+2 closed form;
    # this pins which slot involves which coupling.
    params = CavityParams(omega=(omega1c, 2.0 * omega1c, 3.0 * omega1c))
    diag = extract_gate(params, math.pi / omega1c).restricted.diagonal()
    pair13 = (9.0 + math.cos(math.sqrt(10.0) * math.pi)) / 10.0
    pair12 = (4.0 + math.cos(math.sqrt(5.0) * math.pi)) / 5.0
    assert diag[1].real == pytest.approx(pair13, abs=1e-9)
    assert diag[2].real == pytest.approx(pair12, abs=1e-9)


# --- operator wrapper ------------------------------------------------------


def test_logical_operator_validates_shape():
    with pytest.raises(ConfigError):
        LogicalOperator(np.eye(4))


def test_logical_operator_unitary_flag(params_strong_decay):
    operator, _ = decayed_i000(params_strong_decay)
    assert not operator.unitary
    assert hadamard3().unitary
