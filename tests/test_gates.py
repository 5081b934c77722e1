import math
import re

import numpy as np
import pytest

from cavity_grover import (
    TEXTBOOK,
    CavityParams,
    ConfigError,
    decayed_i000,
    extract_gate,
    gate_time,
    hadamard3,
    marked_gate,
    pauli_x,
)
from cavity_grover import gates
from cavity_grover.dynamics import DESIGNED_RATIOS, decay_shifted_frequency
from cavity_grover.gates import exact_columns
from reference import compose, diffusion, gate_operator, is_unitary

ALL_TAUS = [format(v, "03b") for v in range(8)]


# --- Hadamard layer -------------------------------------------------------


def test_hadamard_creates_uniform_superposition():
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    out = hadamard3() @ zero
    assert np.abs(out - 1.0 / (2.0 * math.sqrt(2.0))).max() <= 1e-15


def test_hadamard_is_involutive_and_unitary():
    h3 = hadamard3()
    assert np.abs(compose(h3, h3) - np.eye(8)).max() <= 1e-12
    assert is_unitary(h3)


def test_hadamard_corner_entry():
    assert hadamard3()[0, 0] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)


# --- bit flips -------------------------------------------------------------


def test_bit_flip_moves_states():
    ket = np.zeros(8)
    ket[0b000] = 1.0
    assert (pauli_x(1) @ ket)[0b100] == 1.0
    ket = np.zeros(8)
    ket[0b101] = 1.0
    assert (pauli_x(3) @ ket)[0b100] == 1.0


def test_bit_flip_self_inverse():
    x2 = pauli_x(2)
    assert np.array_equal(compose(x2, x2), np.eye(8))


def test_bit_flip_rejects_bad_index():
    with pytest.raises(ConfigError):
        pauli_x(4)


# --- phase gates -----------------------------------------------------------


def test_residual_entry_value():
    gamma0 = decayed_i000(0.0)[1]
    assert gamma0 == pytest.approx(0.9997, abs=5e-5)
    # substituting the designed ratios reduces the entry to (cos(sqrt(65)*pi) + 64)/65
    assert gamma0 == pytest.approx(
        (math.cos(math.sqrt(65.0) * math.pi) + 64.0) / 65.0, abs=1e-15
    )


def test_ideal_gate_variants():
    exact = gate_operator(TEXTBOOK)
    assert np.array_equal(exact, np.diag([-1.0, 1, 1, 1, 1, 1, 1, 1]))
    assert np.abs(compose(exact, exact) - np.eye(8)).max() == 0.0
    realized = gate_operator(decayed_i000(0.0))
    assert realized[1, 1] == pytest.approx(decayed_i000(0.0)[1])


def test_decayed_gate_reduces_to_lossless(params_lossless):
    diag = decayed_i000(params_lossless.kappa / params_lossless.omega[0])
    lossless = decayed_i000(0.0)
    assert -diag[0] == 1.0 and diag[2] == 1.0 and diag[3] == 1.0
    assert np.abs(gate_operator(diag) - gate_operator(lossless)).max() <= 1e-15


def test_decayed_gate_factors_strong_decay(strong_decay):
    mu, gamma, beta, alpha = decayed_i000(strong_decay) * TEXTBOOK
    assert mu == pytest.approx(0.9244, abs=1e-4)
    assert gamma == pytest.approx(0.9986, abs=1e-4)
    assert beta == pytest.approx(0.9979, abs=1e-4)
    assert alpha == pytest.approx(0.9992, abs=1e-4)


def test_decayed_gate_factor_weak_decay(weak_decay):
    diag = decayed_i000(weak_decay)
    assert -diag[0] == pytest.approx(0.9844, abs=1e-4)


def test_diagonal_factors_monotone_in_decay(omega1c):
    grid = np.linspace(0.0, omega1c / 10.0, 15)
    previous = None
    for kappa in grid:
        # The damping factors (mu, gamma, beta, alpha): slot 0 holds -mu.
        current = tuple(decayed_i000(float(kappa) / omega1c) * TEXTBOOK)
        if previous is not None:
            assert all(c <= p + 1e-15 for c, p in zip(current, previous))
        previous = current


def test_paper_form_is_the_exact_gate_less_two_terms():
    # Column |0 b2 b3⟩ moves through one bright state of coupling W, atom-1
    # share s = w1^2/W^2; its exact entry is (1 - s) + s*P00(W, T), from
    # ``exact_columns``. Putting back the two terms the paper drops, the
    # kappa/(4a)*sin(aT) term and the move of the phase from aT to W*pi/w1,
    # gives the exact entry. And mu keeps every bit of the envelope. In
    # units of w1, as the closed forms take kappa.
    omega1c = 1.0
    w1, w2, w3 = (omega1c * r for r in DESIGNED_RATIOS)
    w1sq, w2sq, w3sq = w1 * w1, w2 * w2, w3 * w3
    bright_sq = np.array([w1sq, w1sq + w3sq, w1sq + w2sq, w1sq + w2sq + w3sq])
    bright, share = np.sqrt(bright_sq), w1sq / bright_sq
    worst = 0.0
    for kappa in np.linspace(0.0, 3.99 * omega1c, 400).tolist():
        params = CavityParams.designed(omega1c, kappa)
        t = gate_time(params)
        envelope = math.exp(-kappa * t / 4.0)
        exact = exact_columns(kappa)[0].real
        a = np.sqrt(bright_sq - kappa * kappa / 16.0)
        sine_term = envelope * kappa / (4.0 * a) * np.sin(a * t)
        phase_term = envelope * (np.cos(a * t) - np.cos(bright * math.pi / w1))
        diag = decayed_i000(kappa)
        restored = diag + share * (sine_term + phase_term)
        worst = max(worst, np.abs(restored - exact).max())
        assert -diag[0] == envelope
    assert worst <= 1e-15


def test_exact_columns_stay_finite_at_the_overdamped_edge():
    # kappa < 4*w1 <= 4*W keeps every block underdamped, also where the
    # envelope underflows and the paper form is damped out.
    columns = exact_columns(3.99999)
    assert columns.shape == (2, 4) and np.isfinite(columns.view(float)).all()


def test_paper_photon_row_is_exactly_dark_on_the_closed_cycles():
    # sin(pi) is 1.2e-16 in floating point, not 0: the paper setting writes
    # the photon amplitude of the closed cycles |000⟩, |010⟩, |011⟩ as 0.0,
    # keeps -i*w1/a13 * sin(sqrt(65)*pi) on |001⟩ without the envelope, and
    # its atom-1 row is decayed_i000's, bit for bit.
    stack = np.linspace(0.0, 3.99, 40)
    atom1, photon = gates._gate_columns(stack, False)
    for kappa, slots, row in zip(stack.tolist(), atom1, photon):
        w1, _, w3 = DESIGNED_RATIOS
        a13 = decay_shifted_frequency(math.sqrt(w1 * w1 + w3 * w3), kappa)
        assert row[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0]
        assert row[1] == -1j * w1 / a13 * math.sin(math.sqrt(65.0) * math.pi)
        assert slots.tobytes() == decayed_i000(kappa).tobytes()


def test_gate_diagonal_validates_range(monkeypatch):
    # decayed_i000 holds the one rule on the damping factors (mu, gamma,
    # beta, alpha): each lies in (0, 1], NaN fails, and the message names the
    # first bad factor in slot order. A real gate reaches only a damped-out
    # mu and NaN, so the checks below set the slots through the closed form's
    # inputs: at kappa = 0 with every share s = 1 (and every bright coupling
    # W = 1, which only the photon row reads), slot i is (1 - 1) + 1*(1*c_i)
    # = 0.0 + c_i for phase cosines c. A slot is never -0.0 then: a zero mu
    # reads -0.0, any other zero factor 0.0.
    with pytest.raises(ConfigError, match=r"^gate diagonal factor mu=-0.0 outside \(0, 1\]$"):
        decayed_i000(3.9999999)
    # The first bad row of a coupling array, after a good one.
    couplings = (np.array([1.0, math.nan]), math.sqrt(35.0), 8.0)
    with pytest.raises(ConfigError, match=r"^gate diagonal factor gamma=nan outside"):
        decayed_i000(0.0, couplings)
    # Float, np.float64 and array shares (the last one row per coupling
    # value): one rule and one message in every form, on each factor.
    forms = ((float, None), (np.float64, None), (lambda one: np.full(2, one), (np.ones(2),) * 3))
    above_one = float(np.nextafter(1.0, 2.0))

    def slots(cos, form, couplings):
        monkeypatch.setattr(gates, "_bright_columns", lambda *w: ((1.0,) * 4, (form(1.0),) * 4))
        monkeypatch.setattr(gates, "_DESIGN_COS", np.array(cos))
        return decayed_i000(0.0, couplings)

    for slot, name in enumerate(("mu", "gamma", "beta", "alpha")):
        sign = TEXTBOOK[slot]
        for form, couplings in forms:
            for value in (math.nan, 0.0, -0.0, -0.25, above_one):
                cos = TEXTBOOK.copy()
                cos[slot] = sign * value
                with pytest.raises(ConfigError) as caught:
                    slots(cos, form, couplings)
                shown = sign * (0.0 + sign * value)
                assert str(caught.value) == f"gate diagonal factor {name}={shown} outside (0, 1]"
            for value in (1.0, 5e-324):
                cos = TEXTBOOK.copy()
                cos[slot] = sign * value
                got = slots(cos, form, couplings)
                assert (got * TEXTBOOK)[..., slot].tolist() == np.full(got.shape[:-1], value).tolist()
    # Two bad factors: the first in slot order is named, also when a later
    # factor goes bad in an earlier row.
    with pytest.raises(ConfigError, match=r"^gate diagonal factor beta=nan outside"):
        slots([-1.0, 1.0, math.nan, 2.0], float, None)
    shares = (1.0, np.array([1.0, math.nan]), 1.0, np.array([math.nan, 1.0]))
    monkeypatch.setattr(gates, "_bright_columns", lambda *w: ((1.0,) * 4, shares))
    monkeypatch.setattr(gates, "_DESIGN_COS", TEXTBOOK)
    with pytest.raises(ConfigError, match=r"^gate diagonal factor gamma=nan outside"):
        decayed_i000(0.0, (np.ones(2),) * 3)


# --- marked-state conjugation ----------------------------------------------


def test_marked_gate_identity_on_000(params_lossless):
    base = gate_operator(TEXTBOOK)
    assert np.array_equal(marked_gate("000", base), base)


def test_marked_gate_exact_reflection(params_lossless):
    base = gate_operator(TEXTBOOK)
    gate = marked_gate("101", base)
    expected = np.eye(8)
    expected[0b101, 0b101] = -1.0
    assert np.abs(gate - expected).max() <= 1e-15


def test_marked_gate_permutes_damped_diagonal(strong_decay):
    diag = decayed_i000(strong_decay)
    mu, gamma, beta, alpha = diag * TEXTBOOK
    operator = gate_operator(diag)
    gate = marked_gate("001", operator)
    entries = np.diag(gate).real
    # flipping bit 3 swaps slot pairs (0,1), (2,3), (4,5), (6,7)
    assert entries[0b001] == pytest.approx(-mu, rel=1e-15)
    assert entries[0b000] == pytest.approx(gamma, rel=1e-15)
    assert entries[0b010] == pytest.approx(alpha, rel=1e-15)
    assert entries[0b011] == pytest.approx(beta, rel=1e-15)


def test_marked_gate_rejects_bad_label(params_lossless):
    base = gate_operator(TEXTBOOK)
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
    base = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    expected = base
    for qubit, bit in enumerate(tau, start=1):
        if bit == "1":
            expected = compose(pauli_x(qubit), expected, pauli_x(qubit))
    assert np.array_equal(marked_gate(tau, base), expected)


# --- diffusion -------------------------------------------------------------


def test_diffusion_entries():
    d = diffusion()
    assert np.all(np.diag(d) == -0.75)
    off = d - np.diag(np.diag(d))
    assert np.all(off[~np.eye(8, dtype=bool)] == 0.25)


def test_diffusion_unitary_and_symmetric():
    d = diffusion()
    assert is_unitary(d)
    assert np.array_equal(d, d.T)


def test_diffusion_from_gate_sandwich(params_lossless):
    h3 = hadamard3()
    exact = gate_operator(TEXTBOOK)
    built = -compose(h3, exact, h3)
    assert np.abs(built - diffusion()).max() <= 1e-12


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_iteration_equals_diffusion_form(tau, params_lossless):
    # H3 * I000 * H3 * I_tau == -D * I_tau for every marked state.
    h3 = hadamard3()
    exact = gate_operator(TEXTBOOK)
    flip = marked_gate(tau, exact)
    lhs = compose(h3, exact, h3, flip)
    rhs = -compose(diffusion(), flip)
    assert np.abs(lhs - rhs).max() <= 1e-12


# --- closed forms vs dynamics ------------------------------------------


def test_closed_form_matches_dynamics_under_decay(params_strong_decay, strong_decay):
    operator = gate_operator(decayed_i000(strong_decay))
    (gate,), _ = extract_gate([params_strong_decay], [gate_time(params_strong_decay)])
    simulated = gate.diagonal()
    assert np.abs(simulated - operator.diagonal()).max() <= 1e-3


def test_closed_form_matches_dynamics_lossless(params_lossless):
    operator = gate_operator(decayed_i000(params_lossless.kappa / params_lossless.omega[0]))
    (gate,), _ = extract_gate([params_lossless], [gate_time(params_lossless)])
    simulated = gate.diagonal()
    errors = np.abs(simulated - operator.diagonal())
    assert errors[[0, 2, 3]].max() <= 1e-6
    assert errors[4:].max() <= 1e-9


def test_slot_ordering_locked_to_coupling_pairs(omega1c):
    # With undesigned couplings (w, 2w, 3w) the |001> slot must follow the
    # atoms-1+3 closed form and the |010> slot the atoms-1+2 closed form;
    # this pins which slot involves which coupling.
    params = CavityParams(omega=(omega1c, 2.0 * omega1c, 3.0 * omega1c))
    (gate,), _ = extract_gate([params], [math.pi / omega1c])
    diag = gate.diagonal()
    pair13 = (9.0 + math.cos(math.sqrt(10.0) * math.pi)) / 10.0
    pair12 = (4.0 + math.cos(math.sqrt(5.0) * math.pi)) / 5.0
    assert diag[1].real == pytest.approx(pair13, abs=1e-9)
    assert diag[2].real == pytest.approx(pair12, abs=1e-9)


# --- operator checks -------------------------------------------------------


def test_logical_operator_validates_shape():
    with pytest.raises(ConfigError):
        marked_gate("000", np.eye(4))


@pytest.mark.parametrize("shape", [(8, 8, 8), (3, 8, 8)])
def test_marked_gate_rejects_a_stack_of_bases(shape):
    # The base is one 8x8 gate: a stack has no one permutation to take, and
    # the error names its shape.
    with pytest.raises(ConfigError, match=re.escape(f"got shape {shape}")):
        marked_gate("001", np.ones(shape))


def test_logical_operator_unitary_flag(strong_decay):
    operator = gate_operator(decayed_i000(strong_decay))
    assert not is_unitary(operator)
    assert is_unitary(hadamard3())
