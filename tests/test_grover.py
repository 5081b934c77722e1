import math

import numpy as np
import pytest

from cavity_grover import (
    ConfigError,
    GateVariant,
    MarkedState,
    SearchRecord,
    closed_form_probability,
    decayed_i000,
    grover_step,
    hadamard3,
    ideal_i000,
    initial_state,
    marked_gate,
    phase_gate_success,
    residual_gate_entry,
    run_search,
)

ALL_TAUS = [format(v, "03b") for v in range(8)]


def test_initial_state_is_uniform():
    state = initial_state()
    assert state.amplitudes[0b101] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert state.squared_norm() == pytest.approx(1.0, abs=1e-15)
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    assert np.abs(state.amplitudes - hadamard3().matrix @ zero).max() <= 1e-15


def test_single_step_amplifies_marked_amplitude(params_lossless):
    # One iteration is minus the inversion-about-average times the flip, so
    # the amplitude reaches sin(3*asin(1/sqrt 8)) = 5/(4*sqrt 2) with an
    # overall sign that alternates per iteration and never affects p_find.
    exact = ideal_i000(params_lossless, exact=True)
    out = grover_step(initial_state(), "000", exact)
    assert out.amplitudes[0] == pytest.approx(-5.0 / (4.0 * math.sqrt(2.0)), abs=1e-14)
    assert abs(out.amplitudes[0]) ** 2 == pytest.approx(25.0 / 32.0, abs=1e-13)


def test_two_steps_match_brute_force_matrix_product(params_lossless):
    # Independent route: build the whole iteration operator as one matrix
    # and apply it twice to the uniform start.
    exact = ideal_i000(params_lossless, exact=True)
    h3 = hadamard3().matrix
    q = h3 @ exact.matrix @ h3 @ marked_gate("000", exact).matrix
    brute = q @ (q @ initial_state().amplitudes)
    p_brute = abs(brute[0]) ** 2
    assert p_brute == pytest.approx(121.0 / 128.0, abs=1e-13)

    state = grover_step(initial_state(), "000", exact)
    state = grover_step(state, "000", exact)
    assert abs(state.amplitudes[0]) ** 2 == pytest.approx(p_brute, abs=1e-14)


def test_decayed_step_contracts_norm(params_strong_decay):
    gate, _ = decayed_i000(params_strong_decay)
    out = grover_step(initial_state(), "000", gate)
    assert out.squared_norm() < 1.0


@pytest.mark.parametrize("variant", list(GateVariant))
@pytest.mark.parametrize("tau", ALL_TAUS)
def test_run_search_records_repeated_public_steps(tau, variant, params_strong_decay):
    # run_search builds its flips once; k public steps, each rebuilding the
    # flip, must give the same records bit for bit.
    gates = {
        GateVariant.EXACT: ideal_i000(params_strong_decay, exact=True),
        GateVariant.LOSSLESS: ideal_i000(params_strong_decay),
        GateVariant.DECAYED: decayed_i000(params_strong_decay)[0],
    }
    records = run_search(tau, 6, variant, params_strong_decay)
    state = ideal = initial_state()
    for record in records:
        state = grover_step(state, tau, gates[variant])
        ideal = grover_step(ideal, tau, gates[GateVariant.EXACT])
        survival = state.squared_norm()
        assert record.survival == survival
        assert record.p_find == abs(state.amplitudes[int(tau, 2)]) ** 2
        assert record.fidelity == abs(np.vdot(ideal.amplitudes, state.amplitudes)) ** 2 / survival


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_exact_search_matches_closed_form(tau, params_lossless):
    records = run_search(tau, 12, GateVariant.EXACT, params_lossless)
    for record in records:
        expected = closed_form_probability(record.iteration)
        assert abs(record.p_find - expected) <= 1e-12


def test_sixth_iteration_peaks_lossless(params_lossless):
    records = run_search("000", 8, GateVariant.EXACT, params_lossless)
    assert records[5].p_find == pytest.approx(0.9998, abs=1e-4)
    assert max(records, key=lambda r: r.p_find).iteration == 6


def test_second_iteration_preferred_under_decay(params_strong_decay):
    records = run_search("000", 8, GateVariant.DECAYED, params_strong_decay)
    best = max(records, key=lambda r: r.p_find)
    assert best.iteration == 2


def test_lossless_gate_barely_perturbs_search(params_lossless):
    records = run_search("000", 2, GateVariant.LOSSLESS, params_lossless)
    assert records[1].p_find == pytest.approx(121.0 / 128.0, abs=1e-3)


def test_decay_ordering(params_lossless, params_weak_decay, params_strong_decay):
    lossless = run_search("000", 8, GateVariant.DECAYED, params_lossless)
    weak = run_search("000", 8, GateVariant.DECAYED, params_weak_decay)
    strong = run_search("000", 8, GateVariant.DECAYED, params_strong_decay)
    for a, b, c in zip(strong, weak, lossless):
        assert a.p_find <= b.p_find + 1e-12
        assert b.p_find <= c.p_find + 1e-12


def test_search_records_well_formed(params_strong_decay):
    records = run_search("011", 8, GateVariant.DECAYED, params_strong_decay)
    for record in records:
        assert 0.0 <= record.p_find <= record.survival + 1e-12
        assert record.survival <= 1.0 + 1e-12
        assert 0.0 <= record.fidelity <= 1.0 + 1e-12


def test_exact_search_has_unit_fidelity(params_lossless):
    records = run_search("110", 6, GateVariant.EXACT, params_lossless)
    for record in records:
        assert record.fidelity == pytest.approx(1.0, abs=1e-12)


def test_search_record_rejects_impossible_probability():
    with pytest.raises(ConfigError):
        SearchRecord(iteration=1, p_find=0.9, survival=0.5, fidelity=1.0)


def test_run_search_validates_inputs(params_lossless):
    with pytest.raises(ConfigError):
        run_search("000", 0, GateVariant.EXACT, params_lossless)
    with pytest.raises(ConfigError):
        run_search("002", 3, GateVariant.EXACT, params_lossless)


def test_marked_state_label():
    assert MarkedState("101").index == 5
    assert str(MarkedState("010")) == "010"
    with pytest.raises(ConfigError):
        MarkedState("10")


# --- phase-gate success probability -----------------------------------


def test_success_probability_uniform_formula(params_strong_decay):
    _, diag = decayed_i000(params_strong_decay)
    uniform_coeffs = np.ones(8, dtype=complex)
    expected = (4.0 + diag.alpha**2 + diag.beta**2 + diag.gamma**2 + diag.mu**2) / 8.0
    assert phase_gate_success(uniform_coeffs, diag) == pytest.approx(expected, abs=1e-15)
    assert phase_gate_success(uniform_coeffs, diag) == pytest.approx(0.9808, abs=2e-4)


def test_success_probability_weak_decay(params_weak_decay):
    _, diag = decayed_i000(params_weak_decay)
    assert phase_gate_success(np.ones(8), diag) == pytest.approx(0.9958, abs=2e-4)


def test_success_probability_lossless(params_lossless):
    _, diag = decayed_i000(params_lossless)
    gamma0 = residual_gate_entry(params_lossless)
    expected = (7.0 + gamma0**2) / 8.0
    value = phase_gate_success(np.ones(8), diag)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.99993, abs=5e-6)


def test_success_probability_weights_follow_slots(params_strong_decay):
    # Slot 0 is damped by mu^2, slot 4 passes untouched.
    _, diag = decayed_i000(params_strong_decay)
    marked_zero = np.zeros(8)
    marked_zero[0] = math.sqrt(8.0)
    assert phase_gate_success(marked_zero, diag) == pytest.approx(diag.mu**2, abs=1e-12)
    dark = np.zeros(8)
    dark[4] = math.sqrt(8.0)
    assert phase_gate_success(dark, diag) == pytest.approx(1.0, abs=1e-12)


def test_success_probability_rejects_bad_normalization(params_strong_decay):
    _, diag = decayed_i000(params_strong_decay)
    with pytest.raises(ConfigError):
        phase_gate_success(np.full(8, 0.5), diag)


# --- closed-form probability --------------------------------------------


def test_closed_form_values():
    assert closed_form_probability(0) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert closed_form_probability(2) == pytest.approx(121.0 / 128.0, abs=1e-14)
    assert closed_form_probability(6) == pytest.approx(0.99979, abs=1e-5)
    with pytest.raises(ConfigError):
        closed_form_probability(-1)
