import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_grover import (
    TEXTBOOK,
    CavityParams,
    ConfigError,
    GateDiagonal,
    MarkedState,
    NumericalError,
    SearchGrid,
    closed_form_probability,
    decayed_i000,
    grover_step,
    hadamard3,
    initial_state,
    marked_gate,
    phase_gate_success,
    residual_gate_entry,
    run_search,
)

ALL_TAUS = [format(v, "03b") for v in range(8)]


# The three |000⟩ gates these tests drive the search with: gates.TEXTBOOK,
# the decayed gate at kappa = 0, and the decayed gate.
VARIANTS = ("exact", "lossless", "decayed")


def _diagonal(variant: str, params: CavityParams) -> GateDiagonal:
    if variant == "exact":
        return TEXTBOOK
    return decayed_i000(replace(params, kappa=0.0) if variant == "lossless" else params)


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
    exact = TEXTBOOK.operator()
    out = grover_step(initial_state(), "000", exact)
    assert out.amplitudes[0] == pytest.approx(-5.0 / (4.0 * math.sqrt(2.0)), abs=1e-14)
    assert abs(out.amplitudes[0]) ** 2 == pytest.approx(25.0 / 32.0, abs=1e-13)


def test_two_steps_match_brute_force_matrix_product(params_lossless):
    # Independent route: build the whole iteration operator as one matrix
    # and apply it twice to the uniform start.
    exact = TEXTBOOK.operator()
    h3 = hadamard3().matrix
    q = h3 @ exact.matrix @ h3 @ marked_gate("000", exact).matrix
    brute = q @ (q @ initial_state().amplitudes)
    p_brute = abs(brute[0]) ** 2
    assert p_brute == pytest.approx(121.0 / 128.0, abs=1e-13)

    state = grover_step(initial_state(), "000", exact)
    state = grover_step(state, "000", exact)
    assert abs(state.amplitudes[0]) ** 2 == pytest.approx(p_brute, abs=1e-14)


def test_decayed_step_contracts_norm(params_strong_decay):
    gate = decayed_i000(params_strong_decay).operator()
    out = grover_step(initial_state(), "000", gate)
    assert out.squared_norm() < 1.0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tau", ALL_TAUS)
def test_run_search_records_repeated_public_steps(tau, variant, params_strong_decay):
    # run_search builds its flips once; k public steps, each rebuilding the
    # flip, must give the same outcomes bit for bit.
    gate = _diagonal(variant, params_strong_decay).operator()
    grid = run_search(tau, 6, [_diagonal(variant, params_strong_decay)])
    state = ideal = initial_state()
    for k in range(6):
        state = grover_step(state, tau, gate)
        ideal = grover_step(ideal, tau, TEXTBOOK.operator())
        survival = state.squared_norm()
        assert grid.survival[0, k] == survival
        assert grid.p_find[0, k] == abs(state.amplitudes[int(tau, 2)]) ** 2
        assert grid.fidelity[0, k] == abs(np.vdot(ideal.amplitudes, state.amplitudes)) ** 2 / survival


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_exact_search_matches_closed_form(tau, params_lossless):
    p_find = run_search(tau, 12, [TEXTBOOK]).p_find[0]
    for k, p in enumerate(p_find, start=1):
        expected = closed_form_probability(k)
        assert abs(p - expected) <= 1e-12


def test_sixth_iteration_peaks_lossless(params_lossless):
    p_find = run_search("000", 8, [TEXTBOOK]).p_find[0]
    assert p_find[5] == pytest.approx(0.9998, abs=1e-4)
    assert p_find.argmax() + 1 == 6


def test_second_iteration_preferred_under_decay(params_strong_decay):
    p_find = run_search("000", 8, [decayed_i000(params_strong_decay)]).p_find[0]
    assert p_find.argmax() + 1 == 2


def test_lossless_gate_barely_perturbs_search(params_lossless):
    p_find = run_search("000", 2, [decayed_i000(params_lossless)]).p_find[0]
    assert p_find[1] == pytest.approx(121.0 / 128.0, abs=1e-3)


def test_decay_ordering(params_lossless, params_weak_decay, params_strong_decay):
    params = (params_strong_decay, params_weak_decay, params_lossless)
    strong, weak, lossless = run_search("000", 8, [decayed_i000(p) for p in params]).p_find
    for a, b, c in zip(strong, weak, lossless):
        assert a <= b + 1e-12
        assert b <= c + 1e-12


def test_search_records_well_formed(params_strong_decay):
    grid = run_search("011", 8, [decayed_i000(params_strong_decay)])
    for p_find, survival, fidelity in zip(grid.p_find[0], grid.survival[0], grid.fidelity[0]):
        assert 0.0 <= p_find <= survival + 1e-12
        assert survival <= 1.0 + 1e-12
        assert 0.0 <= fidelity <= 1.0 + 1e-12


def test_exact_search_has_unit_fidelity(params_lossless):
    for fidelity in run_search("110", 6, [TEXTBOOK]).fidelity[0]:
        assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_search_record_rejects_impossible_probability():
    # A bad outcome is a numerical fault (exit 2), not a bad config (exit 1).
    with pytest.raises(NumericalError):
        SearchGrid(np.array([[0.9]]), np.array([[0.5]]), np.array([[1.0]]))


@pytest.mark.parametrize(
    "p_find, survival, fidelity, match",
    [
        ([[0.2, 0.9]], [[0.5, 0.5]], [[1.0, 1.0]], "p_find=0.9 exceeds survival=0.5"),
        ([[0.2, 0.3]], [[0.5, 0.5]], [[1.0, math.nan]], r"non-finite fields: \(0.3, 0.5, nan\)"),
    ],
)
def test_search_grid_applies_the_record_rule(p_find, survival, fidelity, match):
    # The arrays obey the one rule on search outcomes, and the message names
    # the first offending point, also when it is the only point.
    with pytest.raises(NumericalError, match=match):
        SearchGrid(np.array(p_find), np.array(survival), np.array(fidelity))
    with pytest.raises(NumericalError, match=match):
        SearchGrid(*(np.array([[row[0][1]]]) for row in (p_find, survival, fidelity)))


def test_run_search_validates_inputs(params_lossless):
    with pytest.raises(ConfigError):
        run_search("000", 0, [TEXTBOOK])
    with pytest.raises(ConfigError):
        run_search("002", 3, [TEXTBOOK])


def test_marked_state_label():
    assert MarkedState("101").index == 5
    assert str(MarkedState("010")) == "010"
    with pytest.raises(ConfigError):
        MarkedState("10")


# --- phase-gate success probability -----------------------------------


def test_success_probability_uniform_formula(params_strong_decay):
    diag = decayed_i000(params_strong_decay)
    uniform_coeffs = np.ones(8, dtype=complex)
    expected = (4.0 + diag.alpha**2 + diag.beta**2 + diag.gamma**2 + diag.mu**2) / 8.0
    assert phase_gate_success(uniform_coeffs, diag) == pytest.approx(expected, abs=1e-15)
    assert phase_gate_success(uniform_coeffs, diag) == pytest.approx(0.9808, abs=2e-4)


def test_success_probability_weak_decay(params_weak_decay):
    diag = decayed_i000(params_weak_decay)
    assert phase_gate_success(np.ones(8), diag) == pytest.approx(0.9958, abs=2e-4)


def test_success_probability_lossless(params_lossless):
    diag = decayed_i000(params_lossless)
    gamma0 = residual_gate_entry(params_lossless)
    expected = (7.0 + gamma0**2) / 8.0
    value = phase_gate_success(np.ones(8), diag)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.99993, abs=5e-6)


def test_success_probability_weights_follow_slots(params_strong_decay):
    # Slot 0 is damped by mu^2, slot 4 passes untouched.
    diag = decayed_i000(params_strong_decay)
    marked_zero = np.zeros(8)
    marked_zero[0] = math.sqrt(8.0)
    assert phase_gate_success(marked_zero, diag) == pytest.approx(diag.mu**2, abs=1e-12)
    dark = np.zeros(8)
    dark[4] = math.sqrt(8.0)
    assert phase_gate_success(dark, diag) == pytest.approx(1.0, abs=1e-12)


def test_success_probability_rejects_bad_normalization(params_strong_decay):
    diag = decayed_i000(params_strong_decay)
    with pytest.raises(ConfigError):
        phase_gate_success(np.full(8, 0.5), diag)


# --- closed-form probability --------------------------------------------


def test_closed_form_values():
    assert closed_form_probability(0) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert closed_form_probability(2) == pytest.approx(121.0 / 128.0, abs=1e-14)
    assert closed_form_probability(6) == pytest.approx(0.99979, abs=1e-5)
    with pytest.raises(ConfigError):
        closed_form_probability(-1)


# --- run_search over many gate diagonals at once ------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    ratios=st.lists(
        st.floats(0.0, 3.9, exclude_max=True), min_size=1, max_size=6, unique=True
    ).map(sorted),
    tau=st.sampled_from(ALL_TAUS),
    variant=st.sampled_from(VARIANTS),
    k_max=st.integers(1, 12),
)
def test_run_search_rows_equals_per_rate_runs(ratios, tau, variant, k_max, omega1c):
    # The stacked (K, 8, 1) iteration must give each diagonal the row of its
    # own one-diagonal run, bit for bit (== on every float).
    diagonals = [_diagonal(variant, CavityParams.designed(omega1c, r * omega1c)) for r in ratios]
    grid = run_search(tau, k_max, diagonals)
    for i, diagonal in enumerate(diagonals):
        alone = run_search(tau, k_max, [diagonal])
        for field in ("p_find", "survival", "fidelity"):
            assert getattr(grid, field)[i].tolist() == getattr(alone, field)[0].tolist()


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_search_rows_builds_no_dense_gate(variant, params_strong_decay, monkeypatch):
    # The stack reads each gate's eight entries; no 8x8 operator is built.
    def dense(self):
        raise AssertionError("dense gate operator built")

    monkeypatch.setattr(GateDiagonal, "operator", dense)
    diagonal = _diagonal(variant, params_strong_decay)
    grid = run_search("101", 3, [diagonal, diagonal])
    assert grid.p_find.shape == grid.survival.shape == grid.fidelity.shape == (2, 3)


def test_run_search_rows_validates_inputs(params_lossless):
    with pytest.raises(ConfigError, match="k_max"):
        run_search("000", 0, [decayed_i000(params_lossless)])
    with pytest.raises(ConfigError, match="at least one"):
        run_search("000", 3, [])
