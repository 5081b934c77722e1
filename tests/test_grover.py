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
    ExperimentConfig,
    NumericalError,
    SearchGrid,
    decayed_i000,
    grover_step,
    hadamard3,
    marked_gate,
    residual_gate_entry,
    run_search,
)
from cavity_grover import grover
from cavity_grover.gates import exact_columns, marked_index
from reference import (
    closed_form_probability,
    gate_operator,
    initial_state,
    phase_gate_success,
    squared_norm,
)

ALL_TAUS = [format(v, "03b") for v in range(8)]


# The three |000⟩ gates these tests drive the search with: gates.TEXTBOOK,
# the decayed gate at kappa = 0, and the decayed gate.
VARIANTS = ("exact", "lossless", "decayed")


def _diagonal(variant: str, params: CavityParams) -> np.ndarray:
    if variant == "exact":
        return TEXTBOOK
    return decayed_i000(replace(params, kappa=0.0) if variant == "lossless" else params)


def _steps(tau: str, gate: np.ndarray, k_max: int) -> list[np.ndarray]:
    """The register after each of ``k_max`` public steps marking ``tau``."""
    state, registers = initial_state(), []
    for _ in range(k_max):
        state = grover_step(state, tau, gate)
        registers.append(state)
    return registers


def test_initial_state_is_uniform():
    state = initial_state()
    assert state[0b101] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert squared_norm(state) == pytest.approx(1.0, abs=1e-15)
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    assert np.abs(state - hadamard3() @ zero).max() <= 1e-15


def test_single_step_amplifies_marked_amplitude(params_lossless):
    # One iteration is minus the inversion-about-average times the flip, so
    # the amplitude reaches sin(3*asin(1/sqrt 8)) = 5/(4*sqrt 2) with an
    # overall sign that alternates per iteration and never affects p_find.
    exact = gate_operator(TEXTBOOK)
    out = grover_step(initial_state(), "000", exact)
    assert out[0] == pytest.approx(-5.0 / (4.0 * math.sqrt(2.0)), abs=1e-14)
    assert abs(out[0]) ** 2 == pytest.approx(25.0 / 32.0, abs=1e-13)


def test_two_steps_match_brute_force_matrix_product(params_lossless):
    # Independent route: build the whole iteration operator as one matrix
    # and apply it twice to the uniform start.
    exact = gate_operator(TEXTBOOK)
    h3 = hadamard3()
    q = h3 @ exact @ h3 @ marked_gate("000", exact)
    brute = q @ (q @ initial_state())
    p_brute = abs(brute[0]) ** 2
    assert p_brute == pytest.approx(121.0 / 128.0, abs=1e-13)

    state = grover_step(initial_state(), "000", exact)
    state = grover_step(state, "000", exact)
    assert abs(state[0]) ** 2 == pytest.approx(p_brute, abs=1e-14)


def test_decayed_step_contracts_norm(params_strong_decay):
    gate = gate_operator(decayed_i000(params_strong_decay))
    out = grover_step(initial_state(), "000", gate)
    assert squared_norm(out) < 1.0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tau", ALL_TAUS)
def test_run_search_records_repeated_public_steps(tau, variant, params_strong_decay):
    # run_search advances the |000⟩ register alone; k public steps for any
    # marked state, each building its flip, give the same outcomes to rounding.
    slots = _diagonal(variant, params_strong_decay)
    grid = run_search(6, [slots])
    steps = zip(_steps(tau, gate_operator(slots), 6), _steps(tau, gate_operator(TEXTBOOK), 6))
    for k, (state, ideal) in enumerate(steps):
        survival = np.vdot(state, state).real
        fidelity = abs(np.vdot(ideal, state)) ** 2 / survival
        assert abs(grid.survival[0, k] - survival) <= 1e-13
        assert abs(grid.p_find[0, k] - abs(state[int(tau, 2)]) ** 2) <= 1e-13
        assert abs(grid.fidelity[0, k] - fidelity) <= 1e-13


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_exact_search_matches_closed_form(tau, params_lossless):
    state, gate = initial_state(), gate_operator(TEXTBOOK)
    p_find = run_search(12, [TEXTBOOK]).p_find[0]
    for k, p in enumerate(p_find, start=1):
        state = grover_step(state, tau, gate)
        expected = closed_form_probability(k)
        assert abs(abs(state[int(tau, 2)]) ** 2 - expected) <= 1e-12
        assert abs(p - expected) <= 1e-12


def test_sixth_iteration_peaks_lossless(params_lossless):
    p_find = run_search(8, [TEXTBOOK]).p_find[0]
    assert p_find[5] == pytest.approx(0.9998, abs=1e-4)
    assert p_find.argmax() + 1 == 6


def test_second_iteration_preferred_under_decay(params_strong_decay):
    p_find = run_search(8, [decayed_i000(params_strong_decay)]).p_find[0]
    assert p_find.argmax() + 1 == 2


def test_lossless_gate_barely_perturbs_search(params_lossless):
    p_find = run_search(2, [decayed_i000(params_lossless)]).p_find[0]
    assert p_find[1] == pytest.approx(121.0 / 128.0, abs=1e-3)


def test_decay_ordering(params_lossless, params_weak_decay, params_strong_decay):
    params = (params_strong_decay, params_weak_decay, params_lossless)
    strong, weak, lossless = run_search(8, [decayed_i000(p) for p in params]).p_find
    for a, b, c in zip(strong, weak, lossless):
        assert a <= b + 1e-12
        assert b <= c + 1e-12


def test_search_records_well_formed(params_strong_decay):
    grid = run_search(8, [decayed_i000(params_strong_decay)])
    for p_find, survival, fidelity in zip(grid.p_find[0], grid.survival[0], grid.fidelity[0]):
        assert 0.0 <= p_find <= survival + 1e-12
        assert survival <= 1.0 + 1e-12
        assert 0.0 <= fidelity <= 1.0 + 1e-12


def test_exact_search_has_unit_fidelity(params_lossless):
    for fidelity in run_search(6, [TEXTBOOK]).fidelity[0]:
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
    with pytest.raises(NumericalError, match=match) as raised:
        SearchGrid(np.array(p_find), np.array(survival), np.array(fidelity))
    assert raised.value.row == 0
    with pytest.raises(NumericalError, match=match):
        SearchGrid(*(np.array([[row[0][1]]]) for row in (p_find, survival, fidelity)))
    # A (3, 2) grid names the gate row of the first bad point, first, middle
    # or last, also when the last row breaks the rule too; a 1-D record has no row.
    bad = [np.array(field[0]) for field in (p_find, survival, fidelity)]
    for row in range(3):
        grid = [np.stack([good] * 3) for good in ([0.1, 0.1], [0.5, 0.5], [1.0, 1.0])]
        for field, record in zip(grid, bad):
            field[[row, 2]] = record
        with pytest.raises(NumericalError, match=match) as raised:
            SearchGrid(*grid)
        assert raised.value.row == row
    with pytest.raises(NumericalError, match=match) as raised:
        SearchGrid(*bad)
    assert raised.value.row is None


def test_run_search_validates_inputs(params_lossless):
    with pytest.raises(ConfigError):
        run_search(0, [TEXTBOOK])


def test_marked_state_label(params_strong_decay):
    assert marked_index("101") == 5
    for bad in ("002", "10", 5):
        with pytest.raises(ConfigError):
            marked_index(bad)
    # marked_gate permutes i -> i ^ tau.
    gate = gate_operator(decayed_i000(params_strong_decay))
    flipped = marked_gate("101", gate)
    perm = np.arange(8) ^ 5
    assert np.array_equal(flipped, gate[np.ix_(perm, perm)])


# --- phase-gate success probability -----------------------------------


def test_success_probability_uniform_formula(params_strong_decay):
    diag = decayed_i000(params_strong_decay)
    mu, gamma, beta, alpha = diag * TEXTBOOK
    uniform_coeffs = np.ones(8, dtype=complex)
    expected = (4.0 + alpha**2 + beta**2 + gamma**2 + mu**2) / 8.0
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
    assert phase_gate_success(marked_zero, diag) == pytest.approx(diag[0] ** 2, abs=1e-12)
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
    variant=st.sampled_from(VARIANTS),
    k_max=st.integers(1, 12),
)
def test_run_search_rows_equals_per_rate_runs(ratios, variant, k_max, omega1c):
    # The stacked (K, 8, 1) iteration must give each diagonal the row of its
    # own one-diagonal run, bit for bit (== on every float).
    diagonals = [_diagonal(variant, CavityParams.designed(omega1c, r * omega1c)) for r in ratios]
    grid = run_search(k_max, diagonals)
    for i, diagonal in enumerate(diagonals):
        alone = run_search(k_max, [diagonal])
        for field in ("p_find", "survival", "fidelity"):
            assert getattr(grid, field)[i].tolist() == getattr(alone, field)[0].tolist()


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_search_rows_builds_no_dense_gate(variant, params_strong_decay, monkeypatch):
    # The stack reads each gate's eight entries; no per-state 8x8 gate is
    # built, and marked_gate is the one builder of one.
    def dense(*args):
        raise AssertionError("dense gate operator built")

    monkeypatch.setattr(grover, "marked_gate", dense)
    diagonal = _diagonal(variant, params_strong_decay)
    grid = run_search(3, [diagonal, diagonal])
    assert grid.p_find.shape == grid.survival.shape == grid.fidelity.shape == (2, 3)


def test_run_search_rows_validates_inputs(params_lossless):
    with pytest.raises(ConfigError, match="k_max"):
        run_search(0, [decayed_i000(params_lossless)])
    with pytest.raises(ConfigError, match="at least one"):
        run_search(3, [])


# --- the exact gate's slots -----------------------------------------------


@pytest.mark.parametrize("tau", ALL_TAUS)
def test_run_search_on_exact_columns_equals_the_paper_form_at_kappa_0(tau):
    # The complex atom-1 rows of exact_columns are a (K, 4) slot array that
    # run_search takes unchanged. At kappa = 0 both forms give the same
    # slots, and the searches agree bit for bit, as do the per-state steps
    # for every marked state.
    params = CavityParams.designed(1.0, 0.0)
    exact = exact_columns([params])[:, 0]
    assert exact.dtype == complex and exact.shape == (1, 4)
    grid, paper = run_search(12, exact), run_search(12, [decayed_i000(params)])
    for field in ("p_find", "survival", "fidelity"):
        assert getattr(grid, field).tobytes() == getattr(paper, field).tobytes()
    steps = _steps(tau, gate_operator(exact[0]), 12)
    for state, alone in zip(steps, _steps(tau, gate_operator(decayed_i000(params)), 12)):
        assert state.tobytes() == alone.tobytes()


@pytest.mark.parametrize("kappa_ratio", [0.1, 0.5, 2.0, 3.9])
def test_run_search_on_exact_columns_stays_a_no_jump_branch(kappa_ratio):
    # Under decay the exact slots drive a proper no-jump branch. Their p_find
    # differs from the paper form's (8 iterations) by at most 1.0e-5 at
    # kappa = 0.1 w1 and 1.8e-4 at 0.5 w1.
    params = CavityParams.designed(1.0, kappa_ratio)
    grid = run_search(8, exact_columns([params])[:, 0])
    assert (grid.p_find <= grid.survival + 1e-12).all()
    assert (grid.survival + 1e-12 <= 1.0 + 1e-12).all()
    paper = run_search(8, [decayed_i000(params)])
    gap = np.abs(grid.p_find - paper.p_find).max()
    assert gap <= {0.1: 1.1e-5, 0.5: 1.9e-4}.get(kappa_ratio, 1.0)


_SWEEP_PARAMS = [CavityParams.designed(1.0, 0.02 * i) for i in range(25)]  # kappa/w1 in [0, 0.48]


@pytest.mark.parametrize(
    "slots",
    [np.array([decayed_i000(p) for p in _SWEEP_PARAMS]), exact_columns(_SWEEP_PARAMS)[:, 0]],
    ids=["paper", "exact"],
)
def test_marked_state_only_relabels_the_search(slots):
    # The marked flip is X^tau D X^tau, and X^tau commutes with H D H and
    # leaves the uniform register unchanged: for any diagonal D the register
    # for tau is X^tau times the one for 000, so no recorded value depends on
    # tau, and run_search, which advances the 000 register alone, records
    # every tau's values.
    grid = run_search(32, slots)
    ideals = {tau: _steps(tau, gate_operator(TEXTBOOK), 32) for tau in ALL_TAUS}
    for row, gate in enumerate(map(gate_operator, slots)):
        base = _steps("000", gate, 32)
        for tau in ALL_TAUS:
            perm = np.arange(8) ^ int(tau, 2)
            for k, (state, ideal) in enumerate(zip(_steps(tau, gate, 32), ideals[tau])):
                assert np.abs(state - base[k][perm]).max() <= 1e-13
                survival = np.vdot(state, state).real
                fidelity = abs(np.vdot(ideal, state)) ** 2 / survival
                assert abs(grid.p_find[row, k] - abs(state[int(tau, 2)]) ** 2) <= 1e-13
                assert abs(grid.survival[row, k] - survival) <= 1e-13
                assert abs(grid.fidelity[row, k] - fidelity) <= 1e-13


@pytest.mark.parametrize("slots", [np.ones((2, 3)), np.ones(4), np.empty((0, 4)), []])
def test_run_search_rejects_malformed_slot_arrays(slots):
    with pytest.raises(ConfigError, match=r"^run_search needs \(K, 4\) slots, at least one row, got \("):
        run_search(3, slots)


def test_gate_slot_arrays_are_read_only(params_strong_decay):
    config = ExperimentConfig()
    arrays = (TEXTBOOK, decayed_i000(params_strong_decay), config._kappa_gates, config._offset_gate)
    assert config._kappa_gates.shape == (3, 4) and config._offset_gate.shape == (4,)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0.5
    assert TEXTBOOK.tolist() == [-1.0, 1.0, 1.0, 1.0]
