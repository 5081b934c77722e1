import dataclasses
import math

import numpy as np
import pytest

from cavity_grover import (
    ConfigError,
    EvolutionMethod,
    EvolutionSettings,
    OffsetScenario,
    TimingScenario,
    coupling_offset_infidelity,
    extract_gate,
    gate_time,
    offset_couplings,
    timing_infidelity,
    timing_oracle,
)


def _uniform_input_infidelity(gate_matrix: np.ndarray) -> float:
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)
    reference = u.copy()
    reference[0] = -reference[0]
    out = gate_matrix @ u
    return 1.0 - abs(np.vdot(reference, out)) ** 2 / np.vdot(out, out).real


# --- timing mismatch ------------------------------------------------------


def test_no_delay_no_decay_is_faithful(params_lossless):
    assert timing_infidelity(TimingScenario(0.0, params_lossless)) <= 1e-6


def test_no_delay_decay_baseline(params_strong_decay):
    value = timing_infidelity(TimingScenario(0.0, params_strong_decay))
    assert value == pytest.approx(6.3e-4, abs=1e-4)


def test_delay_infidelity_grows_with_decay(params_weak_decay, params_strong_decay):
    dt = 0.05 * gate_time(params_strong_decay)
    strong = timing_infidelity(TimingScenario(dt, params_strong_decay))
    weak = timing_infidelity(TimingScenario(dt, params_weak_decay))
    assert strong > weak


def test_timing_scenario_validates_window(params_strong_decay):
    with pytest.raises(ConfigError):
        TimingScenario(-1e-9, params_strong_decay)
    with pytest.raises(ConfigError):
        TimingScenario(2.0 * gate_time(params_strong_decay), params_strong_decay)


def test_oracle_self_consistent_at_zero_delay(params_strong_decay):
    # With no delay the oracle is exactly the simulated gate at the gate
    # time, so both infidelity routes must coincide.
    direct = _uniform_input_infidelity(
        extract_gate(params_strong_decay, gate_time(params_strong_decay)).restricted.matrix
    )
    oracle = timing_oracle(TimingScenario(0.0, params_strong_decay))
    assert oracle == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("frac", [0.01, 0.02, 0.031])
def test_formula_tracks_oracle_for_small_delays(frac, params_weak_decay):
    scenario = TimingScenario(frac * gate_time(params_weak_decay), params_weak_decay)
    formula = timing_infidelity(scenario)
    oracle = timing_oracle(scenario)
    assert abs(formula - oracle) <= max(0.2 * abs(oracle), 1e-4)


def test_timing_oracle_honours_settings(params_strong_decay):
    # As for extract_gate: RK4 agrees with the matrix exponential but is not
    # bit-equal to it, so the integrator really ran.
    scenario = TimingScenario(0.05 * gate_time(params_strong_decay), params_strong_decay)
    rk4 = EvolutionSettings(method=EvolutionMethod.FIXED_STEP_INTEGRATOR, step_count=1024)
    gap = abs(timing_oracle(scenario, rk4) - timing_oracle(scenario))
    assert 0.0 < gap <= 1e-10


def test_oracle_monotone_on_coarse_grid(params_strong_decay):
    t0 = gate_time(params_strong_decay)
    values = [
        timing_oracle(TimingScenario(f * t0, params_strong_decay))
        for f in (0.0, 0.02, 0.05, 0.1)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_formula_continuous_at_zero_delay(params_strong_decay):
    t0 = gate_time(params_strong_decay)
    base = timing_infidelity(TimingScenario(0.0, params_strong_decay))
    gaps = [
        abs(timing_infidelity(TimingScenario(t0 * 10.0**-k, params_strong_decay)) - base)
        for k in (3, 4, 5)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-7


def test_timing_infidelity_bounded(params_weak_decay, params_strong_decay):
    for params in (params_weak_decay, params_strong_decay):
        t0 = gate_time(params)
        for frac in np.linspace(0.0, 0.1, 25):
            value = timing_infidelity(TimingScenario(float(frac) * t0, params))
            assert 0.0 <= value <= 1.0


# --- coupling offsets ------------------------------------------------------


def test_offset_couplings_models(params_strong_decay):
    w1, w2, w3 = params_strong_decay.omega
    unchanged = offset_couplings(OffsetScenario(0.0, 1, params_strong_decay))
    assert unchanged == (w1, w2, w3)
    atom1 = offset_couplings(OffsetScenario(0.05, 1, params_strong_decay))
    assert atom1 == (pytest.approx(1.05 * w1), w2, w3)
    uniform = offset_couplings(
        OffsetScenario(0.05, 1, params_strong_decay, model="uniform")
    )
    assert uniform == tuple(pytest.approx(1.05 * w) for w in (w1, w2, w3))
    per_atom = offset_couplings(
        OffsetScenario(
            0.0, 1, params_strong_decay, model="per_atom", per_atom_eta=(0.0, 0.1, -0.1)
        )
    )
    assert per_atom == (w1, pytest.approx(1.1 * w2), pytest.approx(0.9 * w3))


def test_offset_scenario_validation(params_strong_decay):
    with pytest.raises(ConfigError):
        OffsetScenario(0.0, 0, params_strong_decay)
    with pytest.raises(ConfigError):
        OffsetScenario(1.5, 2, params_strong_decay)
    with pytest.raises(ConfigError):
        OffsetScenario(0.0, 2, params_strong_decay, model="bogus")
    with pytest.raises(ConfigError):
        OffsetScenario(0.0, 2, params_strong_decay, model="per_atom")


@pytest.mark.parametrize("chi", [1, 2, 3, 4])
@pytest.mark.parametrize("model", ["atom1", "uniform"])
def test_zero_offset_baseline_independent_of_model_and_chi(
    chi, model, params_strong_decay
):
    value = coupling_offset_infidelity(
        OffsetScenario(0.0, chi, params_strong_decay, model=model)
    )
    assert value == pytest.approx(0.0083, abs=5e-4)


def test_zero_offset_lossless_is_tiny(params_lossless):
    value = coupling_offset_infidelity(OffsetScenario(0.0, 2, params_lossless))
    assert value <= 2e-6


def test_uniform_offset_is_scale_invariant(params_strong_decay):
    # A common factor on all couplings cancels from every ratio, so the
    # closed form cannot depend on eta at all (up to float rounding).
    baseline = coupling_offset_infidelity(
        OffsetScenario(0.0, 3, params_strong_decay, model="uniform")
    )
    for eta in (0.02, 0.05, 0.1, -0.2):
        value = coupling_offset_infidelity(
            OffsetScenario(eta, 3, params_strong_decay, model="uniform")
        )
        assert abs(value - baseline) <= 1e-15


def test_atom1_offset_direction_in_cavity_count(params_strong_decay):
    # Pins the closed form's own direction. Raising only the atom-1
    # coupling (eta > 0) pushes its damped slots toward the heavily damped
    # |000> slot, which the normalized uniform-input fidelity rewards, so
    # the closed form *decreases* as more cavities are imperfect; eta < 0
    # reverses this. The dynamics do not show the falling series: at the
    # design gate time they rise with chi for both signs (see
    # test_design_time_composite_rises_with_cavity_count), because the
    # closed form keeps the design Rabi phases.
    def series(eta):
        return [
            coupling_offset_infidelity(OffsetScenario(eta, chi, params_strong_decay))
            for chi in (1, 2, 3, 4)
        ]

    rising = series(-0.05)
    assert all(b > a for a, b in zip(rising, rising[1:]))
    falling = series(0.05)
    assert all(b < a for a, b in zip(falling, falling[1:]))


@pytest.mark.parametrize("eta", [0.05, -0.05])
def test_design_time_composite_rises_with_cavity_count(eta, params_strong_decay):
    # Full-dynamics evidence for criterion 9c: four simulated gates at the
    # design gate time, chi of them with the atom-1 coupling offset, applied
    # to the uniform input. The offset leaves atom 1's Rabi cycles unclosed,
    # so each imperfect cavity adds error.
    t0 = gate_time(params_strong_decay)
    design = extract_gate(params_strong_decay, t0).restricted.matrix
    offset_params = dataclasses.replace(
        params_strong_decay,
        omega=offset_couplings(OffsetScenario(eta, 1, params_strong_decay)),
    )
    offset = extract_gate(offset_params, t0).restricted.matrix
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)
    values = []
    for chi in (1, 2, 3, 4):
        out = u
        for gate in [offset] * chi + [design] * (4 - chi):
            out = gate @ out
        # Even number of phase gates: the exact reference is u itself.
        values.append(1.0 - abs(np.vdot(u, out)) ** 2 / np.vdot(out, out).real)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_atoms23_offset_rises_with_cavity_count(params_strong_decay):
    # Scaling atoms 2 and 3 together shrinks atom 1's relative coupling;
    # the damped slots move back toward 1 and infidelity grows with the
    # number of imperfect cavities.
    values = [
        coupling_offset_infidelity(
            OffsetScenario(
                0.0,
                chi,
                params_strong_decay,
                model="per_atom",
                per_atom_eta=(0.0, 0.05, 0.05),
            )
        )
        for chi in (1, 2, 3, 4)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_offset_infidelity_bounded(params_strong_decay):
    for chi in (1, 2, 3, 4):
        for eta in np.linspace(0.0, 0.1, 20):
            value = coupling_offset_infidelity(
                OffsetScenario(float(eta), chi, params_strong_decay)
            )
            assert 0.0 <= value <= 1.0
