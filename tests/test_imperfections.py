import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_grover import (
    CavityParams,
    ConfigError,
    ExperimentConfig,
    OffsetScenario,
    TimingScenario,
    coupling_offset_infidelity,
    extract_gate,
    gate_time,
    offset_couplings,
    run_experiment,
    timing_infidelity,
    timing_oracle,
    timing_oracle_dense,
)
from cavity_grover import dynamics, imperfections
from cavity_grover.dynamics import DESIGNED_RATIOS
from cavity_grover.gates import decayed_i000


def _fidelity(reference: np.ndarray, output: np.ndarray) -> float:
    """|<reference|output>|^2 / <output|output> for an unnormalized output
    state and a normalized reference: the per-state reference form."""
    return float(abs(np.vdot(reference, output)) ** 2 / np.vdot(output, output).real)


def _uniform_input_infidelity(gate_matrix: np.ndarray) -> float:
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)
    reference = u.copy()
    reference[0] = -reference[0]
    out = gate_matrix @ u
    return 1.0 - abs(np.vdot(reference, out)) ** 2 / np.vdot(out, out).real


# --- timing mismatch ------------------------------------------------------


def test_no_delay_no_decay_is_faithful(params_lossless):
    assert timing_infidelity([params_lossless], [[0.0]])[0, 0] <= 1e-6


def test_no_delay_decay_baseline(params_strong_decay):
    value = timing_infidelity([params_strong_decay], [[0.0]])[0, 0]
    assert value == pytest.approx(6.3e-4, abs=1e-4)


def test_delay_infidelity_grows_with_decay(params_weak_decay, params_strong_decay):
    dt = 0.05 * gate_time(params_strong_decay)
    strong = timing_infidelity([params_strong_decay], [[dt]])[0, 0]
    weak = timing_infidelity([params_weak_decay], [[dt]])[0, 0]
    assert strong > weak


def test_timing_scenario_validates_window(params_strong_decay):
    with pytest.raises(ConfigError):
        TimingScenario(-1e-9, params_strong_decay)
    with pytest.raises(ConfigError):
        TimingScenario(2.0 * gate_time(params_strong_decay), params_strong_decay)
    # An array of delays is checked with one gate time; the first bad one is named.
    t0 = gate_time(params_strong_decay)
    with pytest.raises(ConfigError, match=r"^delta_t=-1e-09 outside"):
        TimingScenario(np.array([0.5 * t0, -1e-9, math.nan, 2.0 * t0]), params_strong_decay)
    with pytest.raises(ConfigError, match=r"^delta_t=nan outside"):
        TimingScenario(np.array([0.0, t0, math.nan]), params_strong_decay)


def test_oracle_self_consistent_at_zero_delay(params_strong_decay):
    # With no delay the oracle is exactly the simulated gate at the gate
    # time, so both infidelity routes must coincide.
    direct = _uniform_input_infidelity(
        extract_gate([params_strong_decay], [gate_time(params_strong_decay)]).restricted.matrix[0]
    )
    oracle = timing_oracle_dense(TimingScenario(0.0, params_strong_decay))
    assert oracle == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("frac", [0.01, 0.02, 0.031])
def test_formula_tracks_oracle_for_small_delays(frac, params_weak_decay):
    scenario = TimingScenario(frac * gate_time(params_weak_decay), params_weak_decay)
    formula = timing_infidelity([scenario.params], [[scenario.delta_t]])[0, 0]
    oracle = timing_oracle_dense(scenario)
    assert abs(formula - oracle) <= max(0.2 * abs(oracle), 1e-4)


def test_timing_oracle_honours_settings(params_strong_decay):
    # As for extract_gate: RK4 agrees with the matrix exponential but is not
    # bit-equal to it, so the integrator really ran.
    scenario = TimingScenario(0.05 * gate_time(params_strong_decay), params_strong_decay)
    gap = abs(timing_oracle_dense(scenario, rk4_steps=1024) - timing_oracle_dense(scenario))
    assert 0.0 < gap <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    # The designed couplings, or any triple: then the Rabi cycles do not close
    # and the gate is far from the phase flip, but the grid must still follow
    # the dense path.
    ratios=st.one_of(st.just(DESIGNED_RATIOS), st.tuples(*[st.floats(0.05, 12.0)] * 3)),
    kappa_ratio=st.floats(0.0, 3.99, exclude_max=True),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_timing_oracle_matches_per_point(omega1c, ratios, kappa_ratio, fracs):
    omega = tuple(r * omega1c for r in ratios)
    params = CavityParams(omega, kappa=kappa_ratio * omega[0])
    delta_ts = [f * gate_time(params) for f in fracs]
    grid = timing_oracle([params], [delta_ts])[0]
    assert len(grid) == len(delta_ts)
    for dt, value in zip(delta_ts, grid):
        assert abs(value - timing_oracle_dense(TimingScenario(dt, params))) <= 1e-12


def test_timing_runs_without_dense_propagation(omega1c, monkeypatch):
    # The grid and the whole timing experiment use the exact blocks only.
    def refuse(*args, **kwargs):
        raise AssertionError("dense propagation in the timing grid")

    for module, name in [
        (dynamics, "expm"), (dynamics, "evolve"), (imperfections, "evolve"), (np.linalg, "eig"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    params = CavityParams.designed(omega1c, 0.1 * omega1c)
    delta_ts = [f * gate_time(params) for f in (0.0, 0.05, 1.0)]
    assert len(timing_oracle([params], [delta_ts])[0]) == 3
    assert len(run_experiment("timing", ExperimentConfig(delta_t_points=5)).rows) == 3 * 5


def test_timing_oracle_validates_delays(params_strong_decay):
    with pytest.raises(ConfigError):
        timing_oracle([params_strong_decay], [[0.0, -1e-9]])
    with pytest.raises(ConfigError):
        timing_oracle([params_strong_decay], [[2.0 * gate_time(params_strong_decay)]])


def test_timing_infidelity_matches_per_point(params_weak_decay, params_strong_decay):
    for params in (params_weak_decay, params_strong_decay):
        delta_ts = [f * gate_time(params) for f in (0.0, 0.003, 0.05, 0.1, 1.0)]
        grid = timing_infidelity([params], [delta_ts])[0].tolist()
        assert grid == [timing_infidelity([params], [[dt]])[0, 0] for dt in delta_ts]
        assert len(set(grid)) == len(grid)


@pytest.mark.parametrize("timing", [timing_infidelity, timing_oracle])
def test_timing_over_a_kappa_stack_matches_one_kappa_calls(omega1c, timing):
    stack = [CavityParams.designed(omega1c, r * omega1c) for r in (0.0, 0.02, 0.5, 3.99)]
    fracs = np.linspace(0.0, 0.2, 7)
    delta_ts = [fracs * gate_time(p) for p in stack]
    grid = timing(stack, delta_ts)
    assert grid.shape == (4, 7)
    for row, params, delays in zip(grid, stack, delta_ts):
        assert row.tobytes() == timing([params], [delays])[0].tobytes()
    # One row of delays per parameter set, and a stack needs a 2-D grid.
    for bad in (delta_ts[:3], delta_ts[0], [delta_ts]):
        with pytest.raises(ConfigError, match="delta_ts"):
            timing(stack, bad)


def _scalar_timing_grid(params, delta_ts):
    # The timing closed form as it was first written, delay by delay on
    # Python floats: the atom-1 return amplitude xi scales the damped
    # entries and the atoms-1+3 cross term shifts |001⟩. The reference for
    # the block form.
    w1, _, w3 = params.omega
    kappa = params.kappa
    a1 = dynamics.decay_shifted_frequency(w1, kappa)
    a13 = dynamics.decay_shifted_frequency(math.hypot(w1, w3), kappa)
    diag = decayed_i000(params)
    cross_scale = w1 * w1 / (a1 * a13)
    sin_pair13 = math.sin(math.sqrt(w1 * w1 + w3 * w3) / w1 * math.pi)  # kappa = 0 phase
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)
    reference = u.copy()
    reference[0] = -reference[0]
    infidelities = []
    for dt in delta_ts:
        envelope = math.exp(-kappa * dt / 4.0)
        xi = envelope * (math.cos(a1 * dt) + kappa / (4.0 * a1) * math.sin(a1 * dt))
        cross = cross_scale * envelope * math.sin(a1 * dt) * sin_pair13
        entries = np.array(diag.entries())
        entries[:4] *= xi
        entries[1] -= cross
        infidelities.append(1.0 - _fidelity(reference, entries * u))
    return infidelities


def test_timing_infidelity_matches_scalar_formula(omega1c):
    # The block form reorders only the products and sums of the scalar form.
    worst = 0.0
    for kappa_ratio in np.linspace(0.0, 3.99, 66, endpoint=False):
        params = CavityParams.designed(omega1c, kappa_ratio * omega1c)
        delta_ts = [f * gate_time(params) for f in np.linspace(0.0, 1.0, 100)]
        grid = timing_infidelity([params], [delta_ts])[0]
        expected = _scalar_timing_grid(params, delta_ts)
        worst = max(worst, np.abs(np.array(grid) - np.array(expected)).max())
    assert worst <= 1e-15


def test_timing_infidelity_validates_delays(params_strong_decay):
    with pytest.raises(ConfigError):
        timing_infidelity([params_strong_decay], [[0.0, -1e-9]])
    with pytest.raises(ConfigError):
        timing_infidelity([params_strong_decay], [[2.0 * gate_time(params_strong_decay)]])


def test_oracle_monotone_on_coarse_grid(params_strong_decay):
    t0 = gate_time(params_strong_decay)
    values = [
        timing_oracle_dense(TimingScenario(f * t0, params_strong_decay))
        for f in (0.0, 0.02, 0.05, 0.1)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_formula_continuous_at_zero_delay(params_strong_decay):
    t0 = gate_time(params_strong_decay)
    base = timing_infidelity([params_strong_decay], [[0.0]])[0, 0]
    gaps = [
        abs(timing_infidelity([params_strong_decay], [[t0 * 10.0**-k]])[0, 0] - base)
        for k in (3, 4, 5)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-7


def test_timing_infidelity_bounded(params_weak_decay, params_strong_decay):
    for params in (params_weak_decay, params_strong_decay):
        t0 = gate_time(params)
        for frac in np.linspace(0.0, 0.1, 25):
            value = timing_infidelity([params], [[float(frac) * t0]])[0, 0]
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
    # An array of offsets is checked value by value; the first bad one is named.
    with pytest.raises(ConfigError, match=r"got -1\.0$"):
        OffsetScenario(np.array([0.5, -1.0, math.nan]), 1, params_strong_decay)


@pytest.mark.parametrize("chi", [1, 2, 3, 4])
@pytest.mark.parametrize("model", ["atom1", "uniform"])
def test_zero_offset_baseline_independent_of_model_and_chi(
    chi, model, params_strong_decay
):
    value = coupling_offset_infidelity(params_strong_decay, [chi], [0.0], model)[0, 0]
    assert value == pytest.approx(0.0083, abs=5e-4)


def test_zero_offset_lossless_is_tiny(params_lossless):
    value = coupling_offset_infidelity(params_lossless, [2], [0.0])[0, 0]
    assert value <= 2e-6


def test_uniform_offset_is_scale_invariant(params_strong_decay):
    # A common factor on all couplings cancels from every ratio, so the
    # closed form cannot depend on eta at all (up to float rounding).
    baseline = coupling_offset_infidelity(params_strong_decay, [3], [0.0], "uniform")[0, 0]
    for eta in (0.02, 0.05, 0.1, -0.2):
        value = coupling_offset_infidelity(params_strong_decay, [3], [eta], "uniform")[0, 0]
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
            coupling_offset_infidelity(params_strong_decay, [chi], [eta])[0, 0]
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
    design = extract_gate([params_strong_decay], [t0]).restricted.matrix[0]
    offset_params = dataclasses.replace(
        params_strong_decay,
        omega=offset_couplings(OffsetScenario(eta, 1, params_strong_decay)),
    )
    offset = extract_gate([offset_params], [t0]).restricted.matrix[0]
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
            params_strong_decay, [chi], [0.0], model="per_atom", per_atom_eta=(0.0, 0.05, 0.05)
        )[0, 0]
        for chi in (1, 2, 3, 4)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_offset_infidelity_bounded(params_strong_decay):
    for chi in (1, 2, 3, 4):
        for eta in np.linspace(0.0, 0.1, 20):
            value = coupling_offset_infidelity(params_strong_decay, [chi], [float(eta)])[0, 0]
            assert 0.0 <= value <= 1.0


@pytest.mark.parametrize(
    "model, per_atom", [("atom1", None), ("uniform", None), ("per_atom", (0.02, -0.01, 0.03))]
)
def test_offset_grid_matches_per_point(model, per_atom, params_strong_decay):
    chis, etas = (1, 3, 4), (0.0, 0.01, -0.05, 0.1)
    grid = coupling_offset_infidelity(params_strong_decay, chis, etas, model, per_atom)
    assert grid.tolist() == [
        [
            coupling_offset_infidelity(params_strong_decay, [chi], [eta], model, per_atom)[0, 0]
            for eta in etas
        ]
        for chi in chis
    ]


@pytest.mark.parametrize(
    "chis, etas, model, per_atom",
    [
        ((1, 5), (0.0,), "atom1", None),
        ((1,), (0.0, 1.0), "atom1", None),
        ((1,), (0.0, math.nan), "uniform", None),
        ((1,), (0.0,), "bogus", None),
        ((1,), (0.0,), "per_atom", None),
        ((1,), (0.0,), "per_atom", (0.0, 1.5, 0.0)),
    ],
)
def test_offset_grid_validates_every_point(chis, etas, model, per_atom, params_strong_decay):
    with pytest.raises(ConfigError):
        coupling_offset_infidelity(params_strong_decay, chis, etas, model, per_atom)


def _scalar_offset_grid(params, chis, etas, model, per_atom):
    # The offset grid as it was first written, point by point on Python
    # floats: the reference for the array form.
    base = decayed_i000(params).entries()
    primed = [
        decayed_i000(
            params, offset_couplings(OffsetScenario(eta, 1, params, model, per_atom))
        ).entries()
        for eta in etas
    ]
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)
    grid = []
    for chi in chis:
        rest = 4 - chi
        composite = (np.array([p**chi * b**rest for p, b in zip(f, base)]) for f in primed)
        grid.append([1.0 - _fidelity(u, entries * u) for entries in composite])
    return grid


@pytest.mark.parametrize("kappa_ratio", [0.0, 0.02, 0.1, 0.5, 2.0])
@pytest.mark.parametrize(
    "model, per_atom", [("atom1", None), ("uniform", None), ("per_atom", (0.02, -0.01, 0.03))]
)
def test_offset_grid_matches_scalar_formula(model, per_atom, kappa_ratio, omega1c):
    # The array grid reorders only the sums and powers of the scalar form.
    params = CavityParams.designed(omega1c, kappa_ratio * omega1c)
    chis, etas = (1, 2, 3, 4), [float(e) for e in np.linspace(-0.2, 0.2, 41)]
    grid = coupling_offset_infidelity(params, chis, etas, model, per_atom)
    expected = _scalar_offset_grid(params, chis, etas, model, per_atom)
    assert np.abs(np.array(grid) - np.array(expected)).max() <= 1e-15


def _eight_slot_offset_grid(params, chis, etas, model, per_atom):
    # Every slot of a (len(etas), 8) array raised to the power chi, and the
    # row-wise fidelity written out: the form the four-slot grid must equal
    # bit for bit, since the last four slots hold 1**chi * 1 * u = u.
    scenario = OffsetScenario(etas, 1, params, model, per_atom)
    couplings = np.broadcast_arrays(*offset_couplings(scenario), etas)[:3]
    base = np.array(decayed_i000(params).entries())
    primed = np.stack(np.broadcast_arrays(*decayed_i000(params, couplings).entries()), 1)
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)))
    rows = []
    for chi in chis:
        outputs = primed**chi * base ** (4 - chi) * u
        overlap = (u * outputs).sum(axis=-1)
        rows.append(1.0 - abs(overlap) ** 2 / (abs(outputs) ** 2).sum(axis=-1))
    return np.array(rows)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("model", ["atom1", "uniform", "per_atom"])
def test_offset_grid_equals_the_eight_slot_grid_bit_for_bit(model, seed):
    # Seeded grids: single points and negative offsets, chi subsets in any
    # order, decay up to kappa = 3.9 w1, and per-atom triples.
    rng = np.random.default_rng(seed)
    params = CavityParams.designed(1.0, 3.9 * rng.random() if seed else 3.9)
    size = 1 if seed % 3 == 0 else int(rng.integers(2, 60))
    etas = np.sort(rng.uniform(-0.99, 0.99, size)) if seed % 2 else rng.uniform(-0.99, 0.99, size)
    chis = rng.permutation([1, 2, 3, 4])[: rng.integers(1, 5)].tolist()
    per_atom = tuple(rng.uniform(-0.99, 0.99, 3).tolist()) if model == "per_atom" else None
    grid = coupling_offset_infidelity(params, chis, etas, model, per_atom)
    expected = _eight_slot_offset_grid(params, chis, etas, model, per_atom)
    assert grid.shape == expected.shape == (len(chis), size)
    assert grid.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", ["atom1", "uniform"])
@pytest.mark.parametrize("per_atom", [(1.5, 0.0, 0.0), (0.0, -1.0, 0.0), (0.1, 0.1)])
def test_offset_scenario_checks_given_per_atom_offsets_under_every_model(
    model, per_atom, params_strong_decay
):
    with pytest.raises(ConfigError, match="per-atom offsets"):
        OffsetScenario(0.0, 1, params_strong_decay, model, per_atom)


@pytest.mark.parametrize(
    "model, per_atom", [("atom1", None), ("uniform", None), ("per_atom", (0.02, -0.01, 0.03))]
)
def test_decayed_gate_array_call_equals_scalar_calls(model, per_atom, params_strong_decay):
    # The offset path calls decayed_i000 once on coupling arrays, the gate
    # path on scalars: each array entry must be the scalar call's, bit for bit.
    etas = np.linspace(-0.2, 0.2, 41)
    scenario = OffsetScenario(etas, 1, params_strong_decay, model, per_atom)
    couplings = np.broadcast_arrays(*offset_couplings(scenario), etas)[:3]
    factors = decayed_i000(params_strong_decay, couplings)
    for i, eta in enumerate(etas.tolist()):
        one = OffsetScenario(eta, 1, params_strong_decay, model, per_atom)
        scalar = decayed_i000(params_strong_decay, offset_couplings(one))
        for name in ("mu", "gamma", "beta", "alpha"):
            assert np.broadcast_to(getattr(factors, name), etas.shape)[i] == getattr(scalar, name)


# --- malformed axes ----------------------------------------------------------


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda p: timing_oracle_dense(TimingScenario(np.array([0.0, 1e-7]), p)), "delta_t"),
        # A stack takes a (K, D) delay grid: one axis too few, or one too many.
        (lambda p: timing_infidelity([p], [0.0]), "delta_ts"),
        (lambda p: timing_oracle([p], [[[0.0, 1e-7]]]), "delta_ts"),
        (lambda p: coupling_offset_infidelity(p, [1], 0.05, "atom1", None), "etas"),
    ],
    ids=["dense-oracle-array-delay", "formula-scalar-delays", "oracle-2d-delays", "offset-scalar-etas"],
)
def test_malformed_axes_are_config_errors(call, name, params_strong_decay):
    with pytest.raises(ConfigError, match=rf"^{name} must be "):
        call(params_strong_decay)
