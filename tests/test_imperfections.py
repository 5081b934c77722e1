import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_grover import (
    CavityParams,
    ConfigError,
    ExperimentConfig,
    coupling_offset_infidelity,
    extract_gate,
    gate_time,
    offset_couplings,
    run_experiment,
    timing_infidelity,
    timing_oracle,
    timing_oracle_dense,
)
from cavity_grover import dynamics, grover, imperfections
from cavity_grover.dynamics import DESIGNED_RATIOS
from cavity_grover.gates import decayed_i000, full_diagonal
from reference import rk4_timing_oracle, rows


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


def test_no_delay_no_decay_is_faithful():
    assert timing_infidelity([0.0], [0.0])[0, 0] <= 1e-6


def test_no_delay_decay_baseline(strong_decay):
    value = timing_infidelity([strong_decay], [0.0])[0, 0]
    assert value == pytest.approx(6.3e-4, abs=1e-4)


def test_delay_infidelity_grows_with_decay(
    params_weak_decay, params_strong_decay, weak_decay, strong_decay
):
    # One absolute delay for both: 0.05 of the strong set's (longer) gate time.
    t_strong = gate_time(params_strong_decay)
    strong = timing_infidelity([strong_decay], [0.05])[0, 0]
    weak_frac = 0.05 * t_strong / gate_time(params_weak_decay)
    weak = timing_infidelity([weak_decay], [weak_frac])[0, 0]
    assert strong > weak


def test_delay_fractions_validate_window():
    with pytest.raises(ConfigError):
        imperfections.delay_fractions([-1e-9])
    with pytest.raises(ConfigError):
        imperfections.delay_fractions([2.0])
    # The first bad delay is named; one gate time itself is in the window.
    with pytest.raises(ConfigError, match=r"^delta_t_frac=-1e-09 outside"):
        imperfections.delay_fractions(np.array([0.5, -1e-9, math.nan, 2.0]))
    with pytest.raises(ConfigError, match=r"^delta_t_frac=nan outside"):
        imperfections.delay_fractions(np.array([0.0, 1.0, math.nan]))


def test_oracle_self_consistent_at_zero_delay(params_strong_decay):
    # With no delay the oracle is exactly the simulated gate at the gate
    # time, so both infidelity routes must coincide.
    (gate,), _ = extract_gate([params_strong_decay], [gate_time(params_strong_decay)])
    direct = _uniform_input_infidelity(gate)
    oracle = timing_oracle_dense(params_strong_decay, 0.0)
    assert oracle == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("frac", [0.01, 0.02, 0.031])
def test_formula_tracks_oracle_for_small_delays(frac, params_weak_decay, weak_decay):
    formula = timing_infidelity([weak_decay], [frac])[0, 0]
    oracle = timing_oracle_dense(params_weak_decay, frac)
    assert abs(formula - oracle) <= max(0.2 * abs(oracle), 1e-4)


def test_timing_oracle_honours_settings(params_strong_decay):
    # As for extract_gate: the full-space RK4 reference agrees with the
    # matrix exponential but is not bit-equal to it, so it really integrated.
    params = params_strong_decay
    gap = abs(rk4_timing_oracle(params, 0.05, 1024) - timing_oracle_dense(params, 0.05))
    assert 0.0 < gap <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kappa_ratio=st.floats(0.0, 3.99, exclude_max=True),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_timing_oracle_matches_per_point(omega1c, kappa_ratio, fracs):
    # The oracle at kappa/omega1 follows the dense path at a physical omega1.
    params = CavityParams.designed(omega1c, kappa=kappa_ratio * omega1c)
    grid = timing_oracle([params.kappa / omega1c], fracs)[0]
    assert len(grid) == len(fracs)
    for frac, value in zip(fracs, grid):
        assert abs(value - timing_oracle_dense(params, frac)) <= 1e-12


def test_timing_runs_without_dense_propagation(omega1c, monkeypatch):
    # The grid and the whole timing experiment use the exact blocks only.
    def refuse(*args, **kwargs):
        raise AssertionError("dense propagation in the timing grid")

    for module, name in [
        (dynamics, "expm"), (dynamics, "evolve"), (imperfections, "evolve"), (np.linalg, "eig"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert len(timing_oracle([0.1], [0.0, 0.05, 1.0])[0]) == 3
    assert len(rows(run_experiment("timing", ExperimentConfig(delta_t_points=5)))) == 3 * 5


# Delays outside [0, 1] gate times, NaN, and a fraction grid of the wrong shape.
_BAD_FRACS = (
    [0.0, -1e-9], [2.0], [[0.0, 0.05]], [-1e-300], [math.nan], [float(np.nextafter(1.0, 2.0))]
)


def test_timing_oracle_validates_delays(strong_decay):
    for bad in _BAD_FRACS:
        with pytest.raises(ConfigError, match="delta_t_frac"):
            timing_oracle([strong_decay], bad)


def test_timing_infidelity_matches_per_point(weak_decay, strong_decay):
    for kappa in (weak_decay, strong_decay):
        fracs = (0.0, 0.003, 0.05, 0.1, 1.0)
        grid = timing_infidelity([kappa], fracs)[0].tolist()
        assert grid == [timing_infidelity([kappa], [f])[0, 0] for f in fracs]
        assert len(set(grid)) == len(grid)


@pytest.mark.parametrize("timing", [timing_infidelity, timing_oracle])
def test_timing_over_a_kappa_stack_matches_one_kappa_calls(timing):
    stack = np.array([0.0, 0.02, 0.5, 3.99])
    fracs = np.linspace(0.0, 0.2, 7)
    grid = timing(stack, fracs)
    assert grid.shape == (4, 7)
    for row, kappa in zip(grid, stack):
        assert row.tobytes() == timing([kappa], fracs)[0].tobytes()
    # The stack shares one 1-D fraction axis: not one value, nor a row per set.
    for bad in (fracs[0], [fracs] * 4):
        with pytest.raises(ConfigError, match="delta_t_frac"):
            timing(stack, bad)


def _scalar_timing_grid(params, delta_ts):
    # The timing closed form as it was first written, delay by delay on
    # Python floats: the atom-1 return amplitude xi scales the damped
    # entries and the atoms-1+3 cross term shifts |001⟩. The reference for
    # the block form.
    w1, _, w3 = params.omega
    kappa = params.kappa
    a1 = float(dynamics.decay_shifted_frequency(w1, kappa))
    a13 = float(dynamics.decay_shifted_frequency(math.hypot(w1, w3), kappa))
    diag = decayed_i000(kappa / w1)
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
        entries = full_diagonal(diag)
        entries[:4] *= xi
        entries[1] -= cross
        infidelities.append(1.0 - _fidelity(reference, entries * u))
    return infidelities


def test_timing_infidelity_matches_scalar_formula(omega1c):
    # The block form reorders only the products and sums of the scalar form.
    worst = 0.0
    for kappa_ratio in np.linspace(0.0, 3.99, 66, endpoint=False):
        params = CavityParams.designed(omega1c, kappa_ratio * omega1c)
        fracs = np.linspace(0.0, 1.0, 100)
        delta_ts = [f * gate_time(params) for f in fracs]
        grid = timing_infidelity([kappa_ratio], fracs)[0]
        expected = _scalar_timing_grid(params, delta_ts)
        worst = max(worst, np.abs(np.array(grid) - np.array(expected)).max())
    assert worst <= 1e-15


def test_timing_infidelity_validates_delays(strong_decay):
    for bad in _BAD_FRACS:
        with pytest.raises(ConfigError, match="delta_t_frac"):
            timing_infidelity([strong_decay], bad)


def test_oracle_monotone_on_coarse_grid(params_strong_decay):
    values = [timing_oracle_dense(params_strong_decay, f) for f in (0.0, 0.02, 0.05, 0.1)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_formula_continuous_at_zero_delay(strong_decay):
    base = timing_infidelity([strong_decay], [0.0])[0, 0]
    gaps = [
        abs(timing_infidelity([strong_decay], [10.0**-k])[0, 0] - base)
        for k in (3, 4, 5)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-7


def test_timing_infidelity_bounded(weak_decay, strong_decay):
    for kappa in (weak_decay, strong_decay):
        for frac in np.linspace(0.0, 0.1, 25):
            value = timing_infidelity([kappa], [float(frac)])[0, 0]
            assert 0.0 <= value <= 1.0


# --- coupling offsets ------------------------------------------------------


def _one_offset(eta, model="atom1", per_atom=None):
    # The coupling triple at one offset as Python floats, in units of the
    # design atom-1 coupling: the scalar path.
    couplings = offset_couplings([eta], model, per_atom)
    assert all(c.shape == (1,) for c in couplings)
    return tuple(c.item() for c in couplings)


def test_offset_couplings_models():
    w1, w2, w3 = DESIGNED_RATIOS
    unchanged = _one_offset(0.0)
    assert unchanged == (w1, w2, w3)
    atom1 = _one_offset(0.05)
    assert atom1 == (pytest.approx(1.05 * w1), w2, w3)
    uniform = _one_offset(0.05, model="uniform")
    assert uniform == tuple(pytest.approx(1.05 * w) for w in (w1, w2, w3))
    per_atom = _one_offset(0.0, model="per_atom", per_atom=(0.0, 0.1, -0.1))
    assert per_atom == (w1, pytest.approx(1.1 * w2), pytest.approx(0.9 * w3))


def test_offset_couplings_and_check_chi_validation():
    with pytest.raises(ConfigError):
        imperfections.check_chi(0)
    with pytest.raises(ConfigError):
        offset_couplings([1.5])
    with pytest.raises(ConfigError):
        offset_couplings([0.0], model="bogus")
    with pytest.raises(ConfigError):
        offset_couplings([0.0], model="per_atom")
    # An array of offsets is checked value by value; the first bad one is named.
    with pytest.raises(ConfigError, match=r"got -1\.0$"):
        offset_couplings(np.array([0.5, -1.0, math.nan]))


def test_chi_is_an_integer_count(strong_decay):
    # 2.0 in (1, 2, 3, 4) holds, but the grid raises to the power chi with
    # range(chi - 1): a float count is a ConfigError, not a later TypeError.
    with pytest.raises(ConfigError, match=r"got 2\.0$"):
        coupling_offset_infidelity(strong_decay, [2.0], [0.05])
    for chi in (1, 4, np.int64(2)):
        imperfections.check_chi(chi)
    for chi in (0, 5, 2.0, np.float64(3.0)):
        message = rf"^chi counts imperfect cavities, must be 1\.\.4, got {chi}$"
        with pytest.raises(ConfigError, match=message):
            imperfections.check_chi(chi)


def test_empty_axes_give_empty_grids(strong_decay):
    # The grid is (len(chis), len(etas)) also when either axis is empty.
    assert coupling_offset_infidelity(strong_decay, [], [0.0, 0.1]).shape == (0, 2)
    assert coupling_offset_infidelity(strong_decay, [1, 3], []).shape == (2, 0)
    assert coupling_offset_infidelity(strong_decay, [], []).shape == (0, 0)


@pytest.mark.parametrize("chi", [1, 2, 3, 4])
@pytest.mark.parametrize("model", ["atom1", "uniform"])
def test_zero_offset_baseline_independent_of_model_and_chi(
    chi, model, strong_decay
):
    value = coupling_offset_infidelity(strong_decay, [chi], [0.0], model)[0, 0]
    assert value == pytest.approx(0.0083, abs=5e-4)


def test_zero_offset_lossless_is_tiny():
    value = coupling_offset_infidelity(0.0, [2], [0.0])[0, 0]
    assert value <= 2e-6


def test_uniform_offset_is_scale_invariant(strong_decay):
    # A common factor on all couplings cancels from every ratio, so the
    # closed form cannot depend on eta at all (up to float rounding).
    baseline = coupling_offset_infidelity(strong_decay, [3], [0.0], "uniform")[0, 0]
    for eta in (0.02, 0.05, 0.1, -0.2):
        value = coupling_offset_infidelity(strong_decay, [3], [eta], "uniform")[0, 0]
        assert abs(value - baseline) <= 1e-15


def test_atom1_offset_direction_in_cavity_count(strong_decay):
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
            coupling_offset_infidelity(strong_decay, [chi], [eta])[0, 0]
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
    (design,), _ = extract_gate([params_strong_decay], [t0])
    offset_params = dataclasses.replace(
        params_strong_decay,
        omega=tuple(params_strong_decay.omega[0] * w for w in _one_offset(eta)),
    )
    (offset,), _ = extract_gate([offset_params], [t0])
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)), dtype=complex)
    values = []
    for chi in (1, 2, 3, 4):
        out = u
        for gate in [offset] * chi + [design] * (4 - chi):
            out = gate @ out
        # Even number of phase gates: the exact reference is u itself.
        values.append(1.0 - abs(np.vdot(u, out)) ** 2 / np.vdot(out, out).real)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_atoms23_offset_rises_with_cavity_count(strong_decay):
    # Scaling atoms 2 and 3 together shrinks atom 1's relative coupling;
    # the damped slots move back toward 1 and infidelity grows with the
    # number of imperfect cavities.
    values = [
        coupling_offset_infidelity(
            strong_decay, [chi], [0.0], model="per_atom", per_atom_eta=(0.0, 0.05, 0.05)
        )[0, 0]
        for chi in (1, 2, 3, 4)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_offset_infidelity_bounded(strong_decay):
    for chi in (1, 2, 3, 4):
        for eta in np.linspace(0.0, 0.1, 20):
            value = coupling_offset_infidelity(strong_decay, [chi], [float(eta)])[0, 0]
            assert 0.0 <= value <= 1.0


@pytest.mark.parametrize(
    "model, per_atom", [("atom1", None), ("uniform", None), ("per_atom", (0.02, -0.01, 0.03))]
)
def test_offset_grid_matches_per_point(model, per_atom, strong_decay):
    chis, etas = (1, 3, 4), (0.0, 0.01, -0.05, 0.1)
    grid = coupling_offset_infidelity(strong_decay, chis, etas, model, per_atom)
    assert grid.tolist() == [
        [
            coupling_offset_infidelity(strong_decay, [chi], [eta], model, per_atom)[0, 0]
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
def test_offset_grid_validates_every_point(chis, etas, model, per_atom, strong_decay):
    with pytest.raises(ConfigError):
        coupling_offset_infidelity(strong_decay, chis, etas, model, per_atom)


def _scalar_offset_grid(kappa, chis, etas, model, per_atom):
    # The offset grid as it was first written, point by point on Python
    # floats: the reference for the array form.
    base = full_diagonal(decayed_i000(kappa)).tolist()
    primed = [
        full_diagonal(decayed_i000(kappa, _one_offset(eta, model, per_atom))).tolist()
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
def test_offset_grid_matches_scalar_formula(model, per_atom, kappa_ratio):
    # The array grid reorders only the sums and powers of the scalar form.
    chis, etas = (1, 2, 3, 4), [float(e) for e in np.linspace(-0.2, 0.2, 41)]
    grid = coupling_offset_infidelity(kappa_ratio, chis, etas, model, per_atom)
    expected = _scalar_offset_grid(kappa_ratio, chis, etas, model, per_atom)
    assert np.abs(np.array(grid) - np.array(expected)).max() <= 1e-15


def _product_power(x, chi):
    # x**chi as chi - 1 products, (x * x) * x ..., the grid's sequence.
    power = x
    for _ in range(chi - 1):
        power = power * x
    return power


def _eight_slot_offset_grid(
    kappa, chis, etas, model, per_atom,
    power=_product_power, fidelity=grover._row_fidelity,
):
    # Every slot of a (len(etas), 8) array raised to the power chi, and the
    # row-wise fidelity on all eight slots: the form the four-slot grid must
    # equal bit for bit, since the last four slots hold 1**chi * 1 * u = u.
    couplings = offset_couplings(etas, model, per_atom)
    base = full_diagonal(decayed_i000(kappa))
    primed = full_diagonal(decayed_i000(kappa, couplings))
    u = np.full(8, 1.0 / (2.0 * math.sqrt(2.0)))
    rows = []
    for chi in chis:
        outputs = power(primed, chi) * base ** (4 - chi) * u
        rows.append(1.0 - fidelity(u, outputs)[0])
    return np.array(rows)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("model", ["atom1", "uniform", "per_atom"])
def test_offset_grid_equals_the_eight_slot_grid_bit_for_bit(model, seed):
    # Seeded grids: single points and negative offsets, chi subsets in any
    # order, decay up to kappa = 3.9 w1, and per-atom triples.
    rng = np.random.default_rng(seed)
    kappa = 3.9 * rng.random() if seed else 3.9
    size = 1 if seed % 3 == 0 else int(rng.integers(2, 60))
    etas = np.sort(rng.uniform(-0.99, 0.99, size)) if seed % 2 else rng.uniform(-0.99, 0.99, size)
    chis = rng.permutation([1, 2, 3, 4])[: rng.integers(1, 5)].tolist()
    per_atom = tuple(rng.uniform(-0.99, 0.99, 3).tolist()) if model == "per_atom" else None
    grid = coupling_offset_infidelity(kappa, chis, etas, model, per_atom)
    expected = _eight_slot_offset_grid(kappa, chis, etas, model, per_atom)
    assert grid.shape == expected.shape == (len(chis), size)
    assert grid.tobytes() == expected.tobytes()


def _previous_row_fidelity(reference, outputs):
    # The row-wise fidelity and norm as they were before the fused reductions:
    # five full-size steps (product, sum, abs, square, sum).
    overlap = (reference.conj() * outputs).sum(axis=-1)
    norm = (abs(outputs) ** 2).sum(axis=-1)
    return abs(overlap) ** 2 / norm, norm


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("model", ["atom1", "uniform", "per_atom"])
def test_offset_grid_keeps_the_previous_arithmetic_within_1e15(model, seed):
    # Product powers and fused reductions against numpy's ** and the five-step
    # fidelity: the last bits may move, by at most 1e-15. With the powers
    # change alone, chi = 1 and 2 take **'s copy and square paths bit for bit.
    rng = np.random.default_rng(1000 + seed)
    kappa = 3.9 * rng.random() if seed else 3.9
    etas = rng.uniform(-0.99, 0.99, 1 if seed % 4 == 0 else int(rng.integers(2, 400)))
    chis = rng.permutation([1, 2, 3, 4])[: rng.integers(1, 5)].tolist()
    per_atom = tuple(rng.uniform(-0.99, 0.99, 3).tolist()) if model == "per_atom" else None
    grid = coupling_offset_infidelity(kappa, chis, etas, model, per_atom)
    previous = _eight_slot_offset_grid(
        kappa, chis, etas, model, per_atom, operator.pow, _previous_row_fidelity
    )
    assert np.abs(grid - previous).max() <= 1e-15
    low = [chi for chi in chis if chi <= 2]
    if low:
        powers_alone = _eight_slot_offset_grid(kappa, low, etas, model, per_atom, operator.pow)
        expected = coupling_offset_infidelity(kappa, low, etas, model, per_atom)
        assert powers_alone.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_timing_keeps_the_previous_fidelity_within_1e15(seed, monkeypatch):
    # Every timing function scores with the one row-wise fidelity: on a seeded
    # (kappa, delta_t) grid, the fused reductions move its values by at most 1e-15.
    rng = np.random.default_rng(2000 + seed)
    stack = np.sort(rng.uniform(0.0, 3.9, 5))
    fracs = rng.uniform(0.0, 1.0, 40)
    fused = [timing_infidelity(stack, fracs), timing_oracle(stack, fracs)]
    first = CavityParams.designed(1.0, stack[0])
    dense = timing_oracle_dense(first, float(fracs[0]))
    monkeypatch.setattr(imperfections, "_row_fidelity", _previous_row_fidelity)
    previous = [timing_infidelity(stack, fracs), timing_oracle(stack, fracs)]
    for now, before in zip(fused, previous):
        assert now.shape == before.shape == (5, 40)
        assert np.abs(now - before).max() <= 1e-15
    assert abs(dense - timing_oracle_dense(first, float(fracs[0]))) <= 1e-15


@pytest.mark.parametrize("model", ["atom1", "uniform"])
@pytest.mark.parametrize("per_atom", [(1.5, 0.0, 0.0), (0.0, -1.0, 0.0), (0.1, 0.1)])
def test_offset_couplings_checks_a_given_per_atom_triple(model, per_atom):
    # The triple is checked whenever it is given, whatever the model.
    with pytest.raises(ConfigError, match="per-atom offsets"):
        offset_couplings([0.0], model, per_atom)


@pytest.mark.parametrize(
    "model, per_atom", [("atom1", None), ("uniform", None), ("per_atom", (0.02, -0.01, 0.03))]
)
def test_decayed_gate_array_call_equals_scalar_calls(model, per_atom, strong_decay):
    # The offset path calls decayed_i000 once on coupling arrays, the gate
    # path on scalars: each array entry must be the scalar call's, bit for bit.
    etas = np.linspace(-0.2, 0.2, 41)
    couplings = offset_couplings(etas, model, per_atom)
    slots = decayed_i000(strong_decay, couplings)
    assert slots.shape == (len(etas), 4)
    for i, eta in enumerate(etas.tolist()):
        one = _one_offset(eta, model, per_atom)
        scalar = decayed_i000(strong_decay, one)
        assert scalar.shape == (4,)
        assert slots[i].tobytes() == scalar.tobytes()


# --- malformed axes ----------------------------------------------------------


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda p: timing_oracle_dense(p, np.array([0.0, 1e-7])), "delta_t_frac"),
        # A stack takes one 1-D fraction axis: one axis too few, or one too many.
        (lambda p: timing_infidelity([p.kappa / p.omega[0]], 0.0), "delta_t_frac"),
        (lambda p: timing_oracle([p.kappa / p.omega[0]], [[0.0, 1e-7]]), "delta_t_frac"),
        (lambda p: coupling_offset_infidelity(p.kappa / p.omega[0], [1], 0.05), "etas"),
    ],
    ids=["dense-oracle-array-delay", "formula-scalar-delays", "oracle-2d-delays", "offset-scalar-etas"],
)
def test_malformed_axes_are_config_errors(call, name, params_strong_decay):
    with pytest.raises(ConfigError, match=rf"^{name} must be "):
        call(params_strong_decay)
