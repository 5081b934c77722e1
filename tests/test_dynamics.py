import math

import numpy as np
import pytest

from cavity_grover import (
    AtomLevel,
    CavityParams,
    ConfigError,
    CutoffError,
    EvolutionMethod,
    EvolutionSettings,
    build_basis,
    build_effective_hamiltonian,
    build_hamiltonian,
    computational_embedding,
    coupling_at_position,
    evolve,
    extract_gate,
    gate_time,
    positions_for_ratio,
    residual_gate_entry,
)
from cavity_grover.hilbert import basis_state, excitation_number, state_index

E, G, I = AtomLevel.E, AtomLevel.G, AtomLevel.I

RK4 = EvolutionSettings(method=EvolutionMethod.FIXED_STEP_INTEGRATOR, step_count=4096)


# --- parameter validation ----------------------------------------------


def test_params_reject_overdamped_decay(omega1c):
    with pytest.raises(ConfigError):
        CavityParams.designed(omega1c, kappa=4.0 * omega1c)


def test_params_reject_nonpositive_couplings(omega1c):
    with pytest.raises(ConfigError):
        CavityParams(omega=(omega1c, 0.0, omega1c))


def test_designed_ratio_helper(omega1c, params_lossless):
    w1, w2, w3 = params_lossless.omega
    assert w1 == omega1c
    assert w2 / w1 == pytest.approx(math.sqrt(35.0), rel=1e-12)
    assert w3 / w1 == pytest.approx(8.0, rel=1e-12)
    assert params_lossless.has_designed_ratios()


def test_integrator_settings_need_enough_steps():
    with pytest.raises(ConfigError):
        EvolutionSettings(method=EvolutionMethod.FIXED_STEP_INTEGRATOR, step_count=50)


# --- Hamiltonian structure ----------------------------------------------


def test_single_excitation_matrix_element(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    src = state_index(basis, E, I, I, 0)
    dst = state_index(basis, G, I, I, 1)
    assert h[dst, src] == pytest.approx(params_lossless.omega[0], rel=1e-15)


def test_no_diagonal_terms(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    assert np.abs(np.diag(h)).max() == 0.0


def test_uninvolved_level_never_couples(params_lossless):
    # An atom parked in I must keep that level through every matrix element.
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    rows, cols = np.nonzero(h)
    for i, j in zip(rows, cols):
        a, b = basis.states[i], basis.states[j]
        assert (a.l2 is I) == (b.l2 is I)
        assert (a.l3 is I) == (b.l3 is I)


def test_hermiticity(params_strong_decay):
    basis = build_basis(1)
    h = build_hamiltonian(params_strong_decay, basis)
    assert np.abs(h - h.conj().T).max() <= 1e-15


def test_effective_hamiltonian_reduces_at_zero_decay(params_lossless):
    basis = build_basis(1)
    assert np.array_equal(
        build_effective_hamiltonian(params_lossless, basis),
        build_hamiltonian(params_lossless, basis),
    )


def test_effective_hamiltonian_decay_diagonal(params_strong_decay):
    basis = build_basis(1)
    h = build_effective_hamiltonian(params_strong_decay, basis)
    one_photon = state_index(basis, G, I, I, 1)
    vacuum = state_index(basis, G, G, G, 0)
    assert h[one_photon, one_photon] == pytest.approx(
        -0.5j * params_strong_decay.kappa, rel=1e-15
    )
    assert h[vacuum, vacuum] == 0.0


# --- evolution ------------------------------------------------------------


def test_evolve_zero_time_is_identity(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    psi = basis_state(basis, computational_embedding(basis)[3])
    out = evolve(h, 0.0, psi)
    assert np.abs(out.amplitudes - psi.amplitudes).max() <= 1e-15


def test_two_state_rabi_full_cycle(params_lossless):
    # |e1 i2 i3, 0> exchanges with |g1 i2 i3, 1> at the bare atom-1 rate:
    # after half a period the state returns with amplitude -1.
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    start = state_index(basis, E, I, I, 0)
    out = evolve(h, math.pi / params_lossless.omega[0], basis_state(basis, start))
    assert abs(out.amplitudes[start] - (-1.0)) <= 1e-9


def test_three_atom_block_closes_cycle(params_lossless):
    # |e1 g2 g3, 0> cycles at sqrt(1+35+64) = 10x the atom-1 rate, so one
    # gate time holds five full periods: amplitude returns to +1.
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    start = state_index(basis, E, G, G, 0)
    out = evolve(h, math.pi / params_lossless.omega[0], basis_state(basis, start))
    assert abs(out.amplitudes[start] - 1.0) <= 1e-9


def test_evolve_rejects_negative_time(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    with pytest.raises(ConfigError):
        evolve(h, -1.0, basis_state(basis, 0))


def test_evolve_rejects_dimension_mismatch(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    with pytest.raises(ConfigError):
        evolve(h[:10, :10], 1.0, basis_state(basis, 0))


def test_excitation_conservation(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    t = gate_time(params_lossless)
    for pos in computational_embedding(basis):
        block = excitation_number(basis, pos)
        out = evolve(h, t, basis_state(basis, pos))
        outside = [
            i for i in range(basis.dimension) if excitation_number(basis, i) != block
        ]
        assert np.abs(out.amplitudes[outside]).max() < 1e-12


def test_unitarity_without_decay(params_lossless):
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    psi = basis_state(basis, computational_embedding(basis)[3])
    for t_factor in (0.5, 1.0, 5.0, 10.0):
        out = evolve(h, t_factor * gate_time(params_lossless), psi)
        assert abs(out.squared_norm() - 1.0) <= 1e-10


def test_norm_monotone_under_decay(params_strong_decay):
    basis = build_basis(1)
    h = build_effective_hamiltonian(params_strong_decay, basis)
    t = gate_time(params_strong_decay)
    samples = np.linspace(0.0, t, 120)
    psi = basis_state(basis, computational_embedding(basis)[0])
    norms = [evolve(h, ti, psi).squared_norm() for ti in samples]
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)


def test_methods_agree_on_all_logical_inputs(params_strong_decay):
    basis = build_basis(1)
    h = build_effective_hamiltonian(params_strong_decay, basis)
    t = gate_time(params_strong_decay)
    for pos in computational_embedding(basis):
        psi = basis_state(basis, pos)
        reference = evolve(h, t, psi)
        integrated = evolve(h, t, psi, RK4)
        assert np.abs(reference.amplitudes - integrated.amplitudes).max() <= 1e-8


def test_truncation_guard_fires_for_over_excited_input(params_lossless):
    # A top-layer state with an excited atom couples past the cutoff: the
    # run must abort instead of silently evolving truncated dynamics.
    basis = build_basis(1)
    h = build_hamiltonian(params_lossless, basis)
    start = state_index(basis, E, G, G, 1)
    with pytest.raises(CutoffError):
        evolve(h, gate_time(params_lossless), basis_state(basis, start))


# --- gate extraction -------------------------------------------------------


def test_extracted_gate_lossless(params_lossless):
    extract = extract_gate(params_lossless, gate_time(params_lossless))
    diag = extract.restricted.diagonal()
    expected = np.ones(8)
    expected[0] = -1.0
    expected[1] = residual_gate_entry(params_lossless)
    assert np.abs(diag - expected).max() <= 1e-6
    off = extract.restricted.matrix - np.diag(diag)
    off = np.delete(off, 1, axis=1)  # the |001> column carries the leakage
    assert np.abs(off).max() <= 1e-6
    assert extract.leakage[1] == pytest.approx(
        1.0 - residual_gate_entry(params_lossless) ** 2, abs=1e-9
    )


def test_extracted_gate_under_decay_matches_closed_form(params_strong_decay):
    # Damped-diagonal values evaluated directly from the closed forms at
    # kappa = omega1/10.
    extract = extract_gate(params_strong_decay, gate_time(params_strong_decay))
    diag = extract.restricted.diagonal()
    expected = np.array([-0.9244, 0.9986, 0.9979, 0.9992, 1.0, 1.0, 1.0, 1.0])
    assert np.abs(diag - expected).max() <= 1e-3


def test_extract_gate_honours_settings(params_strong_decay):
    # RK4 must agree with the matrix exponential, and must differ from it
    # in the last bits: equal outputs would mean the settings were dropped.
    t = gate_time(params_strong_decay)
    reference = extract_gate(params_strong_decay, t)
    rk4 = EvolutionSettings(method=EvolutionMethod.FIXED_STEP_INTEGRATOR, step_count=1024)
    integrated = extract_gate(params_strong_decay, t, rk4)
    gap = np.abs(integrated.restricted.matrix - reference.restricted.matrix).max()
    assert 0.0 < gap <= 1e-8
    assert np.abs(integrated.leakage - reference.leakage).max() <= 1e-8


def test_extracted_gate_short_time_is_identity(params_strong_decay):
    t = 1e-6 * gate_time(params_strong_decay)
    extract = extract_gate(params_strong_decay, t)
    assert np.abs(extract.restricted.matrix - np.eye(8)).max() <= 1e-9
    assert np.abs(extract.leakage).max() <= 1e-9


def test_lossless_columns_account_for_all_population(params_lossless):
    # Without decay nothing is lost: column norm plus leakage is exactly 1.
    extract = extract_gate(params_lossless, gate_time(params_lossless))
    column_norms = np.sum(np.abs(extract.restricted.matrix) ** 2, axis=0)
    assert np.abs(column_norms + extract.leakage - 1.0).max() <= 1e-9


def test_decay_columns_lose_population(params_strong_decay):
    extract = extract_gate(params_strong_decay, gate_time(params_strong_decay))
    column_norms = np.sum(np.abs(extract.restricted.matrix) ** 2, axis=0)
    assert np.all(column_norms + extract.leakage <= 1.0 + 1e-9)
    assert column_norms[0] < 1.0  # the |000> column decays


def test_analytic_pair13_block_entry(params_lossless):
    # Closed form for the atoms-1+3 return amplitude after one gate time.
    w1, _, w3 = params_lossless.omega
    expected = (w3**2 + w1**2 * math.cos(math.sqrt(65.0) * math.pi)) / (w1**2 + w3**2)
    extract = extract_gate(params_lossless, gate_time(params_lossless))
    assert extract.restricted.diagonal()[1].real == pytest.approx(expected, abs=1e-9)


# --- timing and geometry -----------------------------------------------


def test_gate_time_lossless(omega1c, params_lossless):
    assert gate_time(params_lossless) == pytest.approx(math.pi / omega1c, rel=1e-15)


def test_iteration_time_matches_reference(params_lossless):
    # Two phase gates per search iteration at omega1 = 2*pi*6.125 kHz.
    assert 2.0 * gate_time(params_lossless) * 1e6 == pytest.approx(163.27, abs=0.01)


def test_gate_time_under_decay(omega1c, params_strong_decay):
    assert gate_time(params_strong_decay) == pytest.approx(
        math.pi / (0.99968745 * omega1c), rel=1e-7
    )


def test_coupling_profile():
    omega0, lam = 1.0, 2.0
    assert coupling_at_position(0.0, omega0, lam) == omega0
    assert abs(coupling_at_position(lam / 4.0, omega0, lam)) <= 1e-12
    z = lam * math.acos(1.0 / 8.0) / (2.0 * math.pi)
    assert coupling_at_position(z, omega0, lam) == pytest.approx(omega0 / 8.0, rel=1e-9)


def test_positions_realize_designed_ratio():
    omega0, lam = 2.0 * math.pi * 49e3, 1.0
    z1, z2, z3 = positions_for_ratio(omega0, lam)
    assert abs(z1) / abs(z2) == pytest.approx(1.957, abs=1e-3)
    c1 = coupling_at_position(z1, omega0, lam)
    c2 = coupling_at_position(z2, omega0, lam)
    assert c2 / c1 == pytest.approx(math.sqrt(35.0), rel=1e-9)
    assert z3 == 0.0
    assert coupling_at_position(z3, omega0, lam) == omega0


def test_positions_on_first_lobe():
    z1, z2, _ = positions_for_ratio(1.0, 1.0)
    assert 0.0 < z2 < z1 < 0.25
