from dataclasses import replace

import numpy as np
import pytest

from cavity_grover import (
    AtomLevel,
    ConfigError,
    PureState,
    build_basis,
    build_effective_hamiltonian,
    computational_embedding,
    evolve,
    excitation_number,
    state_index,
)
from cavity_grover.hilbert import BasisState, basis_state

E, G, I = AtomLevel.E, AtomLevel.G, AtomLevel.I


def test_dimension_scales_with_cutoff():
    assert build_basis(1).dimension == 36
    assert build_basis(2).dimension == 54


def test_cutoff_zero_rejected():
    with pytest.raises(ConfigError):
        build_basis(0)


def test_lexicographic_head_of_enumeration():
    basis = build_basis(1)
    assert state_index(basis, E, I, I, 0) == 0
    assert state_index(basis, E, I, I, 1) == 1


def test_atom1_has_no_uninvolved_level():
    basis = build_basis(1)
    with pytest.raises(ConfigError):
        state_index(basis, I, I, I, 0)


def test_photon_number_above_cutoff_rejected():
    basis = build_basis(1)
    with pytest.raises(ConfigError):
        state_index(basis, E, I, I, 2)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_enumeration_lookup_round_trip(cutoff):
    basis = build_basis(cutoff)
    for position, state in enumerate(basis.states):
        assert state_index(basis, state.l1, state.l2, state.l3, state.n) == position


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_guard_is_top_layer_with_an_excited_atom(cutoff):
    basis = build_basis(cutoff)
    expected = [
        i
        for i, s in enumerate(basis.states)
        if s.n == basis.photon_cutoff and any(l is E for l in s.atom_levels())
    ]
    assert list(basis.guard) == expected


def test_embedding_order_and_vacuum():
    basis = build_basis(1)
    embedding = computational_embedding(basis)
    assert len(set(embedding)) == 8
    assert embedding[0] == state_index(basis, E, I, I, 0)
    assert embedding[7] == state_index(basis, G, G, G, 0)
    for idx in embedding:
        assert basis.states[idx].n == 0


def test_last_logical_state_round_trips():
    basis = build_basis(1)
    idx = state_index(basis, G, G, G, 0)
    assert basis.states[idx] == BasisState(G, G, G, 0)
    assert idx == computational_embedding(basis)[7]


@pytest.mark.parametrize(
    "state,expected",
    [((E, I, I, 0), 1), ((G, G, G, 1), 1), ((G, I, I, 0), 0)],
)
def test_excitation_number(state, expected):
    basis = build_basis(1)
    position = state_index(basis, *state)
    assert excitation_number(basis, position) == expected


def test_embedded_states_have_low_excitation():
    basis = build_basis(1)
    for idx in computational_embedding(basis):
        assert excitation_number(basis, idx) in (0, 1)


def test_cutoff_one_is_exact_for_logical_inputs(params_lossless):
    # Excitation conservation: enlarging the Fock ladder must not change
    # the evolution of any logical input. Its reachable sector, and so the
    # block that is exponentiated, is the same at every cutoff: the
    # amplitudes agree bit for bit.
    t = 0.37 * np.pi / params_lossless.omega[0]
    amplitudes = {}
    for cutoff in (1, 2, 3):
        params = replace(params_lossless, photon_cutoff=cutoff)
        basis = build_basis(cutoff)
        h = build_effective_hamiltonian(params, basis)
        for col, pos in enumerate(computational_embedding(basis)):
            final = evolve(h, t, basis_state(basis, pos))
            amplitudes[(cutoff, col)] = {
                s: a for s, a in zip(basis.states, final.amplitudes)
            }
    small = build_basis(1)
    for col in range(8):
        for state in small.states:
            for cutoff in (2, 3):
                assert amplitudes[(1, col)][state] == amplitudes[(cutoff, col)][state]


def test_pure_state_validates_length():
    basis = build_basis(1)
    with pytest.raises(ConfigError):
        PureState(np.ones(5, dtype=complex), basis)
    with pytest.raises(ConfigError):
        PureState(np.ones(7, dtype=complex))  # logical register is 8-dim


def test_pure_state_amplitudes_read_only():
    state = PureState(np.ones(8, dtype=complex) / np.sqrt(8.0))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
