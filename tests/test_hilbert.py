import numpy as np
import pytest

from cavity_grover import (
    AtomLevel,
    CavityParams,
    ConfigError,
    ExperimentConfig,
    build_effective_hamiltonian,
    computational_embedding,
    evolve,
    grover_step,
    parse_config,
)
from cavity_grover.dynamics import _reachable_sector
from cavity_grover.gates import TEXTBOOK
from cavity_grover.hilbert import BASIS, GUARD, BasisState
from reference import excitation_number, gate_operator, state_index, unit

E, G, I = AtomLevel.E, AtomLevel.G, AtomLevel.I


def test_basis_is_vacuum_plus_one_photon():
    assert len(BASIS) == 36
    assert {s.n for s in BASIS} == {0, 1}


def test_cutoff_zero_rejected():
    # A config may still name the retired cutoff, but only as 1.
    with pytest.raises(ConfigError, match="photon_cutoff = 0: retired, its only value is 1"):
        ExperimentConfig(photon_cutoff=0)
    with pytest.raises(ConfigError, match="photon_cutoff"):
        parse_config("photon_cutoff = 0\n")


def test_lexicographic_head_of_enumeration():
    assert state_index(E, I, I, 0) == 0
    assert state_index(E, I, I, 1) == 1


def test_atom1_has_no_uninvolved_level():
    with pytest.raises(ConfigError):
        state_index(I, I, I, 0)


def test_photon_number_above_cutoff_rejected():
    with pytest.raises(ConfigError):
        state_index(E, I, I, 2)


@pytest.mark.parametrize("atom", [1, 2, 3])
def test_enumeration_lookup_round_trip(atom):
    # Every state looks up to its own position, and so does every state
    # reached by setting this atom to another of its levels.
    levels = (E, G) if atom == 1 else (I, G, E)
    for position, state in enumerate(BASIS):
        assert state_index(state.l1, state.l2, state.l3, state.n) == position
        for level in levels:
            moved = state._replace(**{f"l{atom}": level})
            assert BASIS[state_index(*moved)] == moved


@pytest.mark.parametrize("atom", [1, 2, 3])
def test_guard_is_top_layer_with_an_excited_atom(atom):
    expected = [
        i
        for i, s in enumerate(BASIS)
        if s.n == 1 and any(l is E for l in s.atom_levels())
    ]
    assert list(GUARD) == expected
    # This atom in E puts a one-photon state on the guard, never a vacuum one.
    for i, s in enumerate(BASIS):
        if s.atom_levels()[atom - 1] is E:
            assert (i in GUARD) == (s.n == 1)


def test_embedding_order_and_vacuum():
    embedding = computational_embedding()
    # The documented enumeration: qubit 1 most significant; bit 0/1 is E/G
    # on atom 1 and I/G on atoms 2 and 3.
    assert embedding == tuple(
        state_index((E, G)[b1], (I, G)[b2], (I, G)[b3], 0)
        for b1 in (0, 1)
        for b2 in (0, 1)
        for b3 in (0, 1)
    )
    assert len(set(embedding)) == 8
    assert embedding[0] == state_index(E, I, I, 0)
    assert embedding[7] == state_index(G, G, G, 0)
    for idx in embedding:
        assert BASIS[idx].n == 0


def test_last_logical_state_round_trips():
    idx = state_index(G, G, G, 0)
    assert BASIS[idx] == BasisState(G, G, G, 0)
    assert idx == computational_embedding()[7]


@pytest.mark.parametrize(
    "state,expected",
    [((E, I, I, 0), 1), ((G, G, G, 1), 1), ((G, I, I, 0), 0)],
)
def test_excitation_number(state, expected):
    assert excitation_number(state_index(*state)) == expected


def test_embedded_states_have_low_excitation():
    for idx in computational_embedding():
        assert excitation_number(idx) in (0, 1)


def test_cutoff_one_is_exact_for_logical_inputs(omega1c):
    # Excitation conservation: a logical input reaches at most four states,
    # none on the guard and none with more than one excitation, so no
    # coupling leads to the absent two-photon layer.
    for kappa_ratio in (0.0, 0.1, 3.9):
        h = build_effective_hamiltonian(CavityParams.designed(omega1c, kappa_ratio * omega1c))
        for pos in computational_embedding():
            sector = _reachable_sector(h, unit(pos))
            assert not set(sector.tolist()) & set(GUARD)
            assert len(sector) <= 4
            assert all(excitation_number(i) <= 1 for i in sector)


def test_pure_state_validates_length():
    # A state is a plain array: evolve takes one 1-D or 2-D state as wide as
    # its generator, and a search step one 8-vector.
    h = build_effective_hamiltonian(CavityParams.designed(1.0))
    with pytest.raises(ConfigError):
        evolve(h, 1.0, np.ones(5, dtype=complex))
    with pytest.raises(ConfigError):
        evolve(h, 1.0, np.ones((2, 3, len(BASIS)), dtype=complex))
    with pytest.raises(ConfigError):
        # The logical register is 8-dim.
        grover_step(np.ones(7, dtype=complex), "000", gate_operator(TEXTBOOK))
