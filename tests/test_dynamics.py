import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavity_grover import (
    AtomLevel,
    CavityParams,
    ConfigError,
    CutoffError,
    ExperimentConfig,
    NumericalError,
    build_effective_hamiltonian,
    computational_embedding,
    evolve,
    extract_gate,
    gate_time,
    decayed_i000,
    positions_for_ratio,
)
from cavity_grover import dynamics, imperfections
from cavity_grover.dynamics import (
    DESIGNED_RATIOS,
    TOP_LAYER_TOLERANCE,
    add_cavity_decay,
    block_propagator,
    evolve_logical_basis,
    exchange_hamiltonian,
    expm,
)
from cavity_grover.experiments import EXPERIMENTS
from cavity_grover.gates import _bright_columns, _gate_columns, exact_columns, full_diagonal
from cavity_grover.hilbert import BASIS, GUARD, BasisState
from reference import (
    block_columns,
    coupling_at_position,
    excitation_number,
    logical_columns,
    rk4,
    rk4_gate,
    squared_norm,
    state_index,
    unit,
)

E, G, I = AtomLevel.E, AtomLevel.G, AtomLevel.I

# --- parameter validation ----------------------------------------------


def test_params_reject_overdamped_decay(omega1c):
    with pytest.raises(ConfigError):
        CavityParams.designed(omega1c, kappa=4.0 * omega1c)


@pytest.mark.parametrize(
    "kappa, shown",
    [([0.1, 4.5, -1.0], "4.5"), ((0.0, math.nan), "nan"), (np.array([5, 1]), "5.0"), (4, "4")],
)
def test_check_kappa_names_the_first_bad_rate(kappa, shown):
    # An axis names its first bad rate, as a float; one rate is shown as given.
    # The error carries no row: only a NumericalError names a stack row.
    rule = r" outside \[0, 4\*omega1=4.0\): "
    with pytest.raises(ConfigError, match=f"^kappa={shown}{rule}") as raised:
        dynamics.check_kappa(kappa)
    assert not hasattr(raised.value, "row")


def test_params_reject_nonpositive_couplings(omega1c):
    with pytest.raises(ConfigError):
        CavityParams(omega=(omega1c, 0.0, omega1c))


def test_designed_ratio_helper(omega1c, params_lossless):
    w1, w2, w3 = params_lossless.omega
    assert w1 == omega1c
    assert w2 / w1 == pytest.approx(math.sqrt(35.0), rel=1e-12)
    assert w3 / w1 == pytest.approx(8.0, rel=1e-12)


# --- Hamiltonian structure ----------------------------------------------


def test_single_excitation_matrix_element(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    src = state_index(E, I, I, 0)
    dst = state_index(G, I, I, 1)
    assert h[dst, src] == pytest.approx(params_lossless.omega[0], rel=1e-15)


def test_no_diagonal_terms(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    assert np.abs(np.diag(h)).max() == 0.0


def test_uninvolved_level_never_couples(params_lossless):
    # An atom parked in I must keep that level through every matrix element.
    h = exchange_hamiltonian(params_lossless.omega)
    rows, cols = np.nonzero(h)
    for i, j in zip(rows, cols):
        a, b = BASIS[i], BASIS[j]
        assert (a.l2 is I) == (b.l2 is I)
        assert (a.l3 is I) == (b.l3 is I)


def test_hermiticity(params_strong_decay):
    h = exchange_hamiltonian(params_strong_decay.omega)
    assert np.abs(h - h.conj().T).max() <= 1e-15


def test_effective_hamiltonian_reduces_at_zero_decay(params_lossless):
    assert np.array_equal(
        build_effective_hamiltonian(params_lossless),
        exchange_hamiltonian(params_lossless.omega),
    )


def test_effective_hamiltonian_decay_diagonal(params_strong_decay):
    h = build_effective_hamiltonian(params_strong_decay)
    one_photon = state_index(G, I, I, 1)
    vacuum = state_index(G, G, G, 0)
    assert h[one_photon, one_photon] == pytest.approx(
        -0.5j * params_strong_decay.kappa, rel=1e-15
    )
    assert h[vacuum, vacuum] == 0.0


# --- loop reference for the dense chain -----------------------------------
# The dense engine as first written: the Hamiltonian by a loop over BASIS, the
# sector block by np.ix_ and the Padé approximant on every block, zero blocks
# included. dynamics must reproduce it bit for bit.


def _loop_exchange_hamiltonian(omega):
    h = np.zeros((len(BASIS), len(BASIS)), dtype=complex)
    for i, state in enumerate(BASIS):
        levels = list(state.atom_levels())
        for j in range(3):
            if levels[j] is E and state.n == 0:
                lowered = levels.copy()
                lowered[j] = G
                k = BASIS.index(BasisState(*lowered, 1))
                h[k, i] += omega[j]
                h[i, k] += omega[j]
    return h


def _loop_add_cavity_decay(h, kappa):
    for i, state in enumerate(BASIS):
        if state.n:
            h[i, i] += -0.5j * kappa
    return h


def _pade_expm(a):
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    s = math.ceil(math.log2(norm / dynamics._THETA13)) if norm > dynamics._THETA13 else 0
    a = a * 2.0**-s
    b = dynamics._PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def _reference_gate(params, t):
    h = _loop_add_cavity_decay(_loop_exchange_hamiltonian(params.omega), params.kappa)
    embedding = list(computational_embedding())
    matrix, leakage = np.zeros((8, 8), dtype=complex), np.zeros(8)
    for col, pos in enumerate(embedding):
        psi = np.zeros(len(BASIS), dtype=complex)
        psi[pos] = 1.0
        sector = dynamics._reachable_sector(h, psi)
        final = np.zeros(len(BASIS), dtype=complex)
        final[sector] = _pade_expm(-1j * h[np.ix_(sector, sector)] * t) @ psi[sector]
        matrix[:, col] = final[embedding]
        leakage[col] = float(np.vdot(final, final).real) - float(
            np.sum(np.abs(final[embedding]) ** 2)
        )
    return matrix, leakage


_COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(omega=st.tuples(_COUPLING, _COUPLING, _COUPLING), kappa=st.floats(0.0, 4e6))
def test_hamiltonian_matches_the_loop_reference(omega, kappa):
    # Every entry holds one term, so the indexed build has the loop's bits.
    h = exchange_hamiltonian(omega)
    assert h.tobytes() == _loop_exchange_hamiltonian(omega).tobytes()
    reference = _loop_add_cavity_decay(_loop_exchange_hamiltonian(omega), kappa)
    assert add_cavity_decay(h, kappa).tobytes() == reference.tobytes()


# --- evolution ------------------------------------------------------------


def test_evolve_zero_time_is_identity(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    psi = unit(computational_embedding()[3])
    out = evolve(h, 0.0, psi)
    assert np.abs(out - psi).max() <= 1e-15


def test_two_state_rabi_full_cycle(params_lossless):
    # |e1 i2 i3, 0> exchanges with |g1 i2 i3, 1> at the bare atom-1 rate:
    # after half a period the state returns with amplitude -1.
    h = exchange_hamiltonian(params_lossless.omega)
    start = state_index(E, I, I, 0)
    out = evolve(h, math.pi / params_lossless.omega[0], unit(start))
    assert abs(out[start] - (-1.0)) <= 1e-9


def test_three_atom_block_closes_cycle(params_lossless):
    # |e1 g2 g3, 0> cycles at sqrt(1+35+64) = 10x the atom-1 rate, so one
    # gate time holds five full periods: amplitude returns to +1.
    h = exchange_hamiltonian(params_lossless.omega)
    start = state_index(E, G, G, 0)
    out = evolve(h, math.pi / params_lossless.omega[0], unit(start))
    assert abs(out[start] - 1.0) <= 1e-9


def test_evolve_rejects_negative_time(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    with pytest.raises(ConfigError):
        evolve(h, -1.0, unit(0))


def test_evolve_rejects_dimension_mismatch(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    with pytest.raises(ConfigError):
        evolve(h[:10, :10], 1.0, unit(0))


# --- matrix exponential ----------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kappa_ratio=st.floats(0.0, 3.99, exclude_max=True),
    frac=st.floats(0.0, 1.0),
    atom1_only=st.booleans(),
)
def test_expm_matches_scipy_on_the_generators(omega1c, kappa_ratio, frac, atom1_only):
    # The full no-jump generator, or the atom-1-only one the timing oracle
    # uses once atoms 2 and 3 have left, over up to one gate time.
    params = CavityParams.designed(omega1c, kappa_ratio * omega1c)
    if atom1_only:
        h = add_cavity_decay(exchange_hamiltonian((params.omega[0], 0.0, 0.0)), params.kappa)
    else:
        h = build_effective_hamiltonian(params)
    a = -1j * h * (frac * gate_time(params))
    assert np.abs(expm(a) - scipy.linalg.expm(a)).max() <= 1e-12


def test_expm_of_zero_is_exactly_identity():
    # The norm-0 shortcut returns what the approximant would, dtype included.
    for dim in (0, 1, 4, 36, 72):
        for dtype in (complex, float, np.complex64):
            zero = np.zeros((dim, dim), dtype=dtype)
            result = expm(zero)
            assert result.dtype == dtype and np.array_equal(result, np.eye(dim))
            assert result.tobytes() == _pade_expm(zero).tobytes()


def test_expm_of_a_stack_has_the_bits_of_each_matrix():
    # A zero matrix, one below theta_13 (no squaring) and members needing
    # 1, 3 and 8 squarings: each gets its own s and keeps its bits.
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    base /= np.abs(base).sum(axis=0).max()  # 1-norm 1
    stack = np.stack([0.0 * base, 2.0 * base, 9.0 * base, 40.0 * base, 700.0 * base])
    result = expm(stack)
    assert np.array_equal(result[0], np.eye(4))
    for member, out in zip(stack, result):
        assert np.array_equal(out, expm(member))
    assert np.array_equal(expm(stack[:1] * 0.0), np.eye(4)[None])
    assert expm(np.zeros((3, 0, 0))).shape == (3, 0, 0)


def test_evolve_rejects_nan_generator(params_strong_decay):
    h = build_effective_hamiltonian(params_strong_decay)
    h[0, 1] = np.nan
    psi = unit(computational_embedding()[0])
    t = gate_time(params_strong_decay)
    with pytest.raises(NumericalError) as raised:
        evolve(h, t, psi)
    assert raised.value.row is None  # one generator: no stack row
    # In a (3, d, d) stack the first bad generator is named, wherever it sits;
    # a later bad one does not move it.
    for row in range(3):
        stack = np.stack([build_effective_hamiltonian(params_strong_decay)] * 3)
        stack[row, 5, 2] = np.inf
        stack[2, 0, 1] = np.nan
        with pytest.raises(NumericalError, match="^generator has non-finite entries$") as raised:
            evolve(stack, [t] * 3, psi)
        assert raised.value.row == row


# Runs each experiment at its defaults through the CLI, in one interpreter,
# and prints after each run the modules of the three that are loaded: the
# first run that loads one is named.
_IMPORT_PROBE = """
import sys
from cavity_grover.cli import main
from cavity_grover.experiments import EXPERIMENTS

for exp in EXPERIMENTS:
    assert main([exp, "--out", f"{sys.argv[1]}/{exp}.csv"]) == 0
    print(exp, sorted({"scipy", "logging", "concurrent.futures"} & set(sys.modules)))
"""


def test_cli_gate_run_loads_no_scipy(tmp_path):
    # The package needs numpy alone: no default run loads scipy (the tests'
    # reference for expm), logging or concurrent.futures.
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [f"{exp} []" for exp in EXPERIMENTS]
    assert all((tmp_path / f"{exp}.csv").exists() for exp in EXPERIMENTS)


def test_excitation_conservation(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    t = gate_time(params_lossless)
    for pos in computational_embedding():
        block = excitation_number(pos)
        out = evolve(h, t, unit(pos))
        outside = [
            i for i in range(len(BASIS)) if excitation_number(i) != block
        ]
        assert np.abs(out[outside]).max() < 1e-12


def test_unitarity_without_decay(params_lossless):
    h = exchange_hamiltonian(params_lossless.omega)
    psi = unit(computational_embedding()[3])
    for t_factor in (0.5, 1.0, 5.0, 10.0):
        out = evolve(h, t_factor * gate_time(params_lossless), psi)
        assert abs(squared_norm(out) - 1.0) <= 1e-10


def test_norm_monotone_under_decay(params_strong_decay):
    h = build_effective_hamiltonian(params_strong_decay)
    t = gate_time(params_strong_decay)
    samples = np.linspace(0.0, t, 120)
    psi = unit(computational_embedding()[0])
    norms = [squared_norm(evolve(h, ti, psi)) for ti in samples]
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)


def test_methods_agree_on_all_logical_inputs(params_strong_decay):
    # RK4 on the whole space, every logical column at once, against the
    # matrix exponential on each column's reachable sector.
    h = build_effective_hamiltonian(params_strong_decay)
    t = gate_time(params_strong_decay)
    integrated = rk4(h, t, logical_columns(), 4096)
    for col, pos in enumerate(computational_embedding()):
        reference = evolve(h, t, unit(pos))
        assert np.abs(reference - integrated[:, col]).max() <= 1e-8


def test_truncation_guard_fires_for_over_excited_input(params_lossless):
    # A one-photon state with an excited atom couples to the absent
    # two-photon layer: the run must abort instead of silently evolving truncated dynamics.
    h = exchange_hamiltonian(params_lossless.omega)
    start = state_index(E, G, G, 1)
    t = gate_time(params_lossless)
    with pytest.raises(CutoffError) as raised:
        evolve(h, t, unit(start))
    assert raised.value.row is None
    single = float(str(raised.value).split()[1])  # "amplitude <worst> on ..."
    assert single > 1e-10
    # In a stack, one over-excited member is enough, and it is the row named:
    # first, middle or last of three. The message gives that row's worst
    # amplitude, as a one-state call does.
    logical = unit(computational_embedding()[0])
    triple = np.stack([h, h, h])
    evolve(triple, [t] * 3, np.stack([logical] * 3))
    for row in range(3):
        states = np.stack([logical] * 3)
        states[row] = unit(start)
        with pytest.raises(CutoffError) as raised:
            evolve(triple, [t] * 3, states)
        assert raised.value.row == row
        assert float(str(raised.value).split()[1]) == single


def test_evolve_on_a_stack_has_the_bits_of_single_calls(omega1c):
    stack = [CavityParams.designed(omega1c, r * omega1c) for r in (0.0, 0.3, 3.9)]
    h = np.stack([build_effective_hamiltonian(p) for p in stack])
    times = [gate_time(p) for p in stack]
    for pos in computational_embedding():
        rows = evolve(h, times, unit(pos))
        assert rows.shape == (3, len(BASIS))
        for member, t, row in zip(h, times, rows):
            single = evolve(member, t, unit(pos))
            assert row.tobytes() == single.tobytes()


def test_evolve_rejects_times_that_do_not_match_the_stack(params_lossless):
    h = np.stack([build_effective_hamiltonian(params_lossless)] * 2)
    psi = unit(computational_embedding()[0])
    for t in (1e-6, [1e-6], [1e-6] * 3):
        with pytest.raises(ConfigError):
            evolve(h, t, psi)
    with pytest.raises(ConfigError):
        evolve(h, [1e-6, -1e-6], psi)


def test_evolve_rejects_a_state_stack_that_does_not_match_the_operator_stack(omega1c):
    # A (K, d, d) stack takes one state, a (1, d) stack or K states; any other
    # count is named with both shapes before any work. One (d, d) generator
    # takes a stack of any count.
    stack = [CavityParams.designed(omega1c, r * omega1c) for r in (0.0, 0.3, 3.9)]
    h = np.stack([build_effective_hamiltonian(p) for p in stack])
    times = [gate_time(p) for p in stack]
    logical = np.eye(len(BASIS))[list(computational_embedding())]
    for count in (2, 4):
        with pytest.raises(ConfigError, match=r"\(3, 36, 36\).*\(%d, 36\)" % count):
            evolve(h, times, logical[:count])
    assert evolve(h, times, logical[:1]).shape == evolve(h, times, logical[:3]).shape == (3, 36)
    rows = evolve(h[1], times[1], logical[:2])
    for row, pos in zip(rows, computational_embedding()):
        assert np.abs(row - evolve(h[1], times[1], unit(pos))).max() <= 1e-12


# --- reachable sector --------------------------------------------------------


@st.composite
def _sparse_problems(draw):
    """A sparse complex generator, dimension 2-72, with Hermitian couplings
    or one-way edges, a decay diagonal, and a state on a random support."""
    dim = draw(st.integers(2, 72))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.random((dim, dim)) < draw(st.floats(0.2, 3.0)) / dim
    np.fill_diagonal(edges, False)
    h = np.where(edges, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 0.0)
    if draw(st.booleans()):
        h = np.triu(h + h.conj().T)
        h += np.triu(h, 1).conj().T
    decaying = rng.random(dim) < draw(st.floats(0.0, 1.0))
    h[np.diag_indices(dim)] -= 0.5j * np.where(decaying, rng.random(dim), 0.0)
    support = rng.random(dim) < draw(st.floats(0.0, 0.3))
    support[rng.integers(dim)] = True
    psi = np.where(support, rng.normal(size=dim) + 1j * rng.normal(size=dim), 0.0)
    return h, psi, draw(st.floats(0.0, 2.0))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(problem=_sparse_problems())
def test_evolve_on_the_sector_matches_full_propagation(problem):
    h, psi, t = problem
    scale = 1e-12 * np.linalg.norm(psi)
    full = scipy.linalg.expm(-1j * h * t) @ psi
    if len(psi) == len(BASIS) and np.abs(full[list(GUARD)]).max() > TOP_LAYER_TOLERANCE:
        # A state as wide as BASIS is checked against its truncation guard.
        with pytest.raises(CutoffError):
            evolve(h, t, psi)
    else:
        assert np.abs(evolve(h, t, psi) - full).max() <= scale


def test_evolve_on_empty_and_full_supports():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    zero = evolve(h, 0.8, np.zeros(12))
    assert np.array_equal(zero, np.zeros(12))
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    scale = 1e-12 * np.linalg.norm(psi)
    full = evolve(h, 0.8, psi)
    assert np.abs(full - scipy.linalg.expm(-0.8j * h) @ psi).max() <= scale


def test_evolve_rejects_inf_outside_the_sector():
    # Position 0 reaches 1 only; the inf sits on an edge 2 -> 3 it never meets.
    h = np.zeros((4, 4), dtype=complex)
    h[1, 0] = h[0, 1] = 1.0
    h[3, 2] = np.inf
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericalError):
        evolve(h, 1.0, psi)


# --- gate extraction -------------------------------------------------------


def test_extracted_gate_lossless(params_lossless):
    restricted, leakage = extract_gate([params_lossless], [gate_time(params_lossless)])
    diag = restricted[0].diagonal()
    expected = np.ones(8)
    expected[0] = -1.0
    expected[1] = decayed_i000(0.0)[1]
    assert np.abs(diag - expected).max() <= 1e-6
    off = restricted[0] - np.diag(diag)
    off = np.delete(off, 1, axis=1)  # the |001> column carries the leakage
    assert np.abs(off).max() <= 1e-6
    assert leakage[0, 1] == pytest.approx(1.0 - decayed_i000(0.0)[1] ** 2, abs=1e-9)


def test_extracted_gate_under_decay_matches_closed_form(params_strong_decay):
    # Damped-diagonal values evaluated directly from the closed forms at
    # kappa = omega1/10.
    restricted, _ = extract_gate([params_strong_decay], [gate_time(params_strong_decay)])
    diag = restricted[0].diagonal()
    expected = np.array([-0.9244, 0.9986, 0.9979, 0.9992, 1.0, 1.0, 1.0, 1.0])
    assert np.abs(diag - expected).max() <= 1e-3


def test_extract_gate_honours_settings(params_strong_decay):
    # The full-space RK4 gate must agree with the matrix exponential, and
    # must differ from it in the last bits: equal outputs would mean the
    # reference did not integrate at all.
    t = gate_time(params_strong_decay)
    restricted, reference_leakage = extract_gate([params_strong_decay], [t])
    matrix, leakage = rk4_gate([params_strong_decay], [t], 1024)
    gap = np.abs(matrix - restricted).max()
    assert 0.0 < gap <= 1e-8
    assert np.abs(leakage - reference_leakage).max() <= 1e-8


@pytest.mark.parametrize(
    "kappa_ratio", [0.0, 0.1, 3.99, pytest.param((0.0, 0.1, 3.99), id="stacked")]
)
def test_extract_gate_has_the_loop_reference_bits(omega1c, kappa_ratio):
    # A tuple of ratios is one stacked call: each slice keeps the loop's bits.
    stack = [CavityParams.designed(omega1c, r * omega1c) for r in np.atleast_1d(kappa_ratio)]
    times = [gate_time(p) for p in stack]
    restricted, leakage = extract_gate(stack, times)
    matrices = restricted.reshape(-1, 8, 8)
    leakages = leakage.reshape(-1, 8)
    assert len(matrices) == len(stack)
    for params, t, got_matrix, got_leakage in zip(stack, times, matrices, leakages):
        matrix, leakage = _reference_gate(params, t)
        assert got_matrix.tobytes() == matrix.tobytes()
        assert got_leakage.tobytes() == leakage.tobytes()


_STACK_MEMBERS = st.lists(
    st.tuples(
        st.tuples(*[st.floats(0.05, 12.0)] * 3),
        st.floats(0.0, 4.0, exclude_max=True),  # kappa / omega1
        st.floats(0.0, 3.0),  # t
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(members=_STACK_MEMBERS)
@example(members=[(DESIGNED_RATIOS, 0.0, math.pi)])
@example(members=[(DESIGNED_RATIOS, 0.0, 1.0), ((0.05, 12.0, 12.0), 3.99, 2.0)])
def test_logical_basis_blocks_have_the_whole_space_bits(members):
    # Each logical column is propagated on the sector found once at import;
    # evolving on the whole 36-state space, kept here as the reference, gives
    # the same bits, and every fixed sector is the one the stack reaches.
    assume(all(ratio * omega[0] < 4.0 * omega[0] for omega, ratio, _ in members))
    stack = [CavityParams(omega, ratio * omega[0]) for omega, ratio, _ in members]
    times = [t for _, _, t in members]
    h = np.stack([build_effective_hamiltonian(p) for p in stack])
    whole = np.stack([evolve(h, times, unit(pos)) for pos in computational_embedding()], axis=-2)
    assert evolve_logical_basis(stack, times).tobytes() == whole.tobytes()
    assert [pos for pos, _ in dynamics._LOGICAL_SECTORS] == list(computational_embedding())
    for pos, sector in dynamics._LOGICAL_SECTORS:
        assert np.array_equal(sector, dynamics._reachable_sector(h, unit(pos)))


def test_extract_gate_needs_one_time_per_parameter_set(params_lossless):
    t = gate_time(params_lossless)
    for stack, times, match in (
        ([], [], "at least one set"),
        ([params_lossless] * 2, [t], r"\(2, 36, 36\) does not match \(1,\) times.*got \(36,\)"),
        ([params_lossless], [t, t], r"\(1, 36, 36\) does not match \(2,\) times"),
        ([params_lossless], t, r"\(1, 36, 36\) does not match \(\) times"),
    ):
        with pytest.raises(ConfigError, match=match):
            extract_gate(stack, times)


def _ratios(stack):
    return [p.kappa / p.omega[0] for p in stack]


# Each κ-sweep function on K parameter sets (the dense engine) or on their K
# decay rates kappa/omega1 (the closed forms), and the K-axis array it returns.
_KAPPA_SWEEPS = {
    "evolve_logical_basis": lambda s: evolve_logical_basis(s, [1.0] * len(s))[:, 0],
    "extract_gate": lambda s: extract_gate(s, [1.0] * len(s))[1],
    "exact_columns": lambda s: exact_columns(_ratios(s)),
    "paper_columns": lambda s: np.stack(_gate_columns(_ratios(s), False), axis=-2),
    "timing_infidelity": lambda s: imperfections.timing_infidelity(_ratios(s), [0.0]),
    "timing_oracle": lambda s: imperfections.timing_oracle(_ratios(s), [0.0]),
}


@pytest.mark.parametrize("name", sorted(_KAPPA_SWEEPS))
def test_kappa_sweeps_take_only_a_non_empty_sequence(name, params_strong_decay):
    # One convention: a leading K axis also for K = 1, and no empty stack.
    sweep = _KAPPA_SWEEPS[name]
    for count in (1, 3):
        assert len(sweep([params_strong_decay] * count)) == count
    with pytest.raises(ConfigError, match="at least one set"):
        sweep([])


def test_extracted_gate_short_time_is_identity(params_strong_decay):
    t = 1e-6 * gate_time(params_strong_decay)
    restricted, leakage = extract_gate([params_strong_decay], [t])
    assert np.abs(restricted[0] - np.eye(8)).max() <= 1e-9
    assert np.abs(leakage).max() <= 1e-9


def test_extract_gate_returns_read_only_arrays(params_strong_decay):
    restricted, leakage = extract_gate([params_strong_decay], [gate_time(params_strong_decay)])
    assert restricted.shape == (1, 8, 8) and restricted.dtype == complex
    assert leakage.shape == (1, 8) and leakage.dtype == float
    for array in (restricted, leakage):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


def test_gate_extract_names_the_first_column_over_one():
    # Column norm plus leakage above 1 is a numerical fault; a stack names
    # the first row where it happens, one gate no row.
    with pytest.raises(NumericalError, match="^column norm plus leakage exceeds 1$") as raised:
        dynamics._check_gate(np.eye(8), np.full(8, 0.5))
    assert raised.value.row is None
    for row in range(3):
        leakage = np.zeros((3, 8))
        leakage[row, 7] = 1e-8
        leakage[2, 0] = 0.5  # a later bad row does not move the name
        with pytest.raises(NumericalError) as raised:
            dynamics._check_gate(np.stack([np.eye(8)] * 3), leakage)
        assert raised.value.row == row
    dynamics._check_gate(np.stack([np.eye(8)] * 3), np.full((3, 8), 1e-10))


def test_gate_extract_rejects_nan_and_negative_leakage():
    # Leakage is a squared norm: NaN, -inf or a value below 0 by more than
    # the column-norm rule's 1e-9 is a numerical fault, named by its first row.
    rule = "leakage is NaN or below -1e-9"
    for bad in (-5.0, -2e-9, math.nan, -math.inf):
        with pytest.raises(NumericalError, match=f"^{rule}$") as raised:
            dynamics._check_gate(np.eye(8), np.full(8, bad))
        assert raised.value.row is None
    for row in range(2):
        leakage = np.zeros((2, 8))
        leakage[row, 3] = math.nan
        with pytest.raises(NumericalError, match=f"^{rule}$") as raised:
            dynamics._check_gate(np.stack([np.eye(8)] * 2), leakage)
        assert raised.value.row == row
    # Both rules: the first failing row is named, with the rule it breaks.
    for over_row, expected in [(0, "column norm plus leakage exceeds 1"), (1, rule)]:
        leakage = np.zeros((2, 8))
        leakage[over_row, 0], leakage[1 - over_row, 5] = 0.5, -1.0
        with pytest.raises(NumericalError, match=f"^{expected}$") as raised:
            dynamics._check_gate(np.stack([np.eye(8)] * 2), leakage)
        assert raised.value.row == 0
    # A NaN gate entry makes its column norm NaN, which fails the column-norm rule.
    gate = np.eye(8, dtype=complex)
    gate[2, 5] = math.nan
    with pytest.raises(NumericalError, match="^column norm plus leakage exceeds 1$"):
        dynamics._check_gate(gate, np.zeros(8))
    dynamics._check_gate(np.eye(8), np.full(8, -1e-9))


@pytest.mark.parametrize("shape", [(36,), (3, 36), (3, 5, 4)], ids=["state", "stack", "grid"])
def test_check_result_names_the_first_non_finite_row(shape):
    # One state vector has no row; a (K, d) stack of states, or the (K, D, 4)
    # timing amplitudes, name the first row along K holding a NaN or inf.
    amps = np.zeros(shape, dtype=complex)
    dynamics._check_result(amps)
    if len(shape) == 1:
        amps[3] = complex(0.0, np.nan)
        with pytest.raises(NumericalError, match="^evolution produced non-finite") as raised:
            dynamics._check_result(amps)
        assert raised.value.row is None
        return
    for row in range(3):
        amps = np.zeros(shape, dtype=complex)
        amps[row, ..., -1] = np.inf
        amps[2, ..., 0] = np.nan
        with pytest.raises(NumericalError) as raised:
            dynamics._check_result(amps)
        assert raised.value.row == row


def test_lossless_columns_account_for_all_population(params_lossless):
    # Without decay nothing is lost: column norm plus leakage is exactly 1.
    restricted, leakage = extract_gate([params_lossless], [gate_time(params_lossless)])
    column_norms = np.sum(np.abs(restricted[0]) ** 2, axis=0)
    assert np.abs(column_norms + leakage[0] - 1.0).max() <= 1e-9


def test_decay_columns_lose_population(params_strong_decay):
    restricted, leakage = extract_gate([params_strong_decay], [gate_time(params_strong_decay)])
    column_norms = np.sum(np.abs(restricted[0]) ** 2, axis=0)
    assert np.all(column_norms + leakage[0] <= 1.0 + 1e-9)
    assert column_norms[0] < 1.0  # the |000> column decays


def test_analytic_pair13_block_entry(params_lossless):
    # Closed form for the atoms-1+3 return amplitude after one gate time.
    w1, _, w3 = params_lossless.omega
    expected = (w3**2 + w1**2 * math.cos(math.sqrt(65.0) * math.pi)) / (w1**2 + w3**2)
    restricted, _ = extract_gate([params_lossless], [gate_time(params_lossless)])
    assert restricted[0].diagonal()[1].real == pytest.approx(expected, abs=1e-9)


# --- one-excitation blocks -------------------------------------------------

# Arbitrary coupling triples (not only 1 : sqrt(35) : 8), any underdamped
# decay rate, and up to two gate times.
_BLOCK_CASES = dict(
    ratios=st.tuples(*[st.floats(0.05, 12.0)] * 3),
    kappa_frac=st.floats(0.0, 1.0, exclude_max=True),
    frac=st.floats(0.0, 2.0),
)


def _block_params(omega1c, ratios, kappa_frac):
    omega = tuple(r * omega1c for r in ratios)
    return CavityParams(omega, kappa=kappa_frac * 4.0 * omega[0])


def _block_amplitudes(params, t):
    """Atom-1 and photon amplitudes of the four atom-1-in-E columns, and each
    column's squared norm: dark part 1 - s, bright atom s*|P00|^2, photon."""
    leaf1, photon = block_columns(params, t)
    share = np.array(_bright_columns(*params.omega)[1])
    bright_atom = leaf1 - (1.0 - share)  # s*P00
    norm = 1.0 - share + np.abs(bright_atom) ** 2 / share + np.abs(photon) ** 2
    return leaf1, photon, norm


# The largest kappa_ratio config load accepts, as kappa_frac = kappa/(4*w1):
# above it the paper envelope exp(-kappa*T/4) underflows and the gate is
# damped out. Toward kappa_frac = 1 the gate time, and with it the dense
# engine's rounding, grows without bound, far past 1e-12 at 1 - 2e-16.
_LOADED_KAPPA_FRAC = 3.9999644486497075 / 4.0


def test_the_block_edge_is_the_largest_loaded_ratio():
    ExperimentConfig(kappa_ratios=(4.0 * _LOADED_KAPPA_FRAC,))
    above = float(np.nextafter(4.0 * _LOADED_KAPPA_FRAC, 4.0))
    with pytest.raises(ConfigError, match=r": gate diagonal factor mu=-0.0 outside \(0, 1\]$"):
        ExperimentConfig(kappa_ratios=(above,))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**{**_BLOCK_CASES, "kappa_frac": st.floats(0.0, _LOADED_KAPPA_FRAC)})
@example(ratios=DESIGNED_RATIOS, kappa_frac=_LOADED_KAPPA_FRAC, frac=1.0)
# A weak atom 1 beside strong atoms 2 and 3: the widest W*t the domain holds.
@example(ratios=(0.05, 12.0, 12.0), kappa_frac=_LOADED_KAPPA_FRAC, frac=2.0)
@example(ratios=(0.052, 5.81, 10.63), kappa_frac=0.9999, frac=1.81)
def test_block_amplitudes_match_dense_evolution(omega1c, ratios, kappa_frac, frac):
    params = _block_params(omega1c, ratios, kappa_frac)
    t = frac * gate_time(params)
    embedding, finals = computational_embedding(), evolve_logical_basis([params], [t])[0]
    leaf1, photon, norm = _block_amplitudes(params, t)
    # The dense engine rounds like eps * W * t, W = |(w1, w2, w3)|: about
    # 5e5 eps (1e-10) at the weak-atom-1 edge, where the gaps reach 8e-12.
    tol = max(1e-12, np.finfo(float).eps * math.hypot(*params.omega) * t)
    for col, (l2, l3) in enumerate([(I, I), (I, G), (G, I), (G, G)]):
        amps = finals[col]
        assert abs(amps[embedding[col]] - leaf1[col]) <= tol
        assert abs(amps[state_index(G, l2, l3, 1)] - photon[col]) <= tol
        assert abs(squared_norm(finals[col]) - norm[col]) <= tol
    for col in range(4, 8):  # qubit 1 = G: no excitation, nothing moves
        assert np.array_equal(finals[col], unit(embedding[col]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kappa_frac=_BLOCK_CASES["kappa_frac"])
def test_exact_setting_is_the_block_model_at_the_gate_time(kappa_frac):
    # Underdamped decay at the designed couplings, in units of w1:
    # exact_columns is the block model of the test reference at the gate time.
    params = _block_params(1.0, DESIGNED_RATIOS, kappa_frac)
    at_gate = np.stack(block_columns(params, gate_time(params)))
    assert np.abs(exact_columns(params.kappa) - at_gate).max() <= 1e-15


def test_dense_gate_is_the_exact_block_gate():
    # The dense gate at its gate time is the block gate, over the decay range:
    # on the diagonal the exact atom-1 row, then ones (atom 1 in G, nothing
    # moves); as leakage the photon plus the atom-1-in-E remainder that the
    # bright state leaves outside its column, s(1 - s)|P00 - 1|^2; nothing
    # off the diagonal.
    ratios = np.linspace(0.0, 3.9, 25)
    stack = [CavityParams.designed(1.0, ratio) for ratio in ratios]
    times = np.array([gate_time(p) for p in stack])
    restricted, leakage = extract_gate(stack, times)
    atom1, photon = np.moveaxis(exact_columns(ratios), -2, 0)
    bright_sq, share = (np.array(x) for x in zip(*(_bright_columns(*p.omega) for p in stack)))
    p00 = block_propagator(np.sqrt(bright_sq), ratios[:, None], times[:, None])[..., 0, 0]
    block_leakage = np.abs(photon) ** 2 + share * (1.0 - share) * np.abs(p00 - 1.0) ** 2
    assert np.abs(restricted.diagonal(0, -2, -1) - full_diagonal(atom1)).max() <= 1e-14
    block_leakage = np.concatenate([block_leakage, np.zeros_like(block_leakage)], -1)
    assert np.abs(leakage - block_leakage).max() <= 1e-15
    assert not restricted[:, ~np.eye(8, dtype=bool)].any()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_BLOCK_CASES, later=st.floats(0.0, 1.0))
def test_block_norm_never_increases(omega1c, ratios, kappa_frac, frac, later):
    params = _block_params(omega1c, ratios, kappa_frac)
    t = frac * gate_time(params)
    _, _, norm = _block_amplitudes(params, t)
    _, _, norm_later = _block_amplitudes(params, t + later * gate_time(params))
    assert np.all(norm <= 1.0 + 1e-15) and np.all(norm_later <= norm + 1e-15)
    lossless = dataclasses.replace(params, kappa=0.0)
    assert np.abs(_block_amplitudes(lossless, t)[2] - 1.0).max() <= 1e-14


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kappa_frac=st.floats(0.0, 1.0, exclude_max=True), phase=st.floats(0.0, 40.0))
def test_block_propagator_is_the_two_level_exponential(omega1c, kappa_frac, phase):
    # Every entry, including the photon-to-photon one the timing grid never reads.
    kappa = kappa_frac * 4.0 * omega1c
    t = phase / omega1c
    h = np.array([[0.0, omega1c], [omega1c, -0.5j * kappa]])
    exact = scipy.linalg.expm(-1j * h * t)
    assert np.abs(block_propagator(omega1c, kappa, t) - exact).max() <= 1e-12


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
    z1, z2, z3 = positions_for_ratio(lam)
    assert abs(z1) / abs(z2) == pytest.approx(1.957, abs=1e-3)
    c1 = coupling_at_position(z1, omega0, lam)
    c2 = coupling_at_position(z2, omega0, lam)
    assert c2 / c1 == pytest.approx(math.sqrt(35.0), rel=1e-9)
    assert z3 == 0.0
    assert coupling_at_position(z3, omega0, lam) == omega0


def test_positions_on_first_lobe():
    z1, z2, _ = positions_for_ratio(1.0)
    assert 0.0 < z2 < z1 < 0.25
