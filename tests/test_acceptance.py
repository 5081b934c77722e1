"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.

Two criteria needed a closer look against the full-dynamics oracles:

* criterion 8c (an atom-1 overrun degrades the gate) is stated around the
  first-step dip. On the default 50-point delay grid the infidelity falls
  once, on the first step (-1.4e-8 at kappa = w1/50, -1.1e-7 at
  kappa = w1/10), and rises on every later step. ``timing_oracle_dense`` shows
  the same dip (-1.3e-8 and -1.2e-7), with its minimum near 0.0013-0.0017
  gate times, below the first grid step of 0.00204. It is physics, not a
  fault of the closed form: the |001⟩ cross term is linear in the delay
  and pulls gamma (about 0.9986) toward the mean of the diagonal (about
  0.990), which the normalized fidelity rewards (criterion 8b pins that
  normalization cost at 6.3e-4), while the atom-1 return amplitude xi is
  1 - O(dt^2) and only dominates after the first step. So 8c checks that
  every later step rises, that the last point lies above the first, and
  that the first step matches the oracle's first step.
* criterion 9c (the four-gate search gets worse as more cavities carry an
  atom-1 offset) fails, and the fault is in the program. At eta = +0.05
  ``coupling_offset_infidelity`` falls with chi (0.0083388 -> 0.0083317),
  while the product of four ``extract_gate`` gates at the design gate time,
  chi of them at the offset couplings, rises (0.008745, 0.009155, 0.009572,
  0.009994), and rises at eta = -0.05 too. The closed form takes its
  weights from the offset couplings but its Rabi phases from the design
  couplings, so it drops the error of Rabi cycles that no longer close.
  Correcting that breaks criterion 9b (uniform-offset invariance), so the
  choice between the two models is left open and 9c keeps failing
  unchanged; ``tests/test_imperfections.py`` holds the dynamical evidence.
"""

import math
import time

import numpy as np
import pytest

from cavity_grover import (
    TEXTBOOK,
    coupling_offset_infidelity,
    decayed_i000,
    extract_gate,
    gate_time,
    grover_step,
    hadamard3,
    positions_for_ratio,
    residual_gate_entry,
    run_search,
    timing_infidelity,
    timing_oracle_dense,
)
from cavity_grover.dynamics import (
    build_effective_hamiltonian,
    decay_shifted_frequency,
    evolve,
    exchange_hamiltonian,
)
from cavity_grover.hilbert import BASIS, computational_embedding
from reference import (
    closed_form_probability,
    compose,
    diffusion,
    excitation_number,
    gate_operator,
    initial_state,
    logical_columns,
    phase_gate_success,
    rk4,
    squared_norm,
    unit,
)

ALL_TAUS = [format(v, "03b") for v in range(8)]


def _check(label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_01_residual_gate_entry(params_lossless):
    start = time.perf_counter()
    gamma0 = residual_gate_entry(params_lossless)
    elapsed = time.perf_counter() - start
    _check(
        "criterion 1: lossless |001> entry = 0.9997 +/- 5e-5, under 1 ms",
        abs(gamma0 - 0.9997) <= 5e-5 and elapsed < 1e-3,
        f"value={gamma0:.6f}, runtime={elapsed * 1e3:.3f} ms",
    )


def test_02_dynamical_gate_oracle(params_lossless, params_strong_decay):
    start = time.perf_counter()
    lossless = extract_gate([params_lossless], [gate_time(params_lossless)])
    diag = lossless.restricted[0].diagonal()
    expected = np.ones(8, dtype=complex)
    expected[0] = -1.0
    expected[1] = residual_gate_entry(params_lossless)
    diag_err = float(np.abs(diag - expected).max())
    off = lossless.restricted[0] - np.diag(diag)
    off_err = float(np.abs(np.delete(off, 1, axis=1)).max())

    decayed = extract_gate([params_strong_decay], [gate_time(params_strong_decay)])
    analytic = gate_operator(decayed_i000(params_strong_decay)).diagonal()
    decay_err = float(np.abs(decayed.restricted[0].diagonal() - analytic).max())
    elapsed = time.perf_counter() - start
    _check(
        "criterion 2: simulated gate matches closed forms",
        diag_err <= 1e-6 and off_err <= 1e-6 and decay_err <= 1e-3 and elapsed < 1.0,
        f"lossless diag err={diag_err:.2e}, off-diag={off_err:.2e}, "
        f"decayed err={decay_err:.2e}, runtime={elapsed:.2f} s",
    )


def test_03_ideal_search_closed_form(params_lossless):
    # run_search advances the |000⟩ register; every marked state runs
    # through the public per-state step.
    p_find = run_search(12, [TEXTBOOK]).p_find[0]
    worst = max(abs(p - closed_form_probability(k)) for k, p in enumerate(p_find, start=1))
    for tau in ALL_TAUS:
        state = initial_state()
        for k in range(1, 13):
            state = grover_step(state, tau, gate_operator(TEXTBOOK))
            p = abs(state[int(tau, 2)]) ** 2
            worst = max(worst, abs(p - closed_form_probability(k)))
    p2, p6 = p_find[1], p_find[5]
    _check(
        "criterion 3: exact-gate search equals sin^2((2k+1)asin(1/sqrt 8))",
        worst <= 1e-12
        and abs(p2 - 121.0 / 128.0) <= 1e-12
        and abs(p6 - 0.9998) <= 1e-4,
        f"max closed-form gap={worst:.2e}, p(2)={p2:.7f}, p(6)={p6:.6f}",
    )


def test_04_decay_optimal_iteration(params_strong_decay):
    start = time.perf_counter()
    p_find = run_search(8, [decayed_i000(params_strong_decay)]).p_find[0]
    best = int(p_find.argmax()) + 1
    elapsed = time.perf_counter() - start
    _check(
        "criterion 4: with kappa = omega1/10 the second iteration wins",
        best == 2 and elapsed < 1.0,
        f"argmax k={best}, p={p_find[best - 1]:.4f}, runtime={elapsed:.2f} s",
    )


def test_05_phase_gate_success(params_weak_decay, params_strong_decay):
    strong = phase_gate_success(np.ones(8), decayed_i000(params_strong_decay))
    weak = phase_gate_success(np.ones(8), decayed_i000(params_weak_decay))
    _check(
        "criterion 5: uniform-input gate success probabilities",
        abs(strong - 0.9808) <= 2e-4 and abs(weak - 0.9958) <= 2e-4,
        f"kappa=w1/10: {strong:.5f}, kappa=w1/50: {weak:.5f}",
    )


def test_06_iteration_time(params_lossless):
    iteration_us = 2.0 * gate_time(params_lossless) * 1e6
    _check(
        "criterion 6: one iteration (two gates) takes 163 +/- 5 us",
        abs(iteration_us - 163.0) <= 5.0,
        f"{iteration_us:.2f} us at omega1 = 2*pi*6.125 kHz",
    )


def test_07_geometry_ratio():
    z1, z2, _ = positions_for_ratio(1.0)
    ratio = abs(z1) / abs(z2)
    _check(
        "criterion 7: crossing-offset ratio |z1|/|z2| = 1.957 +/- 0.001",
        abs(ratio - 1.957) <= 1e-3,
        f"ratio={ratio:.5f}",
    )


def test_08a_timing_baseline_lossless(params_lossless):
    value = timing_infidelity([params_lossless], [0.0])[0, 0]
    _check(
        "criterion 8a: zero-delay lossless timing infidelity <= 1e-6",
        value <= 1e-6,
        f"value={value:.2e}",
    )


def test_08b_timing_baseline_strong_decay(params_strong_decay):
    value = timing_infidelity([params_strong_decay], [0.0])[0, 0]
    _check(
        "criterion 8b: zero-delay infidelity = 6.3e-4 +/- 1e-4 at kappa=w1/10",
        abs(value - 6.3e-4) <= 1e-4,
        f"value={value:.3e}",
    )


def test_08c_timing_monotone_on_default_grid(params_weak_decay, params_strong_decay):
    # The overrun must degrade the gate. The first grid step is the one
    # exception: there the infidelity dips by ~1e-8..1e-7, and the full
    # dynamics dip by the same amount (see module docstring), so that step
    # is checked against ``timing_oracle_dense`` at 8d's relative tolerance.
    failures, details = [], []
    grid = np.linspace(0.0, 0.1, 50)
    for params in (params_weak_decay, params_strong_decay):
        label = f"kappa/w1={params.kappa / params.omega[0]:.2f}"
        values = [timing_infidelity([params], [float(f)])[0, 0] for f in grid]
        drops = [b - a for a, b in zip(values[1:], values[2:]) if b < a]
        if drops:
            failures.append(f"{label}: drop after the first step {min(drops):.2e}")
        if not values[-1] > values[0]:
            failures.append(f"{label}: last {values[-1]:.3e} <= first {values[0]:.3e}")
        first_step = values[1] - values[0]
        oracle_step = timing_oracle_dense(params, float(grid[1])) - timing_oracle_dense(params, 0.0)
        gap = abs(first_step - oracle_step)
        if not gap <= 0.2 * abs(oracle_step):
            failures.append(
                f"{label}: first step {first_step:.3e} vs oracle {oracle_step:.3e}"
            )
        details.append(
            f"{label}: first step {first_step:.2e} (oracle {oracle_step:.2e}, "
            f"gap {gap / abs(oracle_step):.0%}), last {values[-1]:.2e}"
        )
    _check(
        "criterion 8c: timing infidelity rises after the first grid step, "
        "whose dip matches the oracle",
        not failures,
        "; ".join(failures or details),
    )


def test_08d_formula_vs_oracle(params_weak_decay, params_strong_decay):
    worst_rel, worst_abs = 0.0, 0.0
    ok = True
    for params in (params_weak_decay, params_strong_decay):
        a1 = decay_shifted_frequency(params.omega[0], params.kappa)
        for scaled_delay in (0.025, 0.05, 0.075, 0.1):
            frac = scaled_delay / a1 / gate_time(params)
            formula = timing_infidelity([params], [frac])[0, 0]
            oracle = timing_oracle_dense(params, frac)
            gap = abs(formula - oracle)
            ok = ok and gap <= max(0.2 * abs(oracle), 1e-4)
            worst_abs = max(worst_abs, gap)
            if oracle:
                worst_rel = max(worst_rel, gap / abs(oracle))
    _check(
        "criterion 8d: closed form tracks the dynamical oracle for small delays",
        ok,
        f"worst |gap|={worst_abs:.2e}, worst relative={worst_rel:.2%}",
    )


def test_09a_offset_baseline(params_strong_decay):
    values = [
        coupling_offset_infidelity(params_strong_decay, [chi], [0.0])[0, 0]
        for chi in (1, 2, 3, 4)
    ]
    _check(
        "criterion 9a: eta=0 four-gate baseline = 0.0083 +/- 5e-4, chi-independent",
        all(abs(v - 0.0083) <= 5e-4 for v in values)
        and max(values) - min(values) <= 1e-12,
        f"values={[f'{v:.5f}' for v in values]}",
    )


def test_09b_uniform_offset_invariance(params_strong_decay):
    baseline = coupling_offset_infidelity(params_strong_decay, [2], [0.0], "uniform")[0, 0]
    worst = max(
        abs(
            coupling_offset_infidelity(params_strong_decay, [2], [eta], "uniform")[0, 0]
            - baseline
        )
        for eta in (0.01, 0.05, 0.1, -0.1)
    )
    _check(
        "criterion 9b: uniform offsets leave the infidelity exactly unchanged",
        worst <= 1e-15,
        f"max deviation={worst:.2e}",
    )


def test_09c_offset_ordering_in_cavity_count(params_strong_decay):
    # Known to fail, and the program is at fault: the closed form falls with
    # chi at eta = 0.05 while the design-time four-gate dynamics rise (see
    # module docstring and tests/test_imperfections.py). Fixing the closed
    # form breaks criterion 9b, so the assertion stays as stated.
    values = [
        coupling_offset_infidelity(params_strong_decay, [chi], [0.05])[0, 0]
        for chi in (1, 2, 3, 4)
    ]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    _check(
        "criterion 9c: atom-1 offset infidelity strictly increasing in chi at eta=0.05",
        increasing,
        f"values={[f'{v:.8f}' for v in values]}",
    )


def test_10_property_suite(params_lossless, params_strong_decay):
    h = exchange_hamiltonian(params_strong_decay.omega)
    hermitian = float(np.abs(h - h.conj().T).max()) <= 1e-15

    h0 = exchange_hamiltonian(params_lossless.omega)
    t = gate_time(params_lossless)
    conserved, unitary = True, True
    for pos in computational_embedding():
        out = evolve(h0, t, unit(pos))
        block = excitation_number(pos)
        outside = [
            i for i in range(len(BASIS)) if excitation_number(i) != block
        ]
        conserved = conserved and float(np.abs(out[outside]).max()) < 1e-12
        unitary = unitary and abs(squared_norm(out) - 1.0) <= 1e-10

    h_eff = build_effective_hamiltonian(params_strong_decay)
    psi = unit(computational_embedding()[0])
    norms = [
        squared_norm(evolve(h_eff, ti, psi))
        for ti in np.linspace(0.0, gate_time(params_strong_decay), 110)
    ]
    monotone = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    h3 = hadamard3()
    involutive = float(np.abs(compose(h3, h3) - np.eye(8)).max()) <= 1e-12
    sandwich = -compose(h3, gate_operator(TEXTBOOK), h3)
    diffusion_ok = float(np.abs(sandwich - diffusion()).max()) <= 1e-12

    agreement = 0.0
    t_decay = gate_time(params_strong_decay)
    integrated = rk4(h_eff, t_decay, logical_columns(), 4096)  # the whole space, all columns
    for col, pos in enumerate(computational_embedding()):
        a = evolve(h_eff, t_decay, unit(pos))
        agreement = max(agreement, float(np.abs(a - integrated[:, col]).max()))
    methods_agree = agreement <= 1e-8

    _check(
        "criterion 10: property suite",
        hermitian and conserved and unitary and monotone and involutive
        and diffusion_ok and methods_agree,
        f"hermitian={hermitian}, conservation={conserved}, unitarity={unitary}, "
        f"norm-monotone={monotone}, involution={involutive}, diffusion={diffusion_ok}, "
        f"method gap={agreement:.2e}",
    )


def test_parameters_match_reference_point(params_lossless):
    # Guard: the fixtures really are at omega1 = 2*pi*6.125 kHz = omega0/8.
    assert params_lossless.omega[0] == pytest.approx(2.0 * math.pi * 6.125e3, rel=1e-15)
    assert params_lossless.omega[2] == pytest.approx(2.0 * math.pi * 49e3, rel=1e-12)
