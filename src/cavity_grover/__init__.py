"""Three-qubit Grover search in a decaying single-mode cavity.

Simulates three multilevel atoms resonantly coupled to one cavity mode:
analytic construction of the conditional phase gate the interaction
realizes, full-Hamiltonian validation of that gate, the iterated search it
drives (with photon loss on the no-jump branch), and closed-form error
budgets for atom-timing and coupling-offset imperfections.
"""

from .dynamics import (
    CavityParams,
    EvolutionMethod,
    EvolutionSettings,
    GateExtract,
    build_effective_hamiltonian,
    build_hamiltonian,
    coupling_at_position,
    evolve,
    extract_gate,
    gate_time,
    positions_for_ratio,
)
from .errors import ConfigError, CutoffError, NumericalError
from .experiments import (
    ExperimentConfig,
    SweepTable,
    parse_config,
    run_experiment,
    serialize_config,
    write_csv,
)
from .gates import (
    GateDiagonal,
    LogicalOperator,
    MarkedState,
    decayed_i000,
    diffusion,
    hadamard3,
    ideal_i000,
    marked_gate,
    pauli_x,
    residual_gate_entry,
)
from .grover import (
    GateVariant,
    SearchRecord,
    closed_form_probability,
    grover_step,
    initial_state,
    phase_gate_success,
    run_search,
)
from .hilbert import (
    AtomLevel,
    BasisState,
    ProductBasis,
    PureState,
    build_basis,
    computational_embedding,
    excitation_number,
    state_index,
)
from .imperfections import (
    OffsetScenario,
    TimingScenario,
    coupling_offset_infidelity,
    offset_couplings,
    timing_infidelity,
    timing_oracle,
)

__version__ = "0.1.0"
