"""Three-qubit Grover search in a decaying single-mode cavity.

Simulates three multilevel atoms resonantly coupled to one cavity mode:
analytic construction of the conditional phase gate the interaction
realizes, full-Hamiltonian validation of that gate, the iterated search it
drives (with photon loss on the no-jump branch), and closed-form error
budgets for atom-timing and coupling-offset imperfections.
"""

from . import _blas  # noqa: F401  (first: sets the BLAS thread count numpy loads with)
from .dynamics import (
    CavityParams,
    GateExtract,
    build_effective_hamiltonian,
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
    TEXTBOOK,
    decayed_i000,
    hadamard3,
    marked_gate,
    pauli_x,
    residual_gate_entry,
)
from .grover import (
    SearchGrid,
    grover_step,
    run_search,
)
from .hilbert import (
    AtomLevel,
    BasisState,
    build_basis,
    computational_embedding,
)
from .imperfections import (
    coupling_offset_infidelity,
    offset_couplings,
    timing_infidelity,
    timing_oracle,
    timing_oracle_dense,
)

__version__ = "0.1.0"
