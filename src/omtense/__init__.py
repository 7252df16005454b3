"""Tense operators over finite complete lattices.

Build finite (ortho)lattices from cover relations, evaluate the tense
operators P, F, H and G induced by a time frame, combine propositions with
the Sasaki connectives, recover time-preference relations from operator
quadruples, extend frames with synthetic past and future copies, and run
the whole body of laws as named verification suites with replayable
counterexamples. The omt command line exposes the same machinery.
"""

from .errors import (
    BudgetExceeded,
    CycleInCovers,
    EmptyRestriction,
    InvalidSpec,
    NoOrtho,
    NotAFailure,
    NotALattice,
    NotBounded,
    OmtError,
    OrthoViolation,
    ParseError,
    TabulatedMiss,
    TooBigForMemory,
    UnknownDemo,
    UnknownTimePoint,
)
from .frames import TimeFrame, parse_frame, restrict
from .lattice import (
    LatticeSpec,
    Oml,
    build_lattice,
    check_orthomodular,
    de_morgan_witness,
    join_set,
    meet_set,
    orthomodular_witness,
    orthomodular_witness_dual,
    parse_lattice,
)
from .tense import (
    Composed,
    FrameInduced,
    IdentityElseConstant,
    OperatorQuadruple,
    Prop,
    Tabulated,
    TenseOperator,
    compose,
    format_prop,
    op_leq_counterexample,
    ops_equal,
    parse_props,
    partition_ranges,
    proposition_block,
    proposition_count,
    resolve_budget,
    sampled_block,
)
from .sasaki import (
    connective_tables,
    sasaki_and,
    sasaki_imp,
)
from .laws import Law, check_law
from .induction import (
    Classification,
    InducedRelationReport,
    check_star_inequalities,
    classify_inducibility,
    induce_R1,
    induce_R2,
    induce_R3,
    roundtrip_frame,
)
from .extension import (
    ExtendedFrame,
    check_extension_HG,
    check_extension_PF,
    extend_frame,
    extend_prop,
)
from .report import LawResult, VerifyReport, Witness
from .verify import (
    Instance,
    SUITE_IDS,
    replay_witness,
    run_all,
    run_suite,
)

__version__ = "0.1.0"
