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
    NameCollision,
    NoOrtho,
    NotAFailure,
    NotALattice,
    NotBounded,
    NotOrthomodular,
    OmtError,
    OrthoViolation,
    ParseError,
    TabulatedMiss,
    UnknownDemo,
    UnknownTimePoint,
)
from .frames import TimeFrame, parse_frame, format_frame, restrict
from .lattice import (
    LatticeSpec,
    Oml,
    build_lattice,
    check_orthomodular,
    complement,
    de_morgan_witness,
    format_lattice,
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
    apply,
    compose,
    eval_F,
    eval_G,
    eval_H,
    eval_P,
    format_prop,
    identity_operator,
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
    prop_sasaki_and,
    prop_sasaki_imp,
    sasaki_and,
    sasaki_imp,
)
from .laws import Law, check_law
from .induction import (
    Classification,
    InducedRelationReport,
    check_star_inequalities,
    classify_inducibility,
    indicator_proposition,
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
    extend_prop_HG,
    extend_prop_PF,
)
from .report import LawResult, VerifyReport, Witness
from .verify import (
    Instance,
    SUITE_IDS,
    check_thm6_equivalence,
    replay_witness,
    run_all,
    run_suite,
)

__version__ = "0.1.0"
