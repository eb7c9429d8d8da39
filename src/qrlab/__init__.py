"""qrlab: exact quasirationality and permutation-module analysis of finite
group presentations.

The pipeline: parse a presentation, enumerate the group, build the relation
lattice inside the group ring, quotient it level by level along the
dimension-subgroup tower, decide quasirationality by divisor arithmetic,
and test each level module for (generalized) permutation structure with
verified certificates or exact refutations; analyze() runs all of it,
building each invariant once.  Everything runs over exact integers; no
result is reported without an independent cross-check.
"""

from .errors import (
    BudgetExceeded,
    InputError,
    ParseError,
    PropertyViolation,
    QrlabError,
    TorsionObstruction,
)
from .presentation import Presentation, parse_presentation
from .enumeration import (
    FiniteGroupTable,
    Subgroup,
    all_subgroups,
    quotient_table,
    todd_coxeter,
)
from .groupring import (
    delta_dimension_sequence,
    dimension_subgroup_chain,
    jennings_series,
)
from .intlinalg import AbelianInvariants, Lattice, smith_normal_form
from .relmod import (
    Coinvariants,
    QRReport,
    RelationLattice,
    bar_h2,
    coinvariants,
    gab_invariants,
    hopf_h2,
    qr_check,
    qr_check_full,
    relation_lattice,
)
from .permrec import (
    Certificate,
    HarnessReport,
    LevelModule,
    LiftResult,
    MarksReport,
    RecognitionResult,
    equivalence_harness,
    gen_perm_lift,
    marks_multiplicities,
    module_from_coinvariants,
    perm_recognize_modp,
    sign_characters,
    tower_harness,
    transition_map,
)
from .analysis import Analysis, analyze

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "Analysis",
    "BudgetExceeded",
    "Certificate",
    "Coinvariants",
    "FiniteGroupTable",
    "HarnessReport",
    "InputError",
    "Lattice",
    "LevelModule",
    "LiftResult",
    "MarksReport",
    "ParseError",
    "Presentation",
    "PropertyViolation",
    "QRReport",
    "QrlabError",
    "RecognitionResult",
    "RelationLattice",
    "Subgroup",
    "TorsionObstruction",
    "all_subgroups",
    "analyze",
    "bar_h2",
    "coinvariants",
    "delta_dimension_sequence",
    "dimension_subgroup_chain",
    "equivalence_harness",
    "gab_invariants",
    "gen_perm_lift",
    "hopf_h2",
    "jennings_series",
    "marks_multiplicities",
    "module_from_coinvariants",
    "parse_presentation",
    "perm_recognize_modp",
    "qr_check",
    "qr_check_full",
    "quotient_table",
    "relation_lattice",
    "sign_characters",
    "smith_normal_form",
    "todd_coxeter",
    "tower_harness",
    "transition_map",
    "__version__",
]
