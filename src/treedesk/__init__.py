"""Desk-scale workbench for discrete well-ordered trees with regressive
level maps: finite partial models, closure operators, type counting,
one-point extensions, indiscernible-sequence analysis and partition
calculus."""

from .errors import TreedeskError, UnknownNode, BadArgument
from .ordinal import Ordinal, NotASuccessor, OrdinalParseError, ZERO, OMEGA
from .shape import (ShapeTree, validate_shape, decompose, chain_shape,
                    binary_shape, EMPTY_SHAPE, POINT_SHAPE)
from .structure import (Fragment, Term, from_standard_tree, validate,
                        complete, closure, is_closed, r_suc, eval_term,
                        distance, InvalidTree, CannotComplete, NotClosed,
                        SortError, Incomparable, UndefinedTerm)
from .types import (tp_code, equiv_k, count_type_classes,
                    questionnaire_code, atomic_basis, estimate_degree,
                    BudgetExceeded, WrongShape, BadSeries)
from .qe import (m2, extend_one_point, eval_formula, qe_candidate,
                 qe_matches, RankTooLow)
from .indis import (SequenceWindow, Classification, TraceStep,
                    is_indiscernible, is_NI, is_HNI, classify, h_map,
                    h_iterate, search_indiscernible, HNI_TERMS,
                    NotAlmostIncreasing, ShapeExhausted)
from .partition import (pair, unpair, pi1, pi2, Coloring,
                        find_homogeneous, coloring_from_sequence,
                        PTriple, validate_ptriple, is_hard,
                        p_from_coloring, DType, dtp, satisfies,
                        enumerate_complete_dtypes, QNode, validate_qnode,
                        q_enumerate, lift_element)
from .glue import (GlueSpec, star_construct, build_witness, build_control,
                   DisjointnessViolated, AxiomViolated)
from .fileio import (InputError, save_fragment, load_fragment,
                     save_coloring, load_coloring, save_ptriple,
                     load_ptriple, load_gluespec, write_series_csv)

__version__ = "0.1.0"
