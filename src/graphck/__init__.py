"""Invariants and verdicts for algebras of finite directed graphs.

The toolkit computes path combinatorics and ideal lattices, builds blow-up
graphs and their inclusions, decides symbolic relation equalities exactly,
realizes generators on truncated path spaces, presents K-theory by Smith
normal form, and applies the classification rules for nuclear-dimension
bounds.  Everything numeric is exact rational.
"""

from .classify import IdealReport, Verdict, classify, ideal_report, purely_infinite
from .construct import (BlowupGraph, add_tails, blowup_graph, embed_path,
                        jeong_park_subgraph)
from .dsl import emit_graph, parse_graph, parse_pathspec
from .errors import ContractViolation, DslError, GraphckError, ResourceLimit
from .graphs import (DirectedGraph, Edge, Path, Vertex, adjacency_matrix,
                     enumerate_hereditary_saturated,
                     every_vertex_connects_to_cycle, is_acyclic, paths,
                     quotient_graph, restriction_graph, satisfies_condition_K,
                     satisfies_condition_L, sinks)
from .ktheory import (KTheoryResult, SmithDecomposition,
                      graph_k_theory, induced_endomorphism_matrix,
                      smith_normal_form, verify_multiplication_by_m,
                      verify_on_subquotients)
from .rep import (ApproximationGap, KappaMatrix, KCoefficients, TruncatedRep,
                  approximation_gap, band_compression, build_rep,
                  k_coefficients, kappa_matrix, matrix_unit, path_projection,
                  shifted_band_compression, window_projection)
from .symbolic import (AlgebraMode, FormalSum, Word, commutator_is_zero,
                       gabe_approximate_identity, iota_image, jm_image,
                       normal_form, sums_equal, verify_tck_family)

__version__ = "0.1.0"
