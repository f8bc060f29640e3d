"""Numerical laboratory for trace-norm dictatorship-test embeddings, the
label-cover norm reduction built on them, and little-to-big lifts of the
resulting operator-norm problems."""

from .linalg import (embed_complex_as_hermitian, embed_hermitian_as_real_symmetric,
                     polar_unitary, rho, schatten1_norm, schatten_inf_norm)
from .clifford import (ETA, TAU, CliffordGenerators, PhaseFamily, build_phase_family,
                       clifford_map, dictator_embedding_norm, embedding_norm_bound,
                       make_generators, parallelogram, randphase_second_moment,
                       spread_threshold, trace_norm_formula)
from .commutative import (COMPLEX_LIMIT, REAL_LIMIT, SignEnsemble, berry_esseen_profile,
                          embedding_l1_norm)
from .labelcover import (LabelCoverInstance, check_smoothness, check_weak_expansion,
                         generate_planted, generate_random, satisfied_fraction)
from .reduction import (ConstraintSystem, DecodeInvariantError, DecoderParams,
                        EmbeddingBackend, SubspaceBasis, assignment_to_field,
                        build_constraints, clifford_backend, comm_complex_backend,
                        comm_real_backend, completeness_certificate, decode,
                        field_l2_norm, operator_norm_lower_bound, subspace_basis)
from .solvers import (LittleOperator, NcgTensor, adjoint_apply, lift_little_to_big,
                      little_norm_lower_bound, ncg_opt_lower_bound, tensor_from_matrix)

__version__ = "0.1.0"
