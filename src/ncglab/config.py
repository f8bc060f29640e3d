"""Central numeric defaults. CLI flags and keyword arguments override these."""

# Largest side of a tensor (d), checked before its (d^2 x d^2) matrix and
# solve-ncg's d x d unitaries exist. The 2m Clifford generators, each
# 2^m x 2^m with m = ceil(n/2), may hold at most DENSE_DIM_CAP^2 entries in
# all, those of one largest permitted dense matrix; that allows n <= 18.
DENSE_DIM_CAP = 4096

# Enumeration bound: the members an exhaustive sign ensemble streams (only
# little_op, which checks LIFT_CAP first, and the tests materialize them) and
# the entries (parity rows x n) of an exact phase family.
ENUMERATION_CAP = 2**20

# Most entries (as float64, 32 MiB) a chunked kernel holds in temporaries at once:
# Clifford row blocks, scalar-embedding member chunks, check_smoothness vertex blocks.
CHUNK_ENTRIES = 2**22

# Max-abs deviation allowed when an input must be Hermitian.
HERMITIAN_TOL = 1e-9

# Alternating / ascent solver defaults.
DEFAULT_RESTARTS = 32
DEFAULT_ITERS = 200
DEFAULT_TOL = 1e-10

# Decoder defaults: eps is the slack parameter, delta defaults to the
# matrix-embedding spread threshold sqrt(2)*eps when not supplied.
DEFAULT_EPS = 0.3

# Subspace membership residual considered "inside".
SUBSPACE_RESIDUAL_TOL = 1e-10

# Completeness certificate slack below eta.
CERTIFICATE_SLACK = 1e-6

# File format version written by all serializers.
FORMAT_VERSION = 1
