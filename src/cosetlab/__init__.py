"""cosetlab: a laboratory for coset-based channel and source coding.

Builds channel codes from source codes with decoder side information:
linear syndrome encoders over GF(q), constrained-random-number-generator
encoders, exact and stochastic coset decoders, hash-property ensemble
certification, and capacity solvers, all verified at desk scale by exact
enumeration or seeded Monte Carlo.
"""

from .errors import (CapExceededError, ConfigError, CosetLabError, DecodeFailure,
                     EmptyCosetError, ExpurgationError)
from .gf_linalg import AffineSolution, FieldSpec, GfVector, LinearMap, matvec, solve_affine
from .sources_channels import (Channel, InfoMeasures, JointSource, info_measures,
                               joint_from_channel, make_bsc, make_dsbs, make_quantized_awgn,
                               make_zchannel)
from .ensembles import (EnsembleSpec, HashParams, certified_collision_params,
                        certify_hash_property, compute_hash_params, expurgate,
                        expurgated_params_bound, sample_map, sparse_ensemble, type_spectrum,
                        uniform_ensemble)
from .crng_sampler import (ConstrainedDistribution, ConstraintSet, draw, mass,
                           tv_distance_check)
from .sw_codec import (ErrorEstimate, SwCodec, decode_map, decode_stochastic,
                       rate_sweep, rows_for_rate)
from .channel_codec import ChannelCodec, SearchResult, build, search_code
from .capacity import CapacityResult, blahut_arimoto, signaling_sweep
from .decision_theory import (DecisionProblem, DecisionRule, map_rule, posterior_rule,
                              rule_error, verify_factor2)

__version__ = "0.1.0"
