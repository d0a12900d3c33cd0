"""ctxapprox: constructive in-context approximation for single-layer attention.

Builds demonstration contexts, from unrestricted token spaces and from
finite vocabularies plus positional encodings, whose fixed-weight attention
readout approximates arbitrary continuous functions, and provides the
exponential-sum zero-counting oracles showing that finite vocabularies without
positional encoding cannot.
"""

__version__ = "0.1.0"

import os as _os

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")     # unless the user set it (README, Notes)

from .construction import (Caps, ConstructionReport, FitOptions, StageBudgets,
                           construct_context)
from .embedding import (EmbeddingResult, embed_fnn, embed_softmax_fnn,
                        exp_to_softmax_fnn, extract_fnn)
from .errors import (BudgetError, ConfigError, CtxApproxError, DimensionError,
                     EmptyGridError, EpsilonRangeError, FloorViolationError,
                     IllConditionedError, KroneckerCapExceeded,
                     NonFiniteFitError, NonFiniteTargetError,
                     PositionScanExhausted, TokenDemandError)
from .exp_fd import build_exp_fd_network, fit_polynomial
from .expressions import parse_target
from .fnn import (EXP, RELU, SOFTMAX, Activation, FitResult, FnnParams,
                  custom_activation, fit_fnn, fnn_forward, fnn_forward_batch,
                  perturbation_delta, perturbation_gap)
from .grids import Grid
from .kronecker import (KroneckerWitness, TokenDecomposition,
                        coefficient_decompose, kronecker_search,
                        pell_denominators)
from .nonuap import (ExpSum, FiniteFamilySpec, NonUapAuditRecord,
                     Prop1FuzzRecord, count_zeros, hard_target, nonuap_audit,
                     prop1_fuzz)
from .transformer import (GeneralBlocks, InputAssembly, TransformerParams,
                          assemble, attention_forward, identity_sparse_params,
                          random_sparse_params, readout_batch,
                          softmax_columns, transformer_readout)
from .vocab_pe import (Box, DensityProfile, PeScheme, Vocabulary,
                       calkin_wilf_lattice, calkin_wilf_rational,
                       custom_scheme, density_audit, dyadic_lattice, fusc,
                       irrational_rotation, pe_block, pe_rows,
                       standard_y_tokens)

__all__ = [name for name in dir() if not name.startswith("_")]
