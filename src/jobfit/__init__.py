"""Two-way person-job matching on dual-perspective interaction graphs.

The library models mutual selection: every user (candidate or job) carries an
active and a passive representation, interactions connect the two sides in a
typed graph, linear propagation mixes collaborative signal, and pairs are
scored from both directions at once. Training combines a quadruple ranking
loss over (positive, negative-job, negative-candidate) samples with a
contrastive term tying each user's two perspectives together.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# Dense products sum in an order that depends on the BLAS thread count, so
# checkpoints are bit-identical only at one count. Pin it to one thread,
# which BLAS reads once when NumPy first loads it.
if "numpy" not in _sys.modules:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
        _os.environ[_var] = "1"

from .corpus import (
    DocTable,
    EventLog,
    InteractionSplit,
    Kind,
    Side,
    SplitDataset,
    SyntheticSpec,
    generate_synthetic,
    load_doc_embeddings,
    load_events,
    temporal_split,
    write_doc_embeddings,
    write_events,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    GraphError,
    JobfitError,
    NumericsError,
    SamplingError,
    TrainingError,
)
from .evaluation import (
    Direction,
    DirectionReport,
    InstanceArrays,
    PartnerLists,
    RankingReport,
    build_eval_instances,
    evaluate,
    interaction_counts,
    partner_maps,
    partition_by_mass,
    rank_metrics,
    sparsity_breakdown,
)
from .graph import DualGraph, EdgeClass, NodeLayout, build_graph
from .model import (
    ModelParams,
    PropagatedState,
    VariantConfig,
    build_variant_graph,
    init_params,
    node_init,
    pair_scores,
    propagate,
    score_pair,
    variant_config,
)
from .optim import (
    AdamState,
    Checkpoint,
    HistoryRow,
    InputFingerprint,
    TrainConfig,
    TrainResult,
    adam_step,
    batch_gradients,
    batch_loss,
    load_checkpoint,
    main_loss,
    pairwise_bpr_loss,
    params_from_checkpoint,
    quadruple_loss,
    sample_quadruples,
    save_checkpoint,
    ssl_loss,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
