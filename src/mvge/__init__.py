"""Multi-view unsupervised graph embeddings.

Trains node embeddings from two complementary input views (raw node
features and random-walk-aggregated features) with distribution
reconstruction objectives plus an adjacency reconstruction task, and
ships the homophily diagnostics, synthetic-graph generator, and
downstream evaluation protocols that go with them.
"""

from mvge.graph import Graph, normalized_adjacency
from mvge.data import (
    Dataset,
    EmbeddingSet,
    load_dataset,
    save_dataset,
    load_embeddings,
    save_embeddings,
)
from mvge.homophily import (
    HomophilyReport,
    global_homophily,
    local_homophily,
    homophily_histogram,
    homophily_report,
)
from mvge.synth import SynthSpec, generate_synthetic
from mvge.walks import WalkConfig, ViewPair, walk_aggregate, build_views
from mvge.model import MVGEConfig, MVGEModel, train, merge_embeddings, embedding_dim_std
from mvge.evaluate import (
    SplitSpec,
    EvalReport,
    micro_f1,
    roc_auc,
    node_classification_eval,
    link_prediction_eval,
    pairwise_eval,
)

__version__ = "0.1.0"
