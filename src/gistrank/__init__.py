"""gistrank: concept ranking and topic indexing for image-text instances.

Instances are linked to knowledge-graph concepts, expanded into
query-specific subgraphs, clustered, and ranked by a listwise linear model;
the ranked concepts then feed a second ranking stage that orders instances
per class topic.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GistRankError,
    IntegrityError,
    NotFoundError,
    ParseError,
    StageDependencyError,
    TrainingError,
)
from .kg import KnowledgeGraph, load_graph, save_graph
from .linking import Instance, LinkMode, SeedSet, corpus_link_stats, link_instance, read_corpus
from .query_graph import QueryGraph, bfs_distances, build_query_graph
from .clustering import Partition, WeightedGraph, build_relatedness_graph, louvain, modularity, relatedness
from .features import FEATURE_NAMES, normalize_per_query
from .ltr import (
    CoordinateAscentConfig,
    RankModel,
    Ranking,
    TrainingExample,
    average_precision,
    mean_metric,
    precision_at_k,
    rank,
    train_coordinate_ascent,
)
from .topics import Lexicon, TopicModel, build_lexicon, rank_images, train_topic_models, vectorize
from .evaluation import EvalReport, compare_modes, evaluate

__all__ = [
    "__version__",
    "GistRankError",
    "ParseError",
    "IntegrityError",
    "NotFoundError",
    "ConfigError",
    "TrainingError",
    "StageDependencyError",
    "KnowledgeGraph",
    "load_graph",
    "save_graph",
    "Instance",
    "LinkMode",
    "SeedSet",
    "link_instance",
    "corpus_link_stats",
    "read_corpus",
    "QueryGraph",
    "bfs_distances",
    "build_query_graph",
    "WeightedGraph",
    "Partition",
    "relatedness",
    "build_relatedness_graph",
    "louvain",
    "modularity",
    "FEATURE_NAMES",
    "normalize_per_query",
    "TrainingExample",
    "Ranking",
    "RankModel",
    "CoordinateAscentConfig",
    "average_precision",
    "precision_at_k",
    "mean_metric",
    "train_coordinate_ascent",
    "rank",
    "Lexicon",
    "TopicModel",
    "build_lexicon",
    "vectorize",
    "train_topic_models",
    "rank_images",
    "EvalReport",
    "evaluate",
    "compare_modes",
]
