"""gistrank: concept ranking and topic indexing for image-text instances.

Instances are linked to knowledge-graph concepts, expanded into
query-specific subgraphs, clustered, and ranked by a listwise linear model;
the ranked concepts then feed a second ranking stage that orders instances
per class topic.
"""

__version__ = "0.1.0"
