"""Time the set-up every stage invocation pays, in a fresh process.

Prints one JSON object with ``setup_s``: the seconds from just before
``import gistrank`` to the end of ``load_config`` + ``load_graph`` +
``read_corpus`` + ``build_idf_table`` on the config given as the argument.
Interpreter start-up is not included.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()

import gistrank  # noqa: E402,F401
from gistrank.config import load_config  # noqa: E402
from gistrank.features import build_idf_table  # noqa: E402
from gistrank.kg import load_graph  # noqa: E402
from gistrank.linking import read_corpus  # noqa: E402

config = load_config(sys.argv[1])
graph = load_graph(config.kg_nodes, config.kg_edges)
read_corpus(config.corpus)
build_idf_table(graph)
print(json.dumps({"setup_s": time.perf_counter() - start}))
