"""repro — reproduction of "Leveraging Graph Dimensions in Online Graph Search".

Zhu, Yu & Qin, PVLDB 8(1), 2014.  The deployment story: build the index
offline, persist it as a versioned artifact, reload it cold-start-free,
serve traffic through the sharded query service, and **mutate it live**
as the database changes —

>>> from repro import build_mapping, chemical_database, load_index, save_index
>>> db = chemical_database(60, seed=0)
>>> save_index(build_mapping(db, num_features=20, min_support=0.1), "index.json")
>>> mapping = load_index("index.json")   # zero VF2 calls: lattice restored
>>> service = mapping.query_service(n_shards=4)
>>> answers = service.batch_query(queries, k=10)
>>> service.apply_update(added=new_graphs, removed=[3, 17])  # no rebuild
>>> save_index(mapping, "index.json")    # appends deltas to the journal

``load_index`` restores the complete :class:`IndexArtifact` (feature
lattice, cached norms, label codec, and a page-checksummed binary
payload; the VF2 pattern profiles are derived from the feature graphs),
so ``mapping.query_engine()`` is warm immediately; ``query_service``
shards the database vectors and answers bit-identically to the
single-shard engine while caching repeated queries, each batch inline
on one core (a second core is a second ``serve-router --spawn`` replica).
``add_graphs`` / ``remove_graphs`` update supports, vectors, norms, and
shards in place — a :class:`~repro.core.mapping.StalenessPolicy` bounds
how far the selection may drift before re-selection is triggered — and
mutations persist as delta-journal entries that
:func:`~repro.index.compact_index` folds back into the base.

Sub-packages expose the full machinery: ``repro.graph`` (labeled graphs,
I/O, generators), ``repro.isomorphism`` (VF2, MCS, GED), ``repro.mining``
(gSpan), ``repro.similarity`` (δ1/δ2), ``repro.features``,
``repro.core`` (DSPM, DSPMap, bounds), ``repro.index``
(the on-disk artifact), ``repro.serving`` (the sharded query service),
``repro.baselines``, ``repro.query``, ``repro.fingerprint``,
``repro.datasets``, ``repro.applications``, and ``repro.experiments``.
"""

from repro.core.dspm import DSPM, DSPMResult, dspm_select
from repro.core.dspmap import DSPMap
from repro.core.mapping import (
    DSPreservedMapping,
    StalenessPolicy,
    build_mapping,
)
from repro.datasets import (
    chemical_database,
    chemical_query_set,
    synthetic_database,
    synthetic_query_set,
)
from repro.features import FeatureSpace
from repro.graph import LabeledGraph
from repro.index import IndexArtifact, compact_index, load_index, save_index
from repro.mining import FrequentSubgraph, mine_frequent_subgraphs
from repro.query import ExactTopKEngine, MappedTopKEngine, QueryEngine
from repro.serving import QueryService
from repro.similarity import DissimilarityCache, delta1, delta2

__version__ = "1.2.0"

__all__ = [
    "DSPM",
    "DSPMResult",
    "DSPMap",
    "DSPreservedMapping",
    "DissimilarityCache",
    "ExactTopKEngine",
    "FeatureSpace",
    "FrequentSubgraph",
    "IndexArtifact",
    "LabeledGraph",
    "MappedTopKEngine",
    "QueryEngine",
    "QueryService",
    "StalenessPolicy",
    "build_mapping",
    "chemical_database",
    "chemical_query_set",
    "compact_index",
    "delta1",
    "delta2",
    "dspm_select",
    "load_index",
    "mine_frequent_subgraphs",
    "save_index",
    "synthetic_database",
    "synthetic_query_set",
]
