"""Benchmark configuration.

Each benchmark regenerates one figure of the paper at "small" scale and
asserts the figure's *shape* (who wins, what grows, where gaps are)
rather than absolute numbers.  The reproduced tables go to a session
temporary directory, so a test run modifies no tracked file; the copies
under ``results/`` are refreshed by ``repro-graphdim run all --scale
small``.  The first run populates the dissimilarity disk cache under
``.cache/`` (MCS is NP-hard; that is the dominant first-run cost);
subsequent runs are fast.
"""

import pytest


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("results"))
