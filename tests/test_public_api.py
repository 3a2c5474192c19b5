"""The documented public API surface stays importable and coherent."""

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_quickstart_path(self):
        """The README's four-line quickstart works end to end."""
        db = repro.chemical_database(12, seed=0)
        mapping = repro.build_mapping(
            db, num_features=5, min_support=0.3, max_pattern_edges=2
        )
        engine = repro.MappedTopKEngine(mapping)
        query = repro.chemical_query_set(1, seed=1)[0]
        result = engine.query(query, k=3)
        assert len(result.ranking) == 3

    def test_subpackages_importable(self):
        import repro.applications
        import repro.baselines
        import repro.core
        import repro.datasets
        import repro.experiments
        import repro.features
        import repro.fingerprint
        import repro.graph
        import repro.isomorphism
        import repro.mining
        import repro.query
        import repro.similarity
        import repro.utils


class TestOneWritePath:
    """A write flags and never changes φ: the options that made it do
    anything else stay gone."""

    def test_staleness_policy_is_its_threshold(self):
        import dataclasses

        from repro.core.mapping import StalenessPolicy

        fields = [f.name for f in dataclasses.fields(StalenessPolicy)]
        assert fields == ["max_drift"]

    def test_attach_takes_the_mapping_and_the_threshold(self):
        import inspect

        from repro.core.reselect import Reselector

        parameters = list(inspect.signature(Reselector.attach).parameters)
        assert parameters == ["self", "mapping", "max_drift"]
