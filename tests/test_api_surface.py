"""Tests of the public API surface and cross-module contracts."""

import importlib
import inspect

import pytest

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.catalog",
            "repro.storage",
            "repro.table",
            "repro.query",
            "repro.cost",
            "repro.engine",
            "repro.workloads",
            "repro.workloads.tpch",
            "repro.baselines",
            "repro.reporting",
            "repro.maintenance",
            "repro.adapt",
            "repro.txn",
            "repro.distributed",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            member = getattr(repro, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                assert member.__doc__, f"{name} lacks a docstring"


class TestCrossModuleContracts:
    def test_table_uses_partitioner_config(self):
        from repro import CinderellaConfig, CinderellaTable

        config = CinderellaConfig(max_partition_size=7, weight=0.4)
        table = CinderellaTable(config)
        assert table.config is config
        assert table.partitioner.config is config

    def test_execution_result_plan_round_trips_to_catalog(self):
        from repro import AttributeQuery, CinderellaConfig, CinderellaTable

        table = CinderellaTable(CinderellaConfig(max_partition_size=5, weight=0.4))
        table.insert({"a": 1})
        table.insert({"b": 2})
        result = table.execute(AttributeQuery(("a",)))
        assert result.plan is not None
        for pid in result.plan.branch_pids:
            assert pid in table.catalog

    def test_size_model_consistency_between_rating_and_capacity(self):
        """The same SIZE() feeds ratings, capacity, and efficiency."""
        from repro import (
            AttributeCountSizeModel,
            CinderellaConfig,
            CinderellaPartitioner,
        )

        config = CinderellaConfig(
            max_partition_size=100, weight=0.4, size_model=AttributeCountSizeModel()
        )
        p = CinderellaPartitioner(config)
        p.insert(1, 0b111)
        partition = p.catalog.get(p.catalog.partition_of(1))
        assert partition.total_size == 3.0  # |e| under the attribute model

    def test_workload_entities_flow_into_tables(self):
        from repro import CinderellaTable
        from repro.workloads import generate_dbpedia_persons

        dataset = generate_dbpedia_persons(50, seed=1)
        table = CinderellaTable()
        for entity in dataset.entities:
            table.insert(entity.attributes, entity_id=entity.entity_id)
        assert len(table) == 50
        assert table.check_consistency() == []
