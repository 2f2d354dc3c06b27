"""The public API surface: everything advertised imports and is exported."""

import importlib

import pytest

import repro


class TestRootPackage:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_classes(self):
        assert callable(repro.FleXPath)
        assert callable(repro.DPO)
        assert callable(repro.SSO)
        assert callable(repro.Hybrid)


SUBPACKAGES = [
    "repro.xmltree",
    "repro.ir",
    "repro.obs",
    "repro.backend",
    "repro.stats",
    "repro.query",
    "repro.relax",
    "repro.rank",
    "repro.plans",
    "repro.topk",
    "repro.xmark",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), module_name
        for name in module.__all__:
            assert hasattr(module, name), "%s.%s" % (module_name, name)

    @pytest.mark.parametrize(
        "module_name",
        SUBPACKAGES
        + [
            "repro.backend.base",
            "repro.backend.kernels",
            "repro.backend.memory",
            "repro.cli",
            "repro.collection",
            "repro.datasets",
            "repro.engine",
            "repro.errors",
            "repro.session",
            "repro.workload",
            "repro.ir.highlight",
            "repro.cache",
            "repro.compiled",
            "repro.topk.ir_first",
            "repro.topk.naive",
            "repro.xmltree.storage",
        ],
    )
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, "%s lacks a module docstring" % module_name

    def test_public_functions_documented(self):
        """Every public callable exported at the root has a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, name
