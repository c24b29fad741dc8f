"""Public-API integrity: everything advertised is importable and real."""

import importlib

import pytest

PACKAGES = ["repro", "repro.sim", "repro.core", "repro.harness",
            "repro.analysis",
            "repro.workloads.darknet", "repro.workloads.rodinia",
            "repro.workloads.micro", "repro.workloads.uvmbench"]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package} must declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_documented(package):
    """Every exported class/function carries a docstring."""
    module = importlib.import_module(package)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if callable(obj) or isinstance(obj, type):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{package}: undocumented {undocumented}"


def test_readme_quickstart_snippet_runs():
    from repro import SizeClass, TransferMode, compare_workload
    comparison = compare_workload("vector_seq", SizeClass.SMALL,
                                  iterations=2)
    for mode in TransferMode:
        assert comparison.normalized_total(mode) > 0


def test_version_string():
    import repro
    assert repro.__version__ == "1.0.0"
