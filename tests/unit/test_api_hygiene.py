"""API hygiene: public surface exists, is documented, and is consistent."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.benchmarks",
    "repro.calibration",
    "repro.cluster",
    "repro.compiler",
    "repro.cpu",
    "repro.experiments",
    "repro.ir",
    "repro.mali",
    "repro.memory",
    "repro.ocl",
    "repro.optimizations",
    "repro.power",
    "repro.pricing",
    "repro.whatif",
    "repro.workload",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    """Every class and function exported via __all__ has a docstring."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented exports {undocumented}"


def test_version_string():
    assert repro.__version__ == "1.2.0"


def test_paper_order_is_the_figure_axis():
    # guard against accidental reordering: the figures rely on this
    assert repro.PAPER_ORDER == (
        "spmv", "vecop", "hist", "3dstc", "red", "amcd", "nbody", "2dcon", "dmmm",
    )


def test_benchmark_classes_have_paper_descriptions():
    for name, cls in repro.BENCHMARKS.items():
        assert cls.description, name
        assert cls.__doc__, name


def test_top_level_all_resolves_and_is_sorted_sanely():
    names = repro.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(repro, name)


def test_campaign_api_exported():
    for name in ("Campaign", "CampaignSpec", "CampaignReport"):
        assert name in repro.__all__
        assert hasattr(repro, name)
        assert name in repro.experiments.__all__


@pytest.mark.parametrize("func_name", ["run_grid", "run_version"])
def test_grid_entry_points_keyword_only_past_first(func_name):
    """The redesigned run APIs take only their subject positionally."""
    func = getattr(repro, func_name)
    params = list(inspect.signature(func).parameters.values())
    assert params[0].kind in (
        params[0].POSITIONAL_ONLY, params[0].POSITIONAL_OR_KEYWORD,
    )
    for param in params[1:]:
        assert param.kind is param.KEYWORD_ONLY, (
            f"{func_name}({param.name}=...) must be keyword-only"
        )


def _imported_modules(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_socket_module_imports_pickle():
    """Nothing read from a network peer is unpickled: no ``repro``
    module that imports ``socket`` may import ``pickle``."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        imported = _imported_modules(path)
        if "socket" in imported and "pickle" in imported:
            offenders.append(str(path.relative_to(root)))
    assert not offenders, f"modules importing both socket and pickle: {offenders}"
