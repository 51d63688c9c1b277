"""The package surface other code relies on: every exported name, and every
callable and block name the benchmark's span tracer (``bench/spans.py``)
looks up from outside the package."""

import importlib
import importlib.util
import tomllib
from pathlib import Path

import pytest

import batchad
from batchad.model import Architecture, DetectorModel

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"


def load_spans():
    """``bench/spans.py`` as a module, read without importing ``bench``."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "module, path", [(m, p) for m, p, _span in SPANS.TARGETS], ids=lambda v: v
)
def test_traced_target_is_a_callable_of_its_module(module, path):
    # the tracer looks each attribute up in the namespace that defines it
    # (a class's own ``vars``, not an inherited one) and records a miss as absent
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(f"batchad.{module}")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(vars(owner).get(attr)), f"{module}.{path}"


def test_headline_blocks_carry_the_traced_names():
    model = DetectorModel(Architecture(input_dim=8, hidden=(64, 64, 64), latent_dim=32))
    assert all(isinstance(block, tuple) and len(block) == 3 for block in model.blocks)
    assert tuple(name for name, _kind, _layer in model.blocks) == SPANS.BLOCKS


@pytest.mark.parametrize("name", batchad.__all__)
def test_exported_name_is_importable(name):
    assert hasattr(batchad, name)


def test_package_version_is_the_project_version():
    # records and checkpoints carry ``__version__``; the build reads pyproject.toml
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == batchad.__version__
