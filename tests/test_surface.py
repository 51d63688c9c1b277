"""The package surface other code relies on: every exported name, and every
callable and block name the benchmark's span tracer (``bench/spans.py``)
looks up from outside the package."""

import importlib
import importlib.util
import sys
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


def traced_target(module, path):
    """``batchad.<module>.<path>`` as the tracer looks it up: in the namespace
    that defines it (a class's own ``vars``, not an inherited one)."""
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(f"batchad.{module}")
    if owner_name:
        owner = getattr(owner, owner_name)
    return vars(owner).get(attr)


@pytest.mark.parametrize(
    "module, path", [(m, p) for m, p, _span in SPANS.TARGETS], ids=lambda v: v
)
def test_traced_target_is_a_callable_of_its_module(module, path):
    # the tracer records a target it cannot find as absent
    assert callable(traced_target(module, path)), f"{module}.{path}"


def test_tracer_wraps_every_target_and_restores_it():
    # the bench self-test's ``trace.absent == 0``, without a traced run
    targets = [(m, p) for m, p, _span in SPANS.TARGETS]
    originals = [traced_target(m, p) for m, p in targets]
    namespaces = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "batchad" or name.startswith("batchad.")
    }
    tracer = SPANS.Tracer("surface")
    tracer.install(batchad)
    try:
        assert tracer.absent == []
        assert all(traced_target(*t) is not fn for t, fn in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(traced_target(*t) is fn for t, fn in zip(targets, originals))
    for name, namespace in namespaces.items():
        now = vars(sys.modules[name])
        assert now.keys() == namespace.keys(), name
        assert all(now[k] is v for k, v in namespace.items()), name


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
