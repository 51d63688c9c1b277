"""Property tests of batch-mode scoring, the mechanism zero-shot adaptation
rests on: a batch is scored as a set, in the coordinates of its own
statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchad.model import HEADS, Architecture, DetectorModel

# fixed before measuring, equal to the benchmark's permutation tolerance. On
# 2000 random cases the median worst relative error per batch was 1.8e-15
# (permutation) and 1.4e-14 (shift); the largest, 1.3e-10 and 9.6e-11, came
# from rows scored near the center of a one-dimensional latent, where
# s = (z - c)^2 loses digits to cancellation
RTOL = 1e-9

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def scored_batches(draw):
    """A randomly parameterized model shape, a batch of 2-200 rows and a
    seed for its values."""
    dim = draw(st.integers(1, 8))
    arch = Architecture(
        input_dim=dim,
        hidden=tuple(draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))),
        latent_dim=draw(st.integers(1, 8)),
        input_bn=draw(st.booleans()),
    )
    rows = draw(st.integers(2, 200))
    shift = draw(st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim))
    return arch, rows, np.array(shift), draw(st.integers(0, 2**32 - 1))


def random_model_and_batch(head, arch, rows, seed):
    """A model with every parameter drawn at random, not at its init values
    (gamma 1, beta 0, center 0), and a batch of standard normal rows."""
    rng = np.random.default_rng(seed)
    model = DetectorModel(arch, head=head)
    for arr in model.params().values():
        arr[...] = rng.normal(size=arr.shape)
    return model, rng.normal(size=(rows, arch.input_dim)), rng


def assert_close(actual, expected):
    bound = RTOL * np.maximum(np.abs(actual), np.abs(expected))
    assert np.all(np.abs(actual - expected) <= bound)


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_batches())
def test_scores_are_equivariant_under_row_permutation(head, case):
    arch, rows, _shift, seed = case
    model, x, rng = random_model_and_batch(head, arch, rows, seed)
    perm = rng.permutation(rows)
    assert_close(model.score_batch(x[perm]).s, model.score_batch(x).s[perm])


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_batches())
def test_scores_are_invariant_to_a_shared_shift(head, case):
    # the first normalization cancels a constant added to every row
    arch, rows, shift, seed = case
    model, x, _rng = random_model_and_batch(head, arch, rows, seed)
    assert_close(model.score_batch(x + shift).s, model.score_batch(x).s)
