"""Property tests of batch-mode scoring, the mechanism zero-shot adaptation
rests on: a batch is scored as a set, in the coordinates of its own
statistics. Then fuzz tests of the input contracts: corrupted checkpoints,
CSV files and config text fail only with the documented errors."""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchad.cli import main
from batchad.config import parse_flat_config, resolve_config
from batchad.data import GaussianMetaSpec, generate_gaussian_metaset, save_metaset_csv
from batchad.errors import ConfigError
from batchad.model import HEADS, Architecture, DetectorModel

from test_cli import TINY_CONFIG

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
    model = DetectorModel(replace(arch, head=head))
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


@st.composite
def scored_stacks(draw):
    """A model shape and seed as in ``scored_batches``, a stack of 2-6
    batches of 2-40 rows, and one shift vector per batch."""
    arch, _rows, _shift, seed = draw(scored_batches())
    tasks = draw(st.integers(2, 6))
    rows = draw(st.integers(2, 40))
    n = tasks * arch.input_dim
    shifts = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    return arch, tasks, rows, np.array(shifts).reshape(tasks, arch.input_dim), seed


def random_model_and_stack(head, arch, tasks, rows, seed):
    model, x, rng = random_model_and_batch(head, arch, tasks * rows, seed)
    return model, x.reshape(tasks, rows, arch.input_dim), rng


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_stacks())
def test_stack_scores_are_invariant_to_a_shift_per_batch(head, case):
    # each batch's first normalization cancels that batch's own constant;
    # statistics pooled over the stack would not cancel different constants
    arch, tasks, rows, shifts, seed = case
    model, x, _rng = random_model_and_stack(head, arch, tasks, rows, seed)
    assert_close(model.score_batch(x + shifts[:, None, :]).s, model.score_batch(x).s)


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_stacks())
def test_permuting_the_batches_of_a_stack_permutes_its_score_blocks(head, case):
    # statistics carried from one batch, or chunk, to the next would tie a
    # batch's scores to its place in the stack
    arch, tasks, rows, _shifts, seed = case
    model, x, rng = random_model_and_stack(head, arch, tasks, rows, seed)
    perm = rng.permutation(tasks)
    blocks = model.score_batch(x).s.reshape(tasks, rows)
    assert_close(model.score_batch(x[perm]).s.reshape(tasks, rows), blocks[perm])


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_batches(), scale=st.floats(1e-2, 1e2))
def test_scores_are_invariant_to_a_positive_rescale_up_to_eps(head, case, scale):
    # the first normalization maps c*x to c*(x - mean) / sqrt(c^2 var + eps):
    # rescaling by c is exact once that layer's eps is divided by c^2, so the
    # scores are nearly invariant, and only through eps
    arch, rows, _shift, seed = case
    model, x, _rng = random_model_and_batch(head, arch, rows, seed)
    scaled = model.score_batch(scale * x).s
    first_norm = next(layer for _name, kind, layer in model.blocks if kind == "bn")
    first_norm.eps /= scale**2
    assert_close(scaled, model.score_batch(x).s)


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_batches())
def test_two_row_batches_and_constant_columns_score_finite(head, case):
    arch, rows, shift, seed = case
    model, x, rng = random_model_and_batch(head, arch, rows, seed)
    constant = rng.random(arch.input_dim) < 0.5
    x[:, constant] = shift[constant]
    for batch in (x, x[:2]):
        scores = model.score_batch(batch)
        assert np.isfinite(scores.s).all() and np.isfinite(scores.a).all()


@pytest.mark.parametrize("head", HEADS)
@PROPERTY_SETTINGS
@given(case=scored_batches())
def test_parameter_count_matches_the_built_model(head, case):
    # load_checkpoint sizes a header by this count before building the model
    arch = replace(case[0], head=head)
    built = DetectorModel(arch).params().values()
    assert arch.n_params() == sum(arr.size for arr in built)


# ----- corrupted input -------------------------------------------------------

FUZZ_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# a truncation point, or a byte and bit to flip; positions wrap around the file
corruptions = st.tuples(
    st.sampled_from(["truncate", "flip"]), st.integers(0, 2**20), st.integers(0, 7)
)


def corrupt(data: bytes, corruption) -> bytes:
    kind, pos, bit = corruption
    pos %= len(data)
    if kind == "truncate":
        return data[:pos]
    out = bytearray(data)
    out[pos] ^= 1 << bit
    return bytes(out)


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    """A small CSV meta-set, a config reading it, and a model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = GaussianMetaSpec(
        dim=2, train_distributions=2, test_distributions=2, samples_per_distribution=15
    )
    csv_path, _sidecar = save_metaset_csv(*generate_gaussian_metaset(spec, 0), root, seed=0)
    config = root / "exp.toml"
    config.write_text(
        "iterations = 2\ntasks_per_iter = 2\nbatch_size = 10\nhidden = [4]\nlatent_dim = 2\n"
        f'data_csv = "{csv_path}"\ntrain_bins = 2\n'
        "runs = 1\neval_batches = 1\neval_batch_size = 10\nratios = [0.1]\n"
    )
    ckpt = root / "m.ckpt"
    assert main(["train", "--config", str(config), "--out", str(ckpt)]) == 0
    return config, csv_path, ckpt


def eval_exit_code(config, ckpt) -> int:
    return main(["eval", "--config", str(config), "--model", str(ckpt)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on flipped weights
@FUZZ_SETTINGS
@given(corruption=corruptions)
def test_corrupted_checkpoint_exits_with_a_documented_code(fuzz_world, corruption):
    config, _csv_path, ckpt = fuzz_world
    bad = ckpt.with_name("bad.ckpt")
    bad.write_bytes(corrupt(ckpt.read_bytes(), corruption))
    assert eval_exit_code(config, bad) in (0, 2, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FUZZ_SETTINGS
@given(corruption=corruptions)
def test_corrupted_csv_exits_with_a_documented_code(fuzz_world, corruption):
    config, csv_path, ckpt = fuzz_world
    original = csv_path.read_bytes()
    try:
        csv_path.write_bytes(corrupt(original, corruption))
        assert eval_exit_code(config, ckpt) in (0, 2, 3)
    finally:
        csv_path.write_bytes(original)


def sidecar_eval(fuzz_world, sidecar_bytes: bytes) -> tuple[int, str]:
    """Exit code and stderr of ``eval`` with the CSV's sidecar replaced by
    ``sidecar_bytes`` and ``train_bins`` left for the sidecar to give."""
    config, csv_path, ckpt = fuzz_world
    sidecar = csv_path.with_suffix(".json")
    bare = config.with_name("sidecar.toml")
    bare.write_text(config.read_text().replace("train_bins = 2\n", ""))
    original = sidecar.read_bytes()
    err = io.StringIO()
    try:
        sidecar.write_bytes(sidecar_bytes)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = eval_exit_code(bare, ckpt)
    finally:
        sidecar.write_bytes(original)
    return code, err.getvalue()


@FUZZ_SETTINGS
@given(corruption=corruptions)
def test_corrupted_sidecar_is_a_config_error_naming_it(fuzz_world, corruption):
    # a byte edit cannot change the length of bins.train and keep valid JSON,
    # so every failure is the sidecar's own
    sidecar = fuzz_world[1].with_suffix(".json")
    code, err = sidecar_eval(fuzz_world, corrupt(sidecar.read_bytes(), corruption))
    assert code in (0, 2)
    assert code == 0 or str(sidecar) in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@FUZZ_SETTINGS
@given(where=st.sampled_from(["root", "bins", "train"]), value=json_values)
def test_mutated_sidecar_fails_only_with_a_documented_code(fuzz_world, where, value):
    # the whole sidecar, its "bins" or its "bins.train" replaced by any JSON
    # value; anything but a list of training bins names the sidecar
    sidecar = fuzz_world[1].with_suffix(".json")
    doc = json.loads(sidecar.read_text())
    if where == "root":
        doc = value
    elif where == "bins":
        doc["bins"] = value
    else:
        doc["bins"]["train"] = value
    code, err = sidecar_eval(fuzz_world, json.dumps(doc).encode())
    assert code in (0, 2)
    bins = doc.get("bins") if isinstance(doc, dict) else None
    if not isinstance(bins, dict) or not isinstance(bins.get("train"), list):
        assert code == 2 and str(sidecar) in err, err


# edits of the value side of config lines, mostly digits so that most edits
# stay valid TOML; few enough that no number grows past four digits
config_edits = st.lists(
    st.tuples(
        st.integers(0, 2**20),
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 2**20),
        st.sampled_from(list("0123456789" * 3 + '.-_e[]{}",#= ')),
    ),
    min_size=1,
    max_size=3,
)


@FUZZ_SETTINGS
@given(edits=config_edits)
def test_mutated_config_text_raises_only_config_error(edits):
    lines = TINY_CONFIG.splitlines()
    for line_pos, kind, pos, char in edits:
        i = 1 + line_pos % (len(lines) - 1)  # line 0 is a comment
        key, value = lines[i].split(" = ", 1)
        pos %= max(len(value), 1)
        keep = value[pos:] if kind == "insert" else value[pos + 1:]
        lines[i] = f"{key} = {value[:pos]}{'' if kind == 'delete' else char}{keep}"
    try:
        resolve_config(parse_flat_config("\n".join(lines)))
    except ConfigError:
        pass
