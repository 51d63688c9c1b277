#!/usr/bin/env python3
"""batchad benchmark: meta-training, grid evaluation and streamed scoring.

    python3 bench/run.py --workload train-headline --seed 1 --seconds 30 --trace 0

One process, one client, closed loop, at the machine's default BLAS
threading (recorded, never changed). Three kinds of timed unit:

- train: ``train()`` with the headline config (8 tasks x 60 rows, pi 0.8,
  8->64->64->64->32 dsvdd head, lr 1e-3) for a fixed number of iterations.
- eval: ``evaluate()`` over 4 held-out pools x 4 ratios x 1 run x 25
  batches of 60 rows (16 cells, 400 batches). The full grid of 5 runs (80
  cells, 2000 batches, 120,000 rows) runs once per run, untimed, as a check
  and for ``eval_auroc``; short units keep the calibration brackets tight.
- score: one pass of ``DetectorModel.score_batch`` over a seeded stream of
  256 held-out batches of 8 to 2048 rows.

The workload names its main unit (``train-headline``, ``eval-grid``,
``score-stream``), which gets most of ``--seconds``. The run is split into
rounds; each round also runs a few units of every other kind (``PROBES``), so
every end-to-end metric is reported on every workload and each is a median
over samples spread across the run. Every unit is bracketed by a reference
loop that calibrates its times (``ReferenceLoop``).

Before timing, untimed: the gaussian8 meta-set is generated from ``--seed``,
written with ``save_metaset_csv`` and read back with ``load_tabular``; the
headline model is trained for 300 iterations (eval and score units use it);
the score stream is passed for 1.5 s, because the first second or so of
multi-threaded OpenBLAS calls in a process runs several times slower.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
untraced, replays its first round with span wrappers installed around the
package's public functions, checks that both runs produced bit-identical
outputs, and prints the per-layer metrics and the tracing overhead (median
calibrated main-unit time, traced over untraced). Spans go to
``.bench_out/trace-<workload>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed check gives exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

perf = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MAIN_UNIT = {"train-headline": "train", "eval-grid": "eval", "score-stream": "score"}

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_ms_per_iter": "ms",
    "eval_us_per_batch": "us",
    "eval_auroc": "auroc",
    "score_p50_us": "us",
    "score_p95_us": "us",
    "score_rows_per_s": "rows/s",
}


@dataclass(frozen=True)
class Size:
    prep_iterations: int  # the model that eval and score units use
    train_iterations: tuple[int, int]  # per train unit: (main, probe)
    eval_batches: int  # batches per evaluation run; an eval unit is one run
    grid_runs: int  # runs of the untimed full-grid check
    stream_batches: int
    rounds: int


SIZES = {
    "full": Size(prep_iterations=300, train_iterations=(60, 20), eval_batches=25,
                 grid_runs=5, stream_batches=256, rounds=6),
    # self-test only: a few operations per unit
    "tiny": Size(prep_iterations=12, train_iterations=(6, 3), eval_batches=2,
                 grid_runs=1, stream_batches=24, rounds=1),
}

# Units of each kind per round outside the main kind. Probe train units are
# small, so that their median rests on many samples.
PROBES = {"setup": 2, "train": 3, "eval": 3, "score": 2}

TRAIN_POOLS = 8
TEST_POOLS = 4
POOL_ROWS = 2000
DIM = 8
BATCH = 60
RATIOS = (0.01, 0.05, 0.1, 0.2)
RECHECK_RATIO = 0.1
STREAM_ROWS = (8, 2048)
STREAM_CONTAMINATION = 0.05
AUROC_TOL = 1e-9
PERM_RTOL = 1e-9
# the reference loop's time on a quiet 2-vCPU Xeon host (see ReferenceLoop)
REFERENCE_S = {"setup": 0.008, "train": 0.008, "eval": 0.008, "score": 0.024}
WARMUP_SECONDS = 1.5


class ReferenceLoop:
    """Fixed numpy and Python work, independent of batchad, whose run time
    tracks how fast the host is running this process at the moment.

    Every timed unit is bracketed by two runs of it, and the unit's times are
    multiplied by ``REFERENCE_S[kind]`` over the mean of the two: a slowdown
    of the host stretches both and cancels, a slowdown of batchad does not.
    The loop works on 60-row arrays, which BLAS runs on one thread; for score
    units, whose large batches run on every core, it adds 1536-row arrays.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(BATCH, 64))
        self.wide = rng.normal(size=(1536, 64))
        self.w = rng.normal(size=(64, 64))
        self.values = rng.random(40).tolist()

    @staticmethod
    def _layer(x, w):
        y = x @ w
        y = (y - y.mean(axis=0)) / np.sqrt(y.var(axis=0) + 1e-5)
        return y * (y > 0)

    def seconds(self, kind: str) -> float:
        t0 = perf()
        for _ in range(150):
            self._layer(self.x, self.w)
            total = 0.0
            for v in self.values:
                total += v
        if kind == "score":
            for _ in range(20):
                self._layer(self.wide, self.w)
        return perf() - t0


def import_batchad():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "batchad" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'batchad'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import batchad

    if not Path(batchad.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported batchad from {batchad.__file__}, not {SRC}")
    return batchad


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pair_count_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(positive outscores negative) by direct pair counting, ties as 1/2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    gt = np.count_nonzero(pos[:, None] > neg[None, :])
    eq = np.count_nonzero(pos[:, None] == neg[None, :])
    return (gt + 0.5 * eq) / (len(pos) * len(neg))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "BATCHAD_THREADS": os.environ.get("BATCHAD_THREADS"),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


class Pass:
    """One run of a workload: untimed preparation, then timed units.

    With ``replay`` (the unit order of an earlier pass) the units are run in
    that order instead of against the ``seconds`` deadline, so a traced pass
    does exactly the work of the untraced one.
    """

    def __init__(self, bad, workload, seed, seconds, size, csv_path, work,
                 tracer=None, replay=None):
        self.bad = bad
        self.main = MAIN_UNIT[workload]
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.csv_path = csv_path
        self.work = work
        self.tracer = tracer
        self.replay = replay
        self.order: list[str] = []
        self.round_starts: list[int] = []
        # raw unit samples, and the reference factor measured around each
        self.samples: dict[str, list] = {k: [] for k in ("setup", "train", "eval", "score")}
        self.scales: dict[str, list] = {k: [] for k in self.samples}
        self.reference = ReferenceLoop()
        self.metrics: dict[str, float] = {}
        self.fingerprint: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self.latencies: list[np.ndarray] = []
        self.train_iterations = 0

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)

    def agree(self, key: str, digest: str, ops: int, what: str) -> None:
        """Record the first unit's output digest; later units must match it."""
        first = self.fingerprint.setdefault(key, digest)
        if digest != first:
            self.fail(ops, f"{what} differs from the first unit's")

    @contextmanager
    def traced(self, kind: str):
        """Spans are recorded only inside setup and main units."""
        if self.tracer is None or kind not in ("setup", self.main):
            yield
            return
        self.tracer.op += 1
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False

    # ----- units ------------------------------------------------------------

    def setup_unit(self, source, model):
        """``load_tabular`` plus the checkpoint round trip of the headline model."""
        bad = self.bad
        ckpt = self.work / "setup.ckpt"
        with self.traced("setup"):
            t0 = perf()
            train_meta, test_meta = bad.load_tabular(source)
            bad.save_checkpoint(model, ckpt)
            loaded = bad.load_checkpoint(ckpt)
            self.samples["setup"].append(perf() - t0)
        self.agree("setup.checkpoint", sha(ckpt.read_bytes()), 0, "setup: checkpoint")
        return train_meta, test_meta, loaded

    def train_config(self, iterations: int):
        return self.bad.TrainConfig(
            iterations=iterations,
            tasks_per_iter=8,
            batch_size=BATCH,
            pi=0.8,
            learning_rate=1e-3,
            seed=self.seed,
            head="dsvdd",
            hidden=(64, 64, 64),
            latent_dim=32,
        )

    def checked_train(self, train_meta, iterations: int, key: str):
        """``train()`` plus its checks; returns (model, seconds)."""
        bad = self.bad
        cfg = self.train_config(iterations)
        self.attempted += iterations
        with self.traced(key):
            t0 = perf()
            model, report = bad.train(train_meta, cfg)
            wall = perf() - t0
        losses = np.asarray(report.loss_curve, dtype=np.float64)
        non_finite = int(np.count_nonzero(~np.isfinite(losses)))
        if len(losses) != iterations:
            self.fail(iterations, f"{key}: {len(losses)} losses for {iterations} iterations")
        elif non_finite:
            self.fail(non_finite, f"{key}: {non_finite} non-finite losses")
        ckpt = self.work / f"{key}.ckpt"
        bad.save_checkpoint(model, ckpt)
        self.agree(f"{key}.losses", sha(losses.tobytes()), 0, f"{key}: loss curve")
        self.agree(f"{key}.checkpoint", sha(ckpt.read_bytes()), iterations, f"{key}: checkpoint")
        tail = losses[-max(1, len(losses) // 10):]
        self.info.setdefault(f"{key}_loss_tail", float(tail.mean()))
        return model, wall

    def train_unit(self, train_meta) -> None:
        iterations = self.size.train_iterations[self.main != "train"]
        _model, wall = self.checked_train(train_meta, iterations, "train")
        self.samples["train"].append(wall / iterations)
        self.train_iterations += iterations

    def checked_eval(self, model, test_meta, runs: int, key: str):
        """``evaluate()`` over ``runs`` runs of the ratio x pool grid plus its
        checks; returns (seconds per scored batch, report)."""
        size = self.size
        n_batches = test_meta.k * len(RATIOS) * runs * size.eval_batches
        self.attempted += n_batches
        with self.traced(key):
            t0 = perf()
            report = self.bad.evaluate(
                model, test_meta, ratios=RATIOS, runs=runs, seed=self.seed,
                batch_size=BATCH, batches_per_run=size.eval_batches,
            )
            per_batch = (perf() - t0) / n_batches
        cells = np.array([report.cells[float(r)] for r in RATIOS], dtype=np.float64)
        outside = int(np.count_nonzero(~((cells >= 0.0) & (cells <= 1.0))))
        if report.n_scored != n_batches * BATCH:
            self.fail(n_batches, f"{key}: n_scored {report.n_scored} != {n_batches * BATCH}")
        elif outside:
            self.fail(outside * size.eval_batches, f"{key}: {outside} cells outside [0, 1]")
        self.agree(f"{key}.cells", sha(cells.tobytes()), n_batches, f"{key}: AUROC cells")
        return per_batch, report

    def eval_unit(self, model, test_meta) -> None:
        per_batch, _report = self.checked_eval(model, test_meta, 1, "eval")
        self.samples["eval"].append(per_batch)

    def score_unit(self, model, batches) -> None:
        """One pass over the stream; per-call latency, rows per second."""
        latencies = np.empty(len(batches))
        scores = []
        with self.traced("score"):
            start = perf()
            for i, x in enumerate(batches):
                t0 = perf()
                s = model.score_batch(x).s
                latencies[i] = perf() - t0
                scores.append(s)
            wall = perf() - start
        self.attempted += len(batches)
        for i, (x, s) in enumerate(zip(batches, scores)):
            if s.shape != (len(x),) or not np.isfinite(s).all():
                self.fail(1, f"score: batch {i} gave shape {s.shape} or non-finite scores")
        self.agree("score.scores", sha(b"".join(s.tobytes() for s in scores)),
                   len(batches), "score: stream scores")
        self.latencies.append(latencies)
        self.samples["score"].append(wall)

    # ----- untimed checks ---------------------------------------------------

    def recheck_cells(self, model, test_meta) -> None:
        """Re-score one evaluation run, capturing each scored batch, and
        compare its cells with the benchmark's own pair-count AUROC. Row
        labels come from pool membership: rows of the cell's pool are normal."""
        pool_of = {}
        for k, pool in enumerate(test_meta.pools):
            for row in pool:
                pool_of[row.tobytes()] = k
        captured = []
        score = model.score_batch

        def capture(x, *args, **kwargs):
            out = score(x, *args, **kwargs)
            captured.append((np.array(x, dtype=np.float64), np.array(out.s, dtype=np.float64)))
            return out

        model.score_batch = capture
        try:
            report = self.bad.evaluate(
                model, test_meta, ratios=(RECHECK_RATIO,), runs=1, seed=self.seed,
                batch_size=BATCH, batches_per_run=self.size.eval_batches,
            )
        finally:
            del model.score_batch

        by_rotation: dict[int, list] = {}
        for x, s in captured:
            x = x.reshape(-1, test_meta.dim)
            s = s.reshape(-1)
            for lo in range(0, len(x), BATCH):
                pools = [pool_of.get(r.tobytes(), -1) for r in x[lo:lo + BATCH]]
                rotation = max(set(pools), key=pools.count)
                by_rotation.setdefault(rotation, []).append((s[lo:lo + BATCH], pools))
        self.attempted += 1
        checked = 0
        for rotation, parts in sorted(by_rotation.items()):
            pools = [p for _s, batch_pools in parts for p in batch_pools]
            if rotation < 0 or -1 in pools:
                self.fail(1, "eval recheck: scored rows that belong to no test pool")
                return
            scores = np.concatenate([s for s, _p in parts])
            labels = (np.array(pools) != rotation).astype(np.int64)
            ours = pair_count_auroc(scores, labels)
            theirs = report.cells[RECHECK_RATIO][rotation][0]
            if not abs(ours - theirs) <= AUROC_TOL:
                self.fail(1, f"eval recheck: pool {rotation} AUROC {theirs!r} != pair count {ours!r}")
                return
            checked += 1
        if checked != test_meta.k:
            self.fail(1, f"eval recheck: checked {checked} of {test_meta.k} cells")
        self.fingerprint["eval.recheck"] = sha(
            np.array(report.cells[RECHECK_RATIO], dtype=np.float64).tobytes()
        )

    def permutation_check(self, model, batches) -> None:
        """Scores of a row-permuted batch equal the permuted scores. Not
        bit-equal: the batch-norm sums run in another order."""
        rng = np.random.default_rng([self.seed, 11])
        x = batches[int(rng.integers(len(batches)))]
        perm = rng.permutation(len(x))
        s = model.score_batch(x).s[perm]
        sp = model.score_batch(x[perm]).s
        self.attempted += 1
        if not np.all(np.abs(sp - s) <= PERM_RTOL * np.maximum(np.abs(sp), np.abs(s))):
            worst = float(np.max(np.abs(sp - s) / np.maximum(np.abs(s), 1e-300)))
            self.fail(1, f"score: permuted batch of {len(x)} rows off by {worst:.3g} relative")
        self.fingerprint["score.permuted"] = sha(sp.tobytes())

    # ----- driver -----------------------------------------------------------

    def make_stream(self, test_meta) -> list[np.ndarray]:
        """Seeded held-out batches. Sizes are log-uniform on [8, 2048],
        stratified so that every seed gets the same size distribution; rows
        come from one pool, plus 5% from the other held-out pools."""
        rng = np.random.default_rng([self.seed, 7])
        n = self.size.stream_batches
        lo, hi = STREAM_ROWS
        u = (np.arange(n) + rng.random(n)) / n
        sizes = np.rint(lo * (hi / lo) ** u).astype(int)
        rng.shuffle(sizes)
        pools = test_meta.pools
        others = [np.concatenate(pools[:k] + pools[k + 1:]) for k in range(len(pools))]
        batches = []
        for b in sizes:
            k = int(rng.integers(len(pools)))
            n_other = int(round(STREAM_CONTAMINATION * b))
            x = np.concatenate([
                pools[k][rng.integers(0, len(pools[k]), b - n_other)],
                others[k][rng.integers(0, len(others[k]), n_other)],
            ])
            batches.append(np.ascontiguousarray(x[rng.permutation(b)]))
        return batches

    def schedule(self):
        """Unit kinds in run order: each round opens with the ``PROBES``
        units of every kind but the main one, then runs main units until its
        share of ``seconds`` is used (at least one)."""
        if self.replay is not None:
            yield from self.replay
            return
        start = perf()
        for r in range(self.size.rounds):
            self.round_starts.append(len(self.order))
            for kind, count in PROBES.items():
                if kind != self.main:
                    yield from [kind] * count
            deadline = start + (r + 1) * self.seconds / self.size.rounds
            yield self.main
            while perf() < deadline:
                yield self.main

    def run(self) -> None:
        bad = self.bad
        source = bad.TabularSource(path=str(self.csv_path), train_bins=TRAIN_POOLS)
        train_meta, test_meta = bad.load_tabular(source)
        headline, _wall = self.checked_train(train_meta, self.size.prep_iterations, "prep")
        batches = self.make_stream(test_meta)
        t0 = perf()
        while perf() - t0 < WARMUP_SECONDS:
            for x in batches:
                headline.score_batch(x)
        self.info["warmup_s"] = perf() - t0

        model = None
        for kind in self.schedule():
            self.order.append(kind)
            before = self.reference.seconds(kind)
            if kind == "setup":
                train_meta, test_meta, loaded = self.setup_unit(source, headline)
                if model is None:
                    model = loaded
            elif kind == "train":
                self.train_unit(train_meta)
            elif kind == "eval":
                self.eval_unit(model, test_meta)
            else:
                self.score_unit(model, batches)
            around = (before + self.reference.seconds(kind)) / 2
            self.scales[kind].append(REFERENCE_S[kind] / around)
        _per_batch, grid = self.checked_eval(model, test_meta, self.size.grid_runs, "grid")
        self.metrics["eval_auroc"] = float(grid.auroc)
        self.recheck_cells(model, test_meta)
        self.permutation_check(model, batches)

        rows = sum(len(x) for x in batches)
        self.metrics.update(self.summarize(rows, scaled=True))
        self.info["raw"] = self.summarize(rows, scaled=False)
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # calibrated seconds per main operation: iteration, scored batch or call
        self.main_op_s = statistics.median(self.calibrated(self.main))
        if self.main == "score":
            self.main_op_s /= len(batches)
        self.info["units"] = {k: len(v) for k, v in self.samples.items()}
        self.info["reference_ms"] = {
            kind: 1e3 * REFERENCE_S[kind] / statistics.median(f)
            for kind, f in self.scales.items() if f
        }

    def calibrated(self, kind: str, scaled: bool = True) -> list:
        if not scaled:
            return list(self.samples[kind])
        return [v * f for v, f in zip(self.samples[kind], self.scales[kind])]

    def summarize(self, rows: int, scaled: bool) -> dict:
        """Timing metrics: medians over units of (calibrated) unit samples."""
        med = statistics.median
        factors = self.scales["score"] if scaled else [1.0] * len(self.latencies)
        p50 = [np.percentile(lat, 50) * f for lat, f in zip(self.latencies, factors)]
        p95 = [np.percentile(lat, 95) * f for lat, f in zip(self.latencies, factors)]
        return {
            "setup_s": med(self.calibrated("setup", scaled)),
            "train_ms_per_iter": med(self.calibrated("train", scaled)) * 1e3,
            "eval_us_per_batch": med(self.calibrated("eval", scaled)) * 1e6,
            "score_p50_us": float(med(p50)) * 1e6,
            "score_p95_us": float(med(p95)) * 1e6,
            "score_rows_per_s": rows / med(self.calibrated("score", scaled)),
        }


def make_inputs(bad, seed: int, work: Path) -> Path:
    spec = bad.GaussianMetaSpec(
        dim=DIM,
        train_distributions=TRAIN_POOLS,
        test_distributions=TEST_POOLS,
        samples_per_distribution=POOL_ROWS,
    )
    train_meta, test_meta = bad.generate_gaussian_metaset(spec, seed)
    csv_path, _sidecar = bad.save_metaset_csv(train_meta, test_meta, work, seed=seed)
    return csv_path


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args, bad, work: Path):
    """Returns (problems, attempted, failed, metrics, info)."""
    size = SIZES[args.size]
    csv_path = make_inputs(bad, args.seed, work)
    plain = Pass(bad, args.workload, args.seed, args.seconds, size, csv_path, work)
    plain.run()
    info = dict(plain.info, failed_frac=plain.failed / max(1, plain.attempted),
                checkpoint_sha256=plain.fingerprint["prep.checkpoint"])
    if args.trace == 0:
        metrics = {name: metric(plain.metrics[name], unit) for name, unit in E2E_UNITS.items()}
        return plain.problems, plain.attempted, plain.failed, metrics, info

    tracer = spans.Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    tracer.install(bad)
    try:
        # the first round holds a unit of every kind: enough for per-layer
        # figures and for the bit-identity check, at a sixth of the spans
        starts = plain.round_starts + [len(plain.order)]
        first_round = plain.order[:starts[1]]
        traced = Pass(bad, args.workload, args.seed, args.seconds, size, csv_path, work,
                      tracer=tracer, replay=first_round)
        traced.run()
    finally:
        tracer.uninstall()
    for key in sorted(set(plain.fingerprint) | set(traced.fingerprint)):
        if plain.fingerprint.get(key) != traced.fingerprint.get(key):
            traced.fail(1, f"trace: output {key} differs between the untraced and traced runs")
    values = tracer.per_layer()
    values["training.applied_step_frac"] = (
        values["nn.adam_step.calls"] / traced.train_iterations
        if plain.main == "train" else 0.0
    )
    values["training.loss_tail"] = traced.info["prep_loss_tail"]
    values["trace.overhead_pct"] = (traced.main_op_s / plain.main_op_s - 1.0) * 100.0
    metrics = {name: metric(values[name], unit) for name, unit in spans.per_layer_units().items()}
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
    tracer.write_jsonl(trace_path)
    info.update(trace_file=str(trace_path.relative_to(ROOT)), absent=tracer.absent)
    return (
        plain.problems + traced.problems,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        metrics,
        info,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' runs a few operations per unit (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bad = import_batchad()
    print("environment " + json.dumps(environment(), sort_keys=True))
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        problems, attempted, failed, metrics, info = run_workload(args, bad, work)
    except Exception:
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
