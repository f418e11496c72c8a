"""The three perfbench workloads.

Each workload builds its inputs from the workload seed, then runs passes
over one fixed list of operations until the time budget is spent. Every
pass does identical work, so its outputs must hash to the same digest as
the first pass; counts that do not depend on timing are taken from one
pass. With tracing on, passes alternate untraced and traced, and the
per-layer numbers come from the traced ones. Every timed call goes
through one ScaledClock, which also gives its seconds at the reference
speed.

Imported by run.py after it has put the checkout's ``src`` on the path
and pinned the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spectpp import autodiff, classical, core, evaluation, model, sampler, training
from spectpp.core import EventSequence, RngStream

from speed import ScaledClock
from tracing import Tracer

GAMMA = 10
N_MARKS = 2
SETUP_REPEATS = 5

# Criterion 1's 2-D Hawkes process: both the long histories and the
# fit-validate dataset are drawn from it.
HAWKES_2D = {"kind": "hawkes", "mu": [0.4, 0.4], "alpha": [[1.0, 0.5], [0.1, 1.0]],
             "beta": [[2.0, 2.0], [2.0, 2.0]]}


@dataclass(frozen=True)
class SampleShape:
    """One pass of a sampler workload: AR continues the first
    ``ar_sequences`` histories for ``ar_horizon`` time units, SD the first
    ``sd_sequences`` for ``sd_horizon``; each history has ``history``
    events."""

    history: int
    ar_sequences: int
    ar_horizon: float
    sd_sequences: int
    sd_horizon: float


# sample-short: from an empty history to t_end = 100, where per-call
# overhead dominates. sample-long: after 250 Hawkes events, where the
# re-encode of the history dominates (500 would leave too few SD iterations
# in a run to average their random yield; see README.md). AR costs one
# target pass per event, so its rate is steady; SD's events per pass are
# random and vary with the seed, so SD gets most of each pass. On
# sample-long both get long horizons so that the one overshoot pass each
# sequence discards weighs little. One pass fills most of a 30-second run.
SAMPLE_SHAPES = {
    "sample-short": SampleShape(history=0, ar_sequences=40, ar_horizon=100.0,
                                sd_sequences=64, sd_horizon=100.0),
    "sample-long": SampleShape(history=250, ar_sequences=12, ar_horizon=12.0,
                               sd_sequences=24, sd_horizon=60.0),
}

# fit-validate: simulate, round-trip, rescale and KS-test a Hawkes dataset,
# then train a small thp model on part of it.
FIT_SEQUENCES = 120
FIT_T_END = 100.0
FIT_TRAIN, FIT_VAL = 64, 16
FIT_EPOCHS = 4
FIT_MODEL = {"embed_dim": 8, "n_components": 4, "n_marks": N_MARKS, "n_heads": 1,
             "n_layers": 1, "encoding": "thp"}
FIT_TRAIN_CONFIG = {"learning_rate": 0.01, "batch_size": 8, "max_epochs": FIT_EPOCHS,
                    "patience": FIT_EPOCHS}
# A pooled KS test at the 95% band rejects correct data for one seed in
# twenty; the correctness check uses the band whose false-alarm rate is
# 1e-6, c = sqrt(ln(2 / 1e-6) / 2). ks_band still reports the 95% band.
KS_CHECK_COEFFICIENT = math.sqrt(0.5 * math.log(2.0 / 1e-6))


@dataclass
class Outcome:
    """Operations attempted and failed in one run, with the first errors."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, problems: list[str], count: int = 1) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.extend(problems[:3])


@dataclass
class PassResult:
    """One pass: seconds per stage at the reference speed and as measured,
    new events per stage, timing-independent counts and output digest."""

    traced: bool
    seconds: dict[str, float]
    raw_seconds: dict[str, float]
    events: dict[str, int]
    counts: dict[str, int]
    digest: str


@dataclass
class RunResult:
    setup_seconds: list[float]
    setup_raw_seconds: list[float]
    passes: list[PassResult]
    outcome: Outcome
    tracer: Tracer | None
    probes: list[float]
    extra: dict = field(default_factory=dict)


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc} at {traceback.extract_tb(exc.__traceback__)[-1].name}"


def _hash_events(h, label: str, events) -> None:
    h.update(label.encode())
    for e in events:
        h.update(f"{e.time.hex()}:{e.mark};".encode())


def _run_passes(seconds: float, tracer: Tracer | None, one_pass) -> list[PassResult]:
    """Whole passes while the next is predicted to end within ``seconds``;
    at least one, or one untraced and one traced when tracing."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    needed = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(one_pass(len(passes), traced))
        elapsed = time.perf_counter() - start
        if len(passes) >= needed and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _setup_repeats(clock: ScaledClock, tracer: Tracer | None, build):
    """Run ``build`` SETUP_REPEATS times; return the scaled and the raw
    timings and the last build's product."""
    scaled, raw, product = [], [], None
    for k in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.group = f"setup{k}"
        product, seconds, at_reference = clock.call(build, k)
        raw.append(seconds)
        scaled.append(at_reference)
    return scaled, raw, product


# ---------------------------------------------------------------------------
# sampler workloads
# ---------------------------------------------------------------------------

def _load_gamma_ablation(root: Path):
    spec = importlib.util.spec_from_file_location("gamma_ablation",
                                                  root / "scripts" / "gamma_ablation.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pinned_history(seed: int, label, n_events: int) -> tuple:
    """The first n_events of a 2-D Hawkes path, thinned on a horizon that
    doubles until it holds that many events."""
    if n_events == 0:
        return ()
    process = classical.process_from_record(HAWKES_2D)
    horizon = n_events / 2
    while True:
        seq = classical.thinning_sample(process, float(horizon),
                                        RngStream(seed).child(f"history{label}"))
        if len(seq) >= n_events:
            return seq.events[:n_events]
        horizon *= 2


def _sampler_patches(tracer: Tracer, roles: dict[int, str]) -> None:
    def forward_name(events, checkpoint):
        return f"model.{roles[id(checkpoint)]}_forward"

    def rows(args, result):
        return {"rows": len(args[0])}

    tracer.patch(sampler, "ar_sample", "sampler.ar_sample")
    tracer.patch(sampler, "tpp_sd_sample", "sampler.tpp_sd_sample")
    tracer.patch(sampler, "draft", "sampler.draft")
    tracer.patch(sampler, "verify", "sampler.verify",
                 lambda args, out: {f"accepted_len.{out.accepted_len}": 1})
    tracer.patch(sampler, "next_event_distributions", forward_name, rows)
    tracer.patch(sampler, "position_distributions", forward_name, rows)
    tracer.patch(sampler, "_residual_interval_sample_info", "sampler.residual",
                 lambda args, out: {"proposals": out[1], "fallbacks": int(out[2])})
    tracer.patch(sampler, "residual_mark_sample", "sampler.residual")


def run_sample(name: str, root: Path, work_dir: Path, seed: int, seconds: float,
               trace: bool) -> RunResult:
    shape = SAMPLE_SHAPES[name]
    gamma_ablation = _load_gamma_ablation(root)
    tracer = Tracer() if trace else None
    clock = ScaledClock()
    roles: dict[int, str] = {}
    outcome = Outcome()

    def build(k: int):
        pair_dir = work_dir / f"pair{k}"
        pair_dir.mkdir()
        target_path, draft_path = gamma_ablation.build_pair(pair_dir, n_layers=20, embed_dim=48,
                                                            noise=0.5, seed=100)
        target, draft = model.load_checkpoint(target_path), model.load_checkpoint(draft_path)
        histories = [_pinned_history(seed, i, shape.history)
                     for i in range(max(shape.ar_sequences, shape.sd_sequences))]
        warm_events = histories[0] or _pinned_history(seed, "warm-up", 10)
        warm = EventSequence(warm_events, warm_events[-1].time)
        model.next_event_distributions(warm, target)
        model.next_event_distributions(warm, draft)
        return target, draft, histories

    if tracer is not None:
        tracer.patch(model, "load_checkpoint", "model.checkpoint_load")
    try:
        setup_seconds, setup_raw, (target, draft, histories) = \
            _setup_repeats(clock, tracer, build)
    finally:
        if tracer is not None:
            tracer.unpatch()
    roles.update({id(target): "target", id(draft): "draft"})

    def one_pass(p: int, traced: bool) -> PassResult:
        seconds_by = {"ar": 0.0, "sd": 0.0}
        raw_by = {"ar": 0.0, "sd": 0.0}
        events_by = {"ar": 0, "sd": 0}
        counts = dict.fromkeys(("ar_target_passes", "sd_iterations", "sd_target_passes",
                                "sd_draft_passes", "sd_drafted", "sd_accepted",
                                "sd_replacements", "sd_fallbacks"), 0)
        digest = hashlib.sha256()
        if traced:
            _sampler_patches(tracer, roles)
        try:
            for i, prefix in enumerate(histories):
                t0 = prefix[-1].time if prefix else 0.0
                rng = RngStream(seed).child(f"seq{i}")
                for mode, horizon, used in (("ar", shape.ar_horizon, shape.ar_sequences),
                                            ("sd", shape.sd_horizon, shape.sd_sequences)):
                    if i >= used:
                        continue
                    t_end = t0 + horizon
                    history = EventSequence(prefix, t_end) if prefix else None
                    if traced:
                        tracer.group = f"pass{p}:{mode}{i}"
                    try:
                        if mode == "ar":
                            (seq, stats), raw, scaled = clock.call(
                                sampler.ar_sample, target, t_end, rng, history=history)
                        else:
                            (seq, stats), raw, scaled = clock.call(
                                sampler.tpp_sd_sample, target, draft, t_end, GAMMA, rng,
                                history=history)
                    except Exception as exc:  # a failed operation is counted; the run goes on
                        outcome.op([f"{name} {mode} sequence {i}: {_failure(exc)}"])
                        continue
                    seconds_by[mode] += scaled
                    raw_by[mode] += raw
                    new = seq.events[len(prefix):]
                    events_by[mode] += len(new)
                    _hash_events(digest, f"{mode}{i}|", new)
                    outcome.op(_check_sampled(name, mode, i, seq, prefix, stats))
                    if mode == "ar":
                        counts["ar_target_passes"] += stats.target_forward_passes
                    else:
                        counts["sd_iterations"] += stats.iterations
                        counts["sd_target_passes"] += stats.target_forward_passes
                        counts["sd_draft_passes"] += stats.draft_forward_passes
                        counts["sd_drafted"] += stats.events_drafted
                        counts["sd_accepted"] += stats.events_accepted
                        counts["sd_replacements"] += stats.replacement_events
                        counts["sd_fallbacks"] += stats.residual_fallbacks
        finally:
            if traced:
                tracer.unpatch()
        counts.update({"ar_events": events_by["ar"], "sd_events": events_by["sd"]})
        digest.update(repr(sorted(counts.items())).encode())
        return PassResult(traced, seconds_by, raw_by, events_by, counts, digest.hexdigest())

    passes = _run_passes(seconds, tracer, one_pass)
    return RunResult(setup_seconds, setup_raw, passes, outcome, tracer, clock.probes)


def _check_sampled(name: str, mode: str, i: int, seq: EventSequence, prefix: tuple,
                   stats) -> list[str]:
    where = f"{name} {mode} sequence {i}"
    problems = []
    report = core.validate_sequence(seq, N_MARKS)
    if not report.ok:
        problems.append(f"{where}: invalid sequence: {report.message}")
    if seq.events[:len(prefix)] != prefix:
        problems.append(f"{where}: history prefix not preserved")
    new = len(seq) - len(prefix)
    if mode == "ar":
        if stats.target_forward_passes != new + 1:
            problems.append(f"{where}: {stats.target_forward_passes} target passes "
                            f"for {new} events")
        return problems
    if stats.iterations < 1 or stats.target_forward_passes != stats.iterations:
        problems.append(f"{where}: target passes {stats.target_forward_passes} != "
                        f"iterations {stats.iterations}")
    if stats.draft_forward_passes != GAMMA * stats.iterations \
            or stats.events_drafted != GAMMA * stats.iterations:
        problems.append(f"{where}: draft passes {stats.draft_forward_passes}, drafted "
                        f"{stats.events_drafted}, expected {GAMMA} x {stats.iterations}")
    if stats.events_accepted > stats.events_drafted:
        problems.append(f"{where}: accepted {stats.events_accepted} > "
                        f"drafted {stats.events_drafted}")
    if new > stats.events_accepted + stats.replacement_events:
        problems.append(f"{where}: {new} events from {stats.events_accepted} accepted "
                        f"and {stats.replacement_events} replacements")
    return problems


# ---------------------------------------------------------------------------
# fit-validate
# ---------------------------------------------------------------------------

def _fit_patches(tracer: Tracer) -> None:
    tracer.patch(classical, "thinning_sample", "classical.thinning",
                 lambda args, out: {"events": len(out)})
    tracer.patch(core, "write_sequences", "core.jsonl_write")
    tracer.patch(core, "read_sequences", "core.jsonl_read")
    tracer.patch(evaluation, "time_rescale", "evaluation.time_rescale")
    tracer.patch(evaluation, "ks_statistic", "evaluation.ks")
    tracer.patch(training, "train", "training.train")
    tracer.patch(training, "nll_batch", "training.nll_batch")
    tracer.patch(training, "adam_step", "training.adam_step")
    tracer.patch(training, "sequence_loglik", "model.loglik")
    tracer.patch(autodiff.Tensor, "backward", "autodiff.backward")


def run_fit_validate(root: Path, work_dir: Path, seed: int, seconds: float,
                     trace: bool) -> RunResult:
    tracer = Tracer() if trace else None
    clock = ScaledClock()
    outcome = Outcome()
    model_config = model.ModelConfig(**FIT_MODEL)
    train_config = training.TrainConfig(seed=seed, **FIT_TRAIN_CONFIG)
    batches = math.ceil(FIT_TRAIN / train_config.batch_size) * FIT_EPOCHS
    path = work_dir / "sequences.jsonl"
    extra: dict = {}

    def build(k: int):
        process = classical.process_from_record(HAWKES_2D)
        warm = classical.make_synthetic_dataset(process, train_config.batch_size, FIT_T_END,
                                                RngStream(seed).child("warm-up"))
        evaluation.ks_statistic(np.concatenate([evaluation.time_rescale(s, process)
                                                for s in warm]))
        training.nll_batch(model.init_checkpoint(model_config, RngStream(seed)), warm)
        return process

    setup_seconds, setup_raw, process = _setup_repeats(clock, None, build)

    def simulate():
        written = classical.make_synthetic_dataset(process, FIT_SEQUENCES, FIT_T_END,
                                                   RngStream(seed).child("data"))
        core.write_sequences(path, written)
        return written, core.read_sequences(path)

    def evaluate(sequences):
        pooled = np.concatenate([evaluation.time_rescale(s, process) for s in sequences])
        return evaluation.ks_statistic(pooled)

    def one_pass(p: int, traced: bool) -> PassResult:
        seconds_by: dict[str, float] = {}
        raw_by: dict[str, float] = {}
        digest = hashlib.sha256()
        failed = PassResult(traced, seconds_by, raw_by, {}, {}, "")

        def timed(stage: str, fn, *args):
            if traced:
                tracer.group = f"pass{p}:{stage}"
            result, raw_by[stage], seconds_by[stage] = clock.call(fn, *args)
            return result

        if traced:
            _fit_patches(tracer)
        try:
            try:
                written, sequences = timed("simulate", simulate)
            except Exception as exc:  # a failed operation is counted; the run goes on
                outcome.op([f"simulate: {_failure(exc)}"], FIT_SEQUENCES)
                return failed
            extra["jsonl_bytes"] = path.stat().st_size
            for i, seq in enumerate(written):
                _hash_events(digest, f"seq{i}|", seq.events)
                problems = []
                report = core.validate_sequence(seq, N_MARKS)
                if not report.ok:
                    problems.append(f"simulated sequence {i}: {report.message}")
                if i >= len(sequences) or sequences[i] != seq:
                    problems.append(f"simulated sequence {i}: JSONL round trip differs")
                outcome.op(problems)

            try:
                ks = timed("evaluate", evaluate, sequences)
            except Exception as exc:  # a failed operation is counted; the run goes on
                outcome.op([f"pooled KS: {_failure(exc)}"])
                return failed
            strict_band = KS_CHECK_COEFFICIENT / math.sqrt(ks.n)
            outcome.op([] if ks.d_ks < strict_band else
                       [f"pooled KS D={ks.d_ks:.5f} outside the 1e-6 band {strict_band:.5f}"])
            extra.update(ks_d=ks.d_ks, ks_band=ks.band)
            digest.update(f"ks:{ks.d_ks.hex()}:{ks.n}".encode())

            train_seqs = sequences[:FIT_TRAIN]
            try:
                report = timed("train", training.train, train_seqs,
                               sequences[FIT_TRAIN:FIT_TRAIN + FIT_VAL], model_config,
                               train_config)
            except Exception as exc:  # a failed operation is counted; the run goes on
                outcome.op([f"training: {_failure(exc)}"], batches)
                return failed
            losses = report.train_loglik + report.val_loglik
            outcome.op([] if report.epochs_run == FIT_EPOCHS and all(map(math.isfinite, losses))
                       else [f"training: {report.epochs_run} epochs, losses {losses}"], batches)
            for value in losses:
                digest.update(value.hex().encode())
        finally:
            if traced:
                tracer.unpatch()
        n_events = sum(len(s) for s in sequences)
        train_events = sum(len(s) for s in train_seqs) * FIT_EPOCHS
        counts = {"events_simulated": n_events, "ks_n": ks.n, "train_epochs": report.epochs_run,
                  "train_events": train_events}
        digest.update(repr(sorted(counts.items())).encode())
        return PassResult(traced, seconds_by, raw_by,
                          {"simulate": n_events, "evaluate": ks.n, "train": train_events},
                          counts, digest.hexdigest())

    passes = _run_passes(seconds, tracer, one_pass)
    return RunResult(setup_seconds, setup_raw, passes, outcome, tracer, clock.probes, extra)


def run_workload(name: str, root: Path, work_dir: Path, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    if name == "fit-validate":
        return run_fit_validate(root, work_dir, seed, seconds, trace)
    return run_sample(name, root, work_dir, seed, seconds, trace)
