#!/usr/bin/env python3
"""End-to-end synthetic experiment at desk scale.

Simulates a univariate Hawkes dataset by thinning, trains a target and a
smaller draft model on it, samples with both autoregressive and
speculative decoding, and reports likelihood discrepancies, KS statistics
against the generating process, acceptance rate, and speedup.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spectpp import evaluation as ev
from spectpp.classical import HawkesParams, ground_truth_loglik, make_synthetic_dataset
from spectpp.core import RngStream, write_sequences
from spectpp.model import ModelConfig, save_checkpoint, sequence_loglik
from spectpp.sampler import ar_sample, tpp_sd_sample
from spectpp.training import TrainConfig, split_dataset, train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("runs/synthetic"))
    parser.add_argument("--n-sequences", type=int, default=150)
    parser.add_argument("--t-end", type=float, default=10.0)
    parser.add_argument("--gamma", type=int, default=10)
    parser.add_argument("--sample-runs", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--target-layers", type=int, default=3)
    parser.add_argument("--encoding", default="thp", choices=["thp", "sahp", "attnhp"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    process = HawkesParams(mu=np.array([2.5]), alpha=np.array([[1.0]]), beta=np.array([[2.0]]))
    print(f"simulating {args.n_sequences} sequences on [0, {args.t_end}] ...")
    data = make_synthetic_dataset(process, args.n_sequences, args.t_end, RngStream(args.seed))
    write_sequences(args.out / "data.jsonl", data)
    train_seqs, val_seqs, _ = split_dataset(data)

    target_config = ModelConfig(embed_dim=24, n_components=12, n_marks=1, n_heads=2,
                                n_layers=args.target_layers, encoding=args.encoding)
    draft_config = ModelConfig(embed_dim=12, n_components=8, n_marks=1, n_heads=1,
                               n_layers=1, encoding=args.encoding)
    train_config = TrainConfig(learning_rate=0.005, max_epochs=args.epochs,
                               patience=min(10, args.epochs), seed=args.seed + 1)
    print("training target model ...")
    target = train(train_seqs, val_seqs, target_config, train_config).checkpoint
    print("training draft model ...")
    draft = train(train_seqs, val_seqs, draft_config, train_config).checkpoint
    save_checkpoint(args.out / "target.json", target)
    save_checkpoint(args.out / "draft.json", draft)

    print(f"sampling {args.sample_runs} runs with each method ...")
    root = RngStream(args.seed + 2)
    ar_seqs, sd_seqs = [], []
    t_ar = t_sd = 0.0
    accepted = drafted = 0
    for run in range(args.sample_runs):
        seq, stats = ar_sample(target, args.t_end, root.child(f"ar{run}"))
        ar_seqs.append(seq)
        t_ar += stats.wall_seconds
        seq, stats = tpp_sd_sample(target, draft, args.t_end, args.gamma,
                                   root.child(f"sd{run}"))
        sd_seqs.append(seq)
        t_sd += stats.wall_seconds
        accepted += stats.events_accepted
        drafted += stats.events_drafted
    write_sequences(args.out / "ar_samples.jsonl", ar_seqs)
    write_sequences(args.out / "sd_samples.jsonl", sd_seqs)

    gt_scorer = lambda s: ground_truth_loglik(s, process)
    model_scorer = lambda s: sequence_loglik(s, target)

    def delta_l(seqs):
        return abs(ev.mean_loglik_per_event(seqs, gt_scorer)
                   - ev.mean_loglik_per_event(seqs, model_scorer))

    delta_ar, delta_sd = delta_l(ar_seqs), delta_l(sd_seqs)

    def pooled_ks(seqs):
        z = [x for s in seqs for x in ev.time_rescale(s, process)]
        return ev.ks_statistic(z)

    ks_ar, ks_sd = pooled_ks(ar_seqs), pooled_ks(sd_seqs)
    print()
    print(f"{'metric':<28}{'AR':>12}{'SD':>12}")
    print(f"{'delta_L vs ground truth':<28}{delta_ar:>12.4f}{delta_sd:>12.4f}")
    print(f"{'D_KS (band %.4f)' % ks_ar.band:<28}{ks_ar.d_ks:>12.4f}{ks_sd.d_ks:>12.4f}")
    print(f"{'wall seconds':<28}{t_ar:>12.3f}{t_sd:>12.3f}")
    speedup = t_ar / t_sd
    print(f"acceptance rate alpha = {accepted / max(1, drafted):.3f}")
    print(f"speedup S_AR/SD       = {speedup:.2f}")
    if speedup < 1.0:
        print("(speculation pays off once the target clearly outweighs the draft;"
              " try --target-layers 8 or scripts/gamma_ablation.py)")
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
