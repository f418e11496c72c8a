#!/usr/bin/env python3
"""Draft-length ablation on a controlled model pair.

Builds a deep target whose attention layers contribute nothing beyond the
shared embedding (so a 1-layer draft with the same decoder heads matches
it exactly), optionally perturbs the draft's interval head, and sweeps the
draft length through the bench harness. With zero noise the acceptance
rate is exactly 1; with noise the table shows acceptance decreasing in
gamma and the speedup peaking at moderate draft lengths.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spectpp import cli
from spectpp.core import RngStream
from spectpp.model import ModelConfig, init_checkpoint, save_checkpoint

SHARED_PARAMS = (
    "mark_embedding", "initial_context", "decoder_proj",
    "mix_weight_proj", "mix_weight_bias", "mix_mean_proj", "mix_mean_bias",
    "mix_scale_proj", "mix_scale_bias", "mark_hidden_proj", "mark_hidden_bias",
    "mark_out_proj", "mark_out_bias",
)


def build_pair(out_dir: pathlib.Path, n_layers: int, embed_dim: int, noise: float,
               seed: int) -> tuple[pathlib.Path, pathlib.Path]:
    target_config = ModelConfig(embed_dim=embed_dim, n_components=16, n_marks=2,
                                n_heads=2, n_layers=n_layers)
    target = init_checkpoint(target_config, RngStream(seed))
    for layer in range(n_layers):
        target.params[f"layers.{layer}.v"][:] = 0.0
    draft_config = ModelConfig(embed_dim=embed_dim, n_components=16, n_marks=2,
                               n_heads=1, n_layers=1)
    draft = init_checkpoint(draft_config, RngStream(seed + 1))
    draft.params["layers.0.v"][:] = 0.0
    for name in SHARED_PARAMS:
        draft.params[name] = target.params[name].copy()
    if noise:
        draft.params["mix_mean_bias"] = draft.params["mix_mean_bias"] + noise
    target_path, draft_path = out_dir / "target.json", out_dir / "draft.json"
    save_checkpoint(target_path, target)
    save_checkpoint(draft_path, draft)
    return target_path, draft_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("runs/ablation"))
    parser.add_argument("--gamma-grid", default="1,5,10,20,40,60")
    parser.add_argument("--noise", type=float, default=0.5,
                        help="shift applied to the draft's mixture-mean bias")
    parser.add_argument("--layers", type=int, default=20)
    parser.add_argument("--embed-dim", type=int, default=48)
    parser.add_argument("--t-end", type=float, default=120.0)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--runs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    target_path, draft_path = build_pair(args.out, args.layers, args.embed_dim,
                                         args.noise, args.seed)
    grid = [int(g) for g in args.gamma_grid.split(",")]
    cli._execute("bench", {
        "target": str(target_path), "draft": str(draft_path), "gamma_grid": grid,
        "repetitions": args.repetitions, "runs": args.runs, "t_end": args.t_end,
        "seed": args.seed}, args.out / "bench")
    print((args.out / "bench" / "bench.csv").read_text())


if __name__ == "__main__":
    main()
