import csv
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spectpp import cli, sampler
from spectpp.classical import ground_truth_loglik, process_from_record
from spectpp.core import RngStream, read_sequences, validate_sequence, write_sequences
from spectpp.evaluation import next_event_divergence, time_rescale
from spectpp.model import (ModelConfig, init_checkpoint, load_checkpoint, save_checkpoint,
                           sequence_loglik)
from spectpp.sampler import tpp_sd_sample
from spectpp.training import nll_batch

from sequences import sequence_from_arrays


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "poisson.json").write_text(
        json.dumps({"kind": "sine_poisson", "A": 5.0, "b": 1.0, "omega": 0.02}))
    (tmp_path / "hawkes.json").write_text(json.dumps({
        "kind": "hawkes", "mu": [2.5], "alpha": [[1.0]], "beta": [[2.0]]}))
    (tmp_path / "model_config.json").write_text(json.dumps({
        "embed_dim": 8, "n_components": 4, "n_marks": 1}))
    (tmp_path / "train_config.json").write_text(json.dumps({
        "learning_rate": 0.01, "batch_size": 8, "max_epochs": 2, "patience": 2, "seed": 3}))
    ckpt = init_checkpoint(ModelConfig(embed_dim=8, n_components=4, n_marks=2), RngStream(1))
    save_checkpoint(tmp_path / "target.json", ckpt)
    draft = init_checkpoint(ModelConfig(embed_dim=8, n_components=4, n_marks=2), RngStream(2))
    save_checkpoint(tmp_path / "draft.json", draft)
    return tmp_path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_writes_records_and_manifest(runner, workspace):
    out = workspace / "sim"
    result = runner.invoke(cli.main, ["simulate", "--process", str(workspace / "poisson.json"),
                                      "--n", "20", "--t-end", "10", "--seed", "1",
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(read_sequences(out / "sequences.jsonl")) == 20
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 1
    assert manifest["artifacts"]["sequences"]["reproducible"] is True
    # the environment block names the software, the CPUs and the source it ran
    env = manifest["environment"]
    assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
    assert env["scipy"] and env["blas"]
    assert env["cpu_count"] == os.cpu_count() and 1 <= env["cpu_affinity"] <= os.cpu_count()
    digest = hashlib.sha256()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert env["source_sha256"] == digest.hexdigest()


def test_simulate_rejects_zero_n(runner, workspace):
    result = runner.invoke(cli.main, ["simulate", "--process", str(workspace / "poisson.json"),
                                      "--n", "0", "--t-end", "10", "--out",
                                      str(workspace / "x")])
    assert result.exit_code == 2
    assert "n must be >= 1" in result.output


def test_simulate_same_seed_is_byte_identical(runner, workspace):
    args = ["simulate", "--process", str(workspace / "poisson.json"), "--n", "5",
            "--t-end", "10", "--seed", "7"]
    assert runner.invoke(cli.main, args + ["--out", str(workspace / "a")]).exit_code == 0
    assert runner.invoke(cli.main, args + ["--out", str(workspace / "b")]).exit_code == 0
    assert (workspace / "a" / "sequences.jsonl").read_bytes() == \
        (workspace / "b" / "sequences.jsonl").read_bytes()


def test_train_missing_data_file_names_path(runner, workspace):
    result = runner.invoke(cli.main, ["train", "--data", str(workspace / "nope.jsonl"),
                                      "--model-config", str(workspace / "model_config.json"),
                                      "--train-config", str(workspace / "train_config.json"),
                                      "--out", str(workspace / "t")])
    assert result.exit_code == 2
    assert "nope.jsonl" in result.output


def test_train_rerun_identical_checkpoint_bytes(runner, workspace):
    sim = workspace / "sim"
    runner.invoke(cli.main, ["simulate", "--process", str(workspace / "poisson.json"),
                             "--n", "20", "--t-end", "5", "--seed", "2", "--out", str(sim)])
    args = ["train", "--data", str(sim / "sequences.jsonl"),
            "--model-config", str(workspace / "model_config.json"),
            "--train-config", str(workspace / "train_config.json")]
    assert runner.invoke(cli.main, args + ["--out", str(workspace / "t1")]).exit_code == 0
    assert runner.invoke(cli.main, args + ["--out", str(workspace / "t2")]).exit_code == 0
    assert (workspace / "t1" / "checkpoint.json").read_bytes() == \
        (workspace / "t2" / "checkpoint.json").read_bytes()
    rows = read_csv(workspace / "t1" / "report.csv")
    assert {"epoch", "train_loglik", "val_loglik"} <= set(rows[0])


def test_sample_sd_requires_draft(runner, workspace):
    result = runner.invoke(cli.main, ["sample", "--mode", "sd", "--target",
                                      str(workspace / "target.json"), "--t-end", "5",
                                      "--out", str(workspace / "s")])
    assert result.exit_code == 1


@pytest.mark.parametrize("draft", ["", "."])
def test_a_directory_for_an_input_file_is_a_usage_error(runner, workspace, draft):
    """An input file that names a directory, as an empty path does, is
    refused by its option's name; it raised IsADirectoryError, and an empty
    --draft was taken as no draft."""
    for command in (["sample", "--mode", "sd", "--t-end", "5"],
                    ["eval", "wasserstein", "--sequences", str(workspace / "poisson.json")]):
        result = runner.invoke(cli.main, [*command, "--target", str(workspace / "target.json"),
                                          "--draft", draft, "--out", str(workspace / "x")])
        assert result.exit_code == 1, result.output
        assert "'--draft'" in result.output and "is a directory" in result.output


def test_sample_sd_stats_include_alpha_and_t_sd(runner, workspace):
    out = workspace / "sd"
    result = runner.invoke(cli.main, ["sample", "--mode", "sd",
                                      "--target", str(workspace / "target.json"),
                                      "--draft", str(workspace / "draft.json"),
                                      "--gamma", "10", "--t-end", "10", "--runs", "2",
                                      "--seed", "4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "stats.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["gamma"] == "10"
        assert float(row["alpha"]) > 0
        assert float(row["t_sd"]) > 0
        assert row["t_ar"] == ""
        # the phase timings nest: residual within verify, draft + verify within t_sd
        phases = {name: float(row[name]) for name in ("t_draft", "t_verify", "t_residual")}
        assert min(phases.values()) >= 0 and phases["t_draft"] > 0
        assert phases["t_residual"] <= phases["t_verify"]
        assert phases["t_draft"] + phases["t_verify"] <= float(row["t_sd"])
        assert 0 < int(row["target_rows_encoded"]) <= 11 * int(row["target_forward_passes"])
        assert int(row["draft_rows_encoded"]) == int(row["draft_forward_passes"]) - 1
        # the last column counts the verify steps per accepted length 0..gamma
        assert list(row)[-1] == "accepted_lengths"
        lengths = [int(count) for count in row["accepted_lengths"].split(" ")]
        assert len(lengths) == 11 and sum(lengths) == int(row["target_forward_passes"])
        assert sum(n * c for n, c in enumerate(lengths)) == int(row["events_accepted"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"]["stats"]["reproducible"] is False


def test_sample_ar_stats_include_t_ar(runner, workspace):
    out = workspace / "ar"
    result = runner.invoke(cli.main, ["sample", "--mode", "ar",
                                      "--target", str(workspace / "target.json"),
                                      "--t-end", "10", "--seed", "4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    (row,) = read_csv(out / "stats.csv")
    assert float(row["t_ar"]) > 0
    assert row["t_sd"] == "" and row["alpha"] == ""
    assert row["t_draft"] == row["t_verify"] == row["t_residual"] == ""
    assert row["accepted_lengths"] == ""
    # one new event per pass; the discarded overshoot is never encoded
    assert int(row["target_rows_encoded"]) == int(row["n_events"])
    assert row["draft_rows_encoded"] == ""


def test_sample_stats_count_residual_proposals(runner, workspace, monkeypatch):
    """stats.csv counts the residual interval proposals next to the
    fallbacks: SD rows hold every proposal its residual draws used, AR rows
    read 0."""
    used = []

    def spied(*args, _draw=sampler._residual_interval_sample_info, **kwargs):
        out = _draw(*args, **kwargs)
        used.append(out[1])
        return out

    monkeypatch.setattr(sampler, "_residual_interval_sample_info", spied)
    rows = {}
    for mode in ("sd", "ar"):
        result = runner.invoke(cli.main, ["sample", "--mode", mode,
                                          "--target", str(workspace / "target.json"),
                                          "--draft", str(workspace / "draft.json"),
                                          "--gamma", "5", "--t-end", "20", "--runs", "2",
                                          "--seed", "4", "--out", str(workspace / mode)])
        assert result.exit_code == 0, result.output
        rows[mode] = read_csv(workspace / mode / "stats.csv")
    header = list(rows["sd"][0])
    assert header.index("residual_proposals") == header.index("residual_fallbacks") + 1
    assert used and sum(int(r["residual_proposals"]) for r in rows["sd"]) == sum(used)
    assert all(r["residual_proposals"] == r["residual_fallbacks"] == "0" for r in rows["ar"])


def test_residual_fallback_warning_is_shown_formatted(runner, workspace, monkeypatch):
    """The CLI gives the package logger one stderr handler, so the residual
    fallback's warning reaches the user formatted, once per fallback."""
    # with no proposal budget every rejected interval falls back
    monkeypatch.setattr(sampler, "RESIDUAL_MAX_PROPOSALS", 0)
    outputs = []
    for run in range(2):
        result = runner.invoke(cli.main, ["sample", "--mode", "sd",
                                          "--target", str(workspace / "target.json"),
                                          "--draft", str(workspace / "draft.json"),
                                          "--gamma", "5", "--t-end", "20", "--seed", "4",
                                          "--out", str(workspace / f"out{run}")])
        assert result.exit_code == 0, result.output
        outputs.append(result.stderr)
    (row,) = read_csv(workspace / "out0" / "stats.csv")
    assert int(row["residual_fallbacks"]) > 0
    expected = ("WARNING spectpp.sampler: residual interval sampler exhausted 0 proposals; "
                "falling back to a plain target draw")
    assert outputs[0].count(expected) == int(row["residual_fallbacks"])
    # two invocations in one process attached one handler
    assert outputs[1] == outputs[0]
    package_logger = logging.getLogger("spectpp")
    assert sum(isinstance(h, cli._EchoHandler) for h in package_logger.handlers) == 1
    assert package_logger.level == logging.NOTSET


def test_eval_ks_on_thinning_output_passes(runner, workspace):
    sim = workspace / "ks_sim"
    runner.invoke(cli.main, ["simulate", "--process", str(workspace / "hawkes.json"),
                             "--n", "50", "--t-end", "50", "--seed", "6", "--out", str(sim)])
    out = workspace / "ks_out"
    result = runner.invoke(cli.main, ["eval", "ks", "--sequences",
                                      str(sim / "sequences.jsonl"),
                                      "--process", str(workspace / "hawkes.json"),
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    (row,) = read_csv(out / "ks.csv")
    assert row["passed"] == "1"
    plot_rows = read_csv(out / "ks_plot.csv")
    assert len(plot_rows) == int(row["n"])


def test_eval_loglik_identical_sides_zero(runner, workspace):
    sim = workspace / "ll_sim"
    runner.invoke(cli.main, ["simulate", "--process", str(workspace / "poisson.json"),
                             "--n", "5", "--t-end", "5", "--seed", "8", "--out", str(sim)])
    out = workspace / "ll_out"
    result = runner.invoke(cli.main, ["eval", "loglik",
                                      "--sequences", str(sim / "sequences.jsonl"),
                                      "--scorer-a", f"process:{workspace / 'poisson.json'}",
                                      "--scorer-b", f"process:{workspace / 'poisson.json'}",
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    (row,) = read_csv(out / "loglik.csv")
    assert float(row["delta_l"]) == 0.0


def test_eval_scores_a_sine_poisson_process_at_omega_zero(runner, workspace):
    """A sine-Poisson record with omega 0, a homogeneous Poisson process,
    simulates, passes eval ks and scores in eval loglik with exit 0."""
    process = workspace / "flat.json"
    process.write_text(json.dumps({"kind": "sine_poisson", "A": 2.0, "b": 1.5, "omega": 0.0}))
    sim = workspace / "flat_sim"
    result = runner.invoke(cli.main, ["simulate", "--process", str(process), "--n", "20",
                                      "--t-end", "20", "--seed", "4", "--out", str(sim)])
    assert result.exit_code == 0, result.output
    sequences = str(sim / "sequences.jsonl")
    result = runner.invoke(cli.main, ["eval", "ks", "--sequences", sequences,
                                      "--process", str(process), "--out", str(workspace / "ks")])
    assert result.exit_code == 0, result.output
    assert read_csv(workspace / "ks" / "ks.csv")[0]["passed"] == "1"
    result = runner.invoke(cli.main, ["eval", "loglik", "--sequences", sequences,
                                      "--scorer-a", f"process:{process}",
                                      "--scorer-b", f"process:{process}",
                                      "--out", str(workspace / "ll")])
    assert result.exit_code == 0, result.output
    # N*log(A*b) - A*b*t_end over the set, per event
    n = sum(len(seq) for seq in read_sequences(sim / "sequences.jsonl"))
    assert float(read_csv(workspace / "ll" / "loglik.csv")[0]["loglik_a"]) == pytest.approx(
        math.log(3.0) - 3.0 * 20 * 20 / n, rel=1e-9)


def test_eval_wasserstein_protocol(runner, workspace):
    sample_dir = workspace / "history"
    runner.invoke(cli.main, ["sample", "--mode", "ar", "--target",
                             str(workspace / "target.json"), "--t-end", "40",
                             "--seed", "10", "--out", str(sample_dir)])
    out = workspace / "ws_out"
    result = runner.invoke(cli.main, ["eval", "wasserstein",
                                      "--target", str(workspace / "target.json"),
                                      "--draft", str(workspace / "draft.json"),
                                      "--sequences", str(sample_dir / "sequences.jsonl"),
                                      "--m-hist", "5", "--n-reps", "20", "--gamma", "4",
                                      "--seed", "11", "--out", str(out)])
    assert result.exit_code == 0, result.output
    (row,) = read_csv(out / "wasserstein.csv")
    assert float(row["d_ws_t"]) >= 0
    assert float(row["d_ws_k"]) >= 0
    assert row["m_hist"] == "5" and row["n_reps"] == "20"


def test_bench_grid_rows_and_identity_alpha(runner, workspace):
    out = workspace / "bench"
    result = runner.invoke(cli.main, ["bench", "--target", str(workspace / "target.json"),
                                      "--draft", str(workspace / "target.json"),
                                      "--gamma-grid", "1,5", "--repetitions", "1",
                                      "--runs", "1", "--t-end", "10", "--seed", "12",
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "bench.csv")
    assert [row["gamma"] for row in rows] == ["1", "5"]
    target = load_checkpoint(workspace / "target.json")
    for row in rows:
        assert float(row["alpha"]) == 1.0
        assert float(row["speedup"]) == pytest.approx(
            float(row["t_ar"]) / float(row["t_sd"]), rel=1e-9)
        # the counts are those of the one SD run, under its named RNG child
        gamma = int(row["gamma"])
        _, stats = tpp_sd_sample(target, target, 10.0, gamma,
                                 RngStream(12).child(f"sd-{gamma}-0-0"))
        assert [int(row[name]) for name in ("target_passes", "draft_passes", "target_rows",
                                            "draft_rows")] == [
            stats.target_forward_passes, stats.draft_forward_passes,
            stats.target_rows_encoded, stats.draft_rows_encoded]
        assert int(row["draft_passes"]) == gamma * int(row["target_passes"]) > 0


@pytest.mark.parametrize("command_dir", ["sim", "trained"])
def test_replay_reproduces_reproducible_artifacts(runner, workspace, command_dir):
    sim = workspace / "sim"
    runner.invoke(cli.main, ["simulate", "--process", str(workspace / "poisson.json"),
                             "--n", "15", "--t-end", "5", "--seed", "13", "--out", str(sim)])
    if command_dir == "trained":
        src = workspace / "trained"
        runner.invoke(cli.main, ["train", "--data", str(sim / "sequences.jsonl"),
                                 "--model-config", str(workspace / "model_config.json"),
                                 "--train-config", str(workspace / "train_config.json"),
                                 "--out", str(src)])
    else:
        src = sim
    replayed = workspace / f"{command_dir}_replayed"
    result = runner.invoke(cli.main, ["replay", str(src / "manifest.json"),
                                      "--out", str(replayed)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((src / "manifest.json").read_text())
    for name, entry in manifest["artifacts"].items():
        if entry["reproducible"]:
            assert (src / entry["path"]).read_bytes() == (replayed / entry["path"]).read_bytes()


def sd_sample_arguments(workspace, **extra):
    return {"mode": "sd", "target": str(workspace / "target.json"),
            "draft": str(workspace / "draft.json"), "gamma": 3, "t_end": 5.0, "runs": 2,
            "seed": 4, **extra}


@pytest.mark.parametrize("manifest", [
    lambda ws: [{"command": "simulate", "arguments": {"n": 3}}],
    lambda ws: {"command": "simulate"},
    lambda ws: {"command": "simulate", "arguments": [3]},
    lambda ws: {"command": "simulate", "arguments": {"n": 3}},
    # a rule other than the exact one no longer exists
    lambda ws: {"command": "sample",
                "arguments": sd_sample_arguments(ws, policy="alg1-literal")},
    lambda ws: {"command": "simulate",
                "arguments": {"process": str(ws / "poisson.json"), "n": "3", "t_end": 5.0,
                              "seed": 1}},
    # open() would take the number as a file descriptor
    lambda ws: {"command": "sample", "arguments": sd_sample_arguments(ws, draft=5)},
    lambda ws: {"command": "sample", "arguments": sd_sample_arguments(ws, mode="xyz")},
    lambda ws: {"command": "sample", "arguments": sd_sample_arguments(ws, draft=None)},
    lambda ws: {"command": "eval-loglik",
                "arguments": {"sequences": str(ws / "missing.jsonl"), "sequences_b": None,
                              "scorer_a": 5, "scorer_b": f"process:{ws / 'poisson.json'}"}},
], ids=["list", "no-arguments", "arguments-list", "missing-argument", "other-policy",
        "wrong-type", "path-number", "other-mode", "sd-without-draft", "scorer-number"])
def test_replay_bad_manifest_exit_2(runner, workspace, manifest):
    path = workspace / "bad_manifest.json"
    path.write_text(json.dumps(manifest(workspace)))
    result = runner.invoke(cli.main, ["replay", str(path), "--out", str(workspace / "r")])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "bad_manifest.json" in result.output
    # the run failed before writing anything, so it leaves no output directory
    assert not (workspace / "r").exists()


def test_replay_of_a_recorded_adjusted_policy_is_byte_identical(runner, workspace):
    """Manifests written while the acceptance rule was an option record
    ``"policy": "adjusted"``; they replay to the sequences of today's run."""
    cli._execute("sample", sd_sample_arguments(workspace), workspace / "today")
    manifest = json.loads((workspace / "today" / "manifest.json").read_text())
    manifest["arguments"]["policy"] = "adjusted"
    old = workspace / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    result = runner.invoke(cli.main, ["replay", str(old), "--out", str(workspace / "r")])
    assert result.exit_code == 0, result.output
    assert ((workspace / "r" / "sequences.jsonl").read_bytes()
            == (workspace / "today" / "sequences.jsonl").read_bytes())


def test_numerical_failure_maps_to_exit_3(runner, workspace, monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic numerical failure")

    monkeypatch.setattr(cli, "ar_sample", boom)
    result = runner.invoke(cli.main, ["sample", "--mode", "ar", "--target",
                                      str(workspace / "target.json"), "--t-end", "5",
                                      "--out", str(workspace / "numfail")])
    assert result.exit_code == 3


@pytest.mark.parametrize("case", ["sample", "bench", "eval-wasserstein", "eval-loglik",
                                  "simulate", "train"])
def test_non_finite_model_output_maps_to_exit_3(runner, workspace, case):
    """Every command turns a non-finite value, from an overflowing model,
    process or training step, into exit 3, from the command line and from
    a replayed manifest alike."""
    # 30 thp layers with value projections scaled by 1e12 overflow the
    # residual stream: NaN heads
    deep = init_checkpoint(ModelConfig(embed_dim=16, n_marks=2, n_layers=30), RngStream(3))
    for layer in range(30):
        deep.params[f"layers.{layer}.v"] = deep.params[f"layers.{layer}.v"] * 1e12
    save_checkpoint(workspace / "deep.json", deep)
    write_sequences(workspace / "history.jsonl",
                    [sequence_from_arrays([0.5, 1.0, 1.5, 2.0], [0, 1, 0, 1], 5.0)])
    # the bound after the first event, mu + alpha, overflows; with a small
    # mu the clock would stall first, on intervals of about 1 / alpha
    (workspace / "overflow.json").write_text(json.dumps({
        "kind": "hawkes", "mu": [1e308], "alpha": [[1e308]], "beta": [[2.0]]}))
    (workspace / "overflow_train.json").write_text(json.dumps({
        "learning_rate": 1e200, "batch_size": 8, "max_epochs": 2, "patience": 2, "seed": 3}))
    write_sequences(workspace / "data.jsonl", [sequence_from_arrays([0.5, 1.0], [0, 0], 2.0)] * 10)
    deep, draft = str(workspace / "deep.json"), str(workspace / "draft.json")
    history = str(workspace / "history.jsonl")
    args = {
        "sample": {"mode": "sd", "target": deep, "draft": draft, "gamma": 5, "t_end": 100.0,
                   "runs": 1, "seed": 0},
        "bench": {"target": deep, "draft": draft, "gamma_grid": [2], "repetitions": 1,
                  "runs": 1, "t_end": 5.0, "seed": 0},
        "eval-wasserstein": {"target": deep, "draft": None, "sequences": history, "m_hist": 3,
                             "n_reps": 2, "gamma": 2, "seed": 0},
        "eval-loglik": {"sequences": history, "sequences_b": None, "scorer_a": f"model:{deep}",
                        "scorer_b": f"process:{workspace / 'poisson.json'}"},
        "simulate": {"process": str(workspace / "overflow.json"), "n": 2, "t_end": 5.0,
                     "seed": 0},
        "train": {"data": str(workspace / "data.jsonl"),
                  "model_config": str(workspace / "model_config.json"),
                  "train_config": str(workspace / "overflow_train.json")},
    }[case]
    with np.errstate(all="ignore"):
        assert_exit_from_command_line_and_replay(runner, workspace, case, args, 3, "non-finite")


@pytest.mark.parametrize("mode", ["ar", "sd"])
def test_stalled_clock_maps_to_exit_3(runner, workspace, stalling_checkpoint, mode):
    """An interval too small to move the clock is a numerical failure."""
    save_checkpoint(workspace / "stall.json", stalling_checkpoint)
    stall = str(workspace / "stall.json")
    args = {"mode": mode, "target": stall, "draft": stall if mode == "sd" else None,
            "gamma": 5, "t_end": 20.0, "runs": 1, "seed": 0}
    assert_exit_from_command_line_and_replay(runner, workspace, "sample", args, 3,
                                             "does not move the clock")


def test_stalled_simulation_clock_maps_to_exit_3(runner, workspace):
    """After the first event of this Hawkes process the thinning bound is
    about 1e200, so each proposed interval is below the clock's last bit;
    the simulation used to grow its event list without end."""
    (workspace / "stall.json").write_text(json.dumps({
        "kind": "hawkes", "mu": [1.0], "alpha": [[1e200]], "beta": [[1.0]]}))
    args = {"process": str(workspace / "stall.json"), "n": 2, "t_end": 10.0, "seed": 0}
    assert_exit_from_command_line_and_replay(runner, workspace, "simulate", args, 3,
                                             "does not move the clock")


@pytest.mark.parametrize("case", ["bench-short-horizon", "ks-mark-range", "loglik-mark-range",
                                  "ks-poisson-mark-range", "loglik-poisson-mark-range",
                                  "ks-decreasing-times", "ks-after-horizon",
                                  "loglik-after-horizon", "loglik-model-after-horizon",
                                  "ks-nan-time", "ks-nan-horizon", "loglik-nan-time",
                                  "loglik-nan-horizon", "loglik-model-nan-time",
                                  "loglik-model-nan-horizon"])
def test_unscorable_input_exit_2(runner, workspace, case):
    """A horizon too short for any event leaves bench no likelihood to
    normalise, and a mark outside a Hawkes or sine-Poisson process's range
    or times that decrease or pass t_end cannot be scored, the last by a
    model either: all are data errors, not tracebacks. So are a NaN time
    and a NaN horizon, which JSON lines can hold: the scorers used to
    write NaN, and the model scorer to exit 3."""
    wide = str(workspace / "wide.jsonl")
    write_sequences(wide, [sequence_from_arrays([0.5, 1.0, 1.5], [0, 1, 0], 5.0)])
    unordered = str(workspace / "unordered.jsonl")
    write_sequences(unordered, [sequence_from_arrays([2.0, 1.0, 2.5], [0, 0, 0], 3.0)])
    late = str(workspace / "late.jsonl")
    write_sequences(late, [sequence_from_arrays([1.0, 3.0], [0, 0], 2.0)])
    nan_time, nan_horizon = str(workspace / "nan_time.jsonl"), str(workspace / "nan_horizon.jsonl")
    write_sequences(nan_time, [sequence_from_arrays([1.0, float("nan"), 3.0], [0, 0, 0], 10.0)])
    write_sequences(nan_horizon, [sequence_from_arrays([1.0, 2.0, 3.0], [0, 0, 0], float("nan"))])
    hawkes, poisson = str(workspace / "hawkes.json"), str(workspace / "poisson.json")
    target = str(workspace / "target.json")
    command, args, message = {
        "bench-short-horizon": ("bench", {"target": target,
                                          "draft": str(workspace / "draft.json"),
                                          "gamma_grid": [2], "repetitions": 1, "runs": 1,
                                          "t_end": 1e-9, "seed": 0},
                                "likelihood normalization requires at least one event"),
        "ks-mark-range": ("eval-ks", {"sequences": wide, "process": hawkes},
                          "mark out of range at index 1"),
        "loglik-mark-range": ("eval-loglik", {"sequences": wide, "sequences_b": None,
                                              "scorer_a": f"process:{hawkes}",
                                              "scorer_b": f"process:{hawkes}"},
                              "mark out of range at index 1"),
        "ks-poisson-mark-range": ("eval-ks", {"sequences": wide, "process": poisson},
                                  "mark out of range at index 1"),
        "loglik-poisson-mark-range": ("eval-loglik", {"sequences": wide, "sequences_b": None,
                                                      "scorer_a": f"process:{poisson}",
                                                      "scorer_b": f"process:{poisson}"},
                                      "mark out of range at index 1"),
        "ks-decreasing-times": ("eval-ks", {"sequences": unordered, "process": hawkes},
                                "non-monotone at index 1"),
        "ks-after-horizon": ("eval-ks", {"sequences": late, "process": hawkes},
                             "exceeds horizon at index 1"),
        "loglik-after-horizon": ("eval-loglik", {"sequences": late, "sequences_b": None,
                                                 "scorer_a": f"process:{hawkes}",
                                                 "scorer_b": f"process:{hawkes}"},
                                 "exceeds horizon at index 1"),
        "loglik-model-after-horizon": ("eval-loglik", {"sequences": late, "sequences_b": None,
                                                       "scorer_a": f"model:{target}",
                                                       "scorer_b": f"model:{target}"},
                                       "exceeds horizon at index 1"),
        "ks-nan-time": ("eval-ks", {"sequences": nan_time, "process": hawkes}, "non-finite time nan at index 1"),
        "ks-nan-horizon": ("eval-ks", {"sequences": nan_horizon, "process": hawkes},
                           "t_end must be positive and finite"),
        "loglik-nan-time": ("eval-loglik", {"sequences": nan_time, "sequences_b": None,
                                            "scorer_a": f"process:{hawkes}",
                                            "scorer_b": f"process:{hawkes}"}, "non-finite time nan at index 1"),
        "loglik-nan-horizon": ("eval-loglik", {"sequences": nan_horizon, "sequences_b": None,
                                               "scorer_a": f"process:{hawkes}",
                                               "scorer_b": f"process:{hawkes}"}, "t_end must be positive and finite"),
        "loglik-model-nan-time": ("eval-loglik", {"sequences": nan_time, "sequences_b": None,
                                                  "scorer_a": f"model:{target}",
                                                  "scorer_b": f"model:{target}"}, "non-finite time nan at index 1"),
        "loglik-model-nan-horizon": ("eval-loglik", {"sequences": nan_horizon,
                                                     "sequences_b": None,
                                                     "scorer_a": f"model:{target}",
                                                     "scorer_b": f"model:{target}"},
                                     "t_end must be positive and finite"),
    }[case]
    assert_exit_from_command_line_and_replay(runner, workspace, command, args, 2, message)


def test_bad_gamma_grid_is_usage_error(runner, workspace):
    result = runner.invoke(cli.main, ["bench", "--target", str(workspace / "target.json"),
                                      "--draft", str(workspace / "draft.json"),
                                      "--gamma-grid", "a,b", "--out", str(workspace / "x")])
    assert result.exit_code == 1


def test_checkpoint_version_mismatch_exit_2(runner, workspace):
    doc = json.loads((workspace / "target.json").read_text())
    doc["format_version"] = 9
    bad = workspace / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(cli.main, ["sample", "--mode", "ar", "--target", str(bad),
                                      "--t-end", "5", "--out", str(workspace / "x")])
    assert result.exit_code == 2
    assert "format_version" in result.output


@pytest.mark.parametrize("flag, config", [
    ("--model-config", {"embed_dim": 3, "n_components": 4}),
    ("--model-config", {"embed_dim": 8, "no_such_field": 1}),
    ("--train-config", {"learning_rate": -1}),
    ("--train-config", [0.01, 8]),
    # fields removed from ModelConfig are unknown, not ignored
    ("--model-config", {"use_feedforward": True}),
    ("--model-config", {"attention": "attnhp"}),
    # nor are names TrainConfig does not hold, such as the Adam constants
    ("--train-config", {"beta1": 0.9}),
    # fields of the wrong type: an integer field must hold an int, and the
    # learning rate a finite real number, neither of them a bool
    ("--model-config", {"embed_dim": 8.0, "n_components": 4}),
    ("--model-config", {"embed_dim": 8, "n_heads": True}),
    ("--train-config", {"batch_size": 2.5}),
    ("--train-config", {"seed": 1.0}),
    ("--train-config", {"learning_rate": True}),
    ("--train-config", {"learning_rate": math.nan}),
])
def test_bad_config_file_exit_2(runner, workspace, flag, config):
    data = workspace / "sequences.jsonl"
    write_sequences(data, [sequence_from_arrays([0.5, 1.0], [0, 0], 2.0)] * 10)
    bad = workspace / "bad_config.json"
    bad.write_text(json.dumps(config))
    configs = {"--model-config": str(workspace / "model_config.json"),
               "--train-config": str(workspace / "train_config.json"), flag: str(bad)}
    result = runner.invoke(cli.main, ["train", "--data", str(data),
                                      *[a for pair in configs.items() for a in pair],
                                      "--out", str(workspace / "t")])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "bad_config.json" in result.output


@pytest.mark.parametrize("flag, text", [
    ("--target", lambda ckpt: json.dumps([ckpt])),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": list(ckpt["params"].values())})),
    ("--target", lambda ckpt: json.dumps(
        {**ckpt, "params": {**ckpt["params"], "initial_context": 0.5}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {**ckpt["params"]["initial_context"],
                                              "shape": "8"}}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {"shape": [8], "data": {"0": 0.5}}}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {"shape": [8], "data": [0.5] * 7}}})),
    # data that np.asarray would parse, cast, flatten or overflow
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {"shape": [8], "data": ["0.25"] + [0.5] * 7}}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {"shape": [8], "data": [True] + [0.5] * 7}}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {"shape": [8], "data": [[0.5]] * 8}}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "params": {
        **ckpt["params"], "initial_context": {"shape": [8], "data": [10 ** 400] + [0.5] * 7}}})),
    # config fields of the wrong type, or a head count that divides nothing
    ("--target", lambda ckpt: json.dumps({**ckpt, "config": {**ckpt["config"], "embed_dim": 8.0}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "config": {**ckpt["config"], "n_heads": True}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "config": {**ckpt["config"], "n_heads": 0}})),
    ("--target", lambda ckpt: json.dumps({**ckpt, "config": {**ckpt["config"], "n_heads": -2}})),
    # a checkpoint without one of its fields
    ("--target", lambda ckpt: json.dumps({k: v for k, v in ckpt.items() if k != "config"})),
    ("--target", lambda ckpt: json.dumps({k: v for k, v in ckpt.items() if k != "params"})),
    ("--process", lambda ckpt: json.dumps([{"kind": "sine_poisson"}])),
    # a non-finite parameter, written as json writes NaN and Infinity
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": 5.0, "b": 1.0, "omega": math.nan})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": 5.0, "b": 1.0, "omega": math.inf})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": math.nan, "b": 1.0, "omega": 0.02})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": 5.0, "b": math.nan, "omega": 0.02})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "hawkes", "mu": [math.nan], "alpha": [[1.0]], "beta": [[2.0]]})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "hawkes", "mu": [math.inf], "alpha": [[1.0]], "beta": [[2.0]]})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "hawkes", "mu": [2.5], "alpha": [[math.nan]], "beta": [[2.0]]})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "hawkes", "mu": [2.5], "alpha": [[1.0]], "beta": [[math.nan]]})),
    # a parameter that is not a JSON number
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": "2", "b": 1.0, "omega": 0.5})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": 2.0, "b": True, "omega": 0.5})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "hawkes", "mu": ["0.4", 0.4], "alpha": [[1.0, 0.5], [0.1, 1.0]],
         "beta": [[2.0, 2.0], [2.0, 2.0]]})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "hawkes", "mu": [0.4, 0.4], "alpha": [[1.0, 0.5], [0.1, True]],
         "beta": [[2.0, 2.0], [2.0, 2.0]]})),
    ("--process", lambda ckpt: json.dumps(
        {"kind": "sine_poisson", "A": 10 ** 400, "b": 1.0, "omega": 0.5})),
    ("--data", lambda ckpt: json.dumps([2.0, [[0.5, 0]]]) + "\n"),
    ("--data", lambda ckpt: json.dumps({"t_end": 2.0, "events": 5}) + "\n"),
    ("--data", lambda ckpt: json.dumps({"t_end": 10 ** 400, "events": [[1.0, 0]]}) + "\n"),
], ids=["checkpoint-list", "params-list", "param-number", "shape-string", "data-object",
        "data-misfit", "data-string", "data-bool", "data-nested", "data-huge-int",
        "config-float-embed-dim", "config-bool-n-heads", "config-zero-n-heads",
        "config-negative-n-heads", "no-config", "no-params", "process-list",
        "sine-omega-nan", "sine-omega-inf", "sine-a-nan", "sine-b-nan", "hawkes-mu-nan",
        "hawkes-mu-inf", "hawkes-alpha-nan", "hawkes-beta-nan", "sine-a-string",
        "sine-b-bool", "hawkes-mu-string", "hawkes-alpha-bool", "sine-a-huge-int", "sequence-list",
        "events-number", "t-end-huge-int"])
def test_malformed_json_input_exit_2(runner, workspace, flag, text):
    bad = workspace / "bad.json"
    bad.write_text(text(json.loads((workspace / "target.json").read_text())))
    # a checkpoint that lacks a field is refused by the field's name
    missing = [f"no {name!r} field" for name in ("config", "params")
               if flag == "--target" and f'"{name}"' not in bad.read_text()]
    commands = {
        "--target": ["sample", "--mode", "ar", "--t-end", "5"],
        "--process": ["simulate", "--n", "2", "--t-end", "5"],
        "--data": ["train", "--model-config", str(workspace / "model_config.json"),
                   "--train-config", str(workspace / "train_config.json")],
    }
    result = runner.invoke(cli.main, [*commands[flag], flag, str(bad),
                                      "--out", str(workspace / "x")])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "bad.json" in result.output
    assert all(message in result.output for message in missing)


@pytest.mark.parametrize("case", ["sample-sd", "bench", "wasserstein-draft",
                                  "wasserstein-history", "wasserstein-history-no-draft"])
def test_mismatched_mark_cardinality_exit_2(runner, workspace, case):
    """A 3-mark draft for a 2-mark target, or a history whose marks lie
    outside the checkpoints' range, is a data error from the command line
    and from a replayed manifest alike, not a traceback."""
    save_checkpoint(workspace / "draft3.json",
                    init_checkpoint(ModelConfig(embed_dim=8, n_components=4, n_marks=3),
                                    RngStream(5)))
    for name, marks in (("history", [0, 1, 0, 1]), ("wide", [0, 2, 0, 1])):
        write_sequences(workspace / f"{name}.jsonl",
                        [sequence_from_arrays([0.5, 1.0, 1.5, 2.0], marks, 5.0)])
    target, draft3 = str(workspace / "target.json"), str(workspace / "draft3.json")
    wasserstein = {"target": target, "draft": draft3,
                   "sequences": str(workspace / "history.jsonl"), "m_hist": 3, "n_reps": 2,
                   "gamma": 2, "seed": 0}
    wide = {**wasserstein, "sequences": str(workspace / "wide.jsonl")}
    command, args, message = {
        "sample-sd": ("sample", sd_sample_arguments(workspace, draft=draft3), "mark cardinality"),
        "bench": ("bench", {"target": target, "draft": draft3, "gamma_grid": [2],
                            "repetitions": 1, "runs": 1, "t_end": 5.0, "seed": 0},
                  "mark cardinality"),
        "wasserstein-draft": ("eval-wasserstein", wasserstein, "mark cardinality"),
        "wasserstein-history": ("eval-wasserstein", {**wide, "draft": str(workspace / "draft.json")},
                                "mark out of range at index 1"),
        "wasserstein-history-no-draft": ("eval-wasserstein", {**wide, "draft": None},
                                         "mark out of range at index 1"),
    }[case]
    assert_exit_from_command_line_and_replay(runner, workspace, command, args, 2, message)


@pytest.mark.parametrize("draft", [True, False], ids=["draft", "no-draft"])
@pytest.mark.parametrize("times, message", [
    ([0.5, 0.3, 1.5, 2.0], "non-monotone at index 1"),
    ([0.5, math.nan, 1.5, 2.0], "non-finite time nan at index 1"),
], ids=["decreasing-time", "nan-time"])
def test_eval_wasserstein_refuses_an_invalid_history(runner, workspace, times, message, draft):
    """The history that eval wasserstein conditions on is validated as a
    sequence: a decreasing time, which was scored, and a NaN time, which
    exited 3, are data errors (exit 2) from the command line and from a
    replayed manifest alike, with and without a draft."""
    write_sequences(workspace / "history.jsonl", [sequence_from_arrays(times, [0, 1, 0, 1], 5.0)])
    args = {"target": str(workspace / "target.json"),
            "draft": str(workspace / "draft.json") if draft else None,
            "sequences": str(workspace / "history.jsonl"), "m_hist": 3, "n_reps": 2,
            "gamma": 2, "seed": 0}
    assert_exit_from_command_line_and_replay(runner, workspace, "eval-wasserstein", args, 2,
                                             message)


# Each violation of the one sequence rule (core.check_sequence), as a JSON
# lines record's events and t_end, with the words its refusal names. The
# checkpoints and the Hawkes process below have two marks.
RULE_VIOLATIONS = {
    "decreasing-time": ([[1.0, 0], [0.5, 1], [2.0, 0]], 5.0, "non-monotone at index 1"),
    "tie": ([[1.0, 0], [1.0, 1], [2.0, 0]], 5.0, "non-monotone at index 1"),
    "time-zero": ([[0.0, 0], [1.0, 1], [2.0, 0]], 5.0, "non-monotone at index 0"),
    "negative-time": ([[-1.0, 0], [1.0, 1], [2.0, 0]], 5.0, "non-monotone at index 0"),
    "nan-time": ([[1.0, 0], [math.nan, 1], [2.0, 0]], 5.0, "non-finite time nan at index 1"),
    "infinite-time": ([[1.0, 0], [1.5, 1], [math.inf, 0]], 5.0,
                      "non-finite time inf at index 2"),
    "nan-t-end": ([[1.0, 0], [1.5, 1]], math.nan, "t_end must be positive and finite"),
    "infinite-t-end": ([[1.0, 0], [1.5, 1]], math.inf, "t_end must be positive and finite"),
    "t-end-not-positive": ([], -50.0, "t_end must be positive and finite"),
    "time-after-t-end": ([[1.0, 0], [3.0, 1]], 2.0, "exceeds horizon at index 1"),
    "negative-mark": ([[1.0, 0], [1.5, -1]], 5.0, "mark out of range at index 1"),
    "mark-too-large": ([[1.0, 0], [1.5, 2]], 5.0, "mark out of range at index 1"),
    "mark-beyond-int64": ([[1.0, 0], [1.5, 10**30]], 5.0, "mark out of range at index 1"),
    "fractional-mark": ([[1.0, 0.7], [2.0, 1.9]], 5.0, "cannot be interpreted as an integer"),
    "bool-mark": ([[1.0, 0], [1.5, True]], 5.0, "mark True is not an integer"),
    "string-time": ([[1.0, 0], ["1.5", 1]], 5.0, "time '1.5' is not a number"),
    "string-t-end": ([[1.0, 0], [1.5, 1]], "5", "t_end '5' is not a number"),
}
HAWKES_2D_RECORD = {"kind": "hawkes", "mu": [0.4, 0.4], "alpha": [[1.0, 0.5], [0.1, 1.0]],
                    "beta": [[2.0, 2.0], [2.0, 2.0]]}
LIBRARY_BOUNDARIES = ["validate_sequence", "time_rescale", "ground_truth_loglik",
                      "sequence_loglik", "nll_batch", "ar_sample-history",
                      "tpp_sd_sample-history", "next_event_divergence"]
COMMAND_BOUNDARIES = ["eval-ks", "eval-loglik-process", "eval-loglik-model", "eval-wasserstein",
                      "train"]


@pytest.mark.parametrize("boundary", LIBRARY_BOUNDARIES + COMMAND_BOUNDARIES)
@pytest.mark.parametrize("violation", list(RULE_VIOLATIONS))
def test_every_boundary_refuses_every_violation_of_the_sequence_rule(runner, workspace,
                                                                      violation, boundary):
    """Every place a sequence enters applies one rule: the library raises
    ValueError naming the violation, and each command exits 2 from the
    command line and from a replayed manifest alike. The file holds the
    invalid record and then a valid one, so a scorer that let the first
    through would write a mean. The samplers' run ends at 1.0, before the
    history's last event, so no forward reads their history: ar_sample used
    to return a history's out-of-range mark or decreasing times as sampled."""
    events, t_end, message = RULE_VIOLATIONS[violation]
    data = workspace / "rule.jsonl"
    data.write_text(json.dumps({"t_end": t_end, "events": events}) + "\n"
                    + json.dumps({"t_end": 5.0, "events": [[0.5, 0], [1.0, 1]]}) + "\n")
    hawkes = workspace / "hawkes2d.json"
    hawkes.write_text(json.dumps(HAWKES_2D_RECORD))
    target, draft = str(workspace / "target.json"), str(workspace / "draft.json")
    if boundary in COMMAND_BOUNDARIES:
        (workspace / "model_config2.json").write_text(json.dumps({
            "embed_dim": 8, "n_components": 4, "n_marks": 2}))
        loglik = {"sequences": str(data), "sequences_b": None}
        command, args = {
            "eval-ks": ("eval-ks", {"sequences": str(data), "process": str(hawkes)}),
            "eval-loglik-process": ("eval-loglik", {**loglik, "scorer_a": f"process:{hawkes}",
                                                    "scorer_b": f"process:{hawkes}"}),
            "eval-loglik-model": ("eval-loglik", {**loglik, "scorer_a": f"model:{target}",
                                                  "scorer_b": f"model:{target}"}),
            "eval-wasserstein": ("eval-wasserstein", {
                "target": target, "draft": draft, "sequences": str(data),
                "m_hist": len(events), "n_reps": 1, "gamma": 1, "seed": 0}),
            "train": ("train", {"data": str(data),
                                "model_config": str(workspace / "model_config2.json"),
                                "train_config": str(workspace / "train_config.json")}),
        }[boundary]
        assert_exit_from_command_line_and_replay(runner, workspace, command, args, 2, message)
        return
    process = process_from_record(HAWKES_2D_RECORD)
    target, draft = load_checkpoint(Path(target)), load_checkpoint(Path(draft))

    def validated(seq):
        report = validate_sequence(seq, 2)
        if not report.ok:
            raise ValueError(report.message)

    call = {
        "validate_sequence": validated,
        "time_rescale": lambda seq: time_rescale(seq, process),
        "ground_truth_loglik": lambda seq: ground_truth_loglik(seq, process),
        "sequence_loglik": lambda seq: sequence_loglik(seq, target),
        "nll_batch": lambda seq: nll_batch(target, [seq]),
        "ar_sample-history": lambda seq: sampler.ar_sample(target, 1.0, RngStream(0),
                                                           history=seq),
        "tpp_sd_sample-history": lambda seq: sampler.tpp_sd_sample(target, draft, 1.0, 2,
                                                                   RngStream(0), history=seq),
        "next_event_divergence": lambda seq: next_event_divergence(target, draft, seq, len(seq),
                                                                   1, 2, RngStream(0)),
    }[boundary]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(read_sequences(data)[0])


def assert_exit_from_command_line_and_replay(runner, workspace, command, args, code, message):
    """Run ``command`` with ``args`` as options and then as a replayed
    manifest: each exits ``code`` with an error naming ``message``, no
    traceback, and no output directory; the replay's error names the
    manifest too."""
    argv = command.split("-", 1) if command.startswith("eval-") else [command]
    for key, value in args.items():
        if value is not None:
            value = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [f"--{key.replace('_', '-')}", value]
    result = runner.invoke(cli.main, [*argv, "--out", str(workspace / "x")])
    assert result.exit_code == code, result.output
    assert "Error:" in result.output and message in result.output
    path = workspace / "manifest.json"
    path.write_text(json.dumps({"command": command, "arguments": args}))
    result = runner.invoke(cli.main, ["replay", str(path), "--out", str(workspace / "r")])
    assert result.exit_code == code, result.output
    assert message in result.output and "Traceback" not in result.output
    assert f"manifest {path}:" in result.output
    assert not (workspace / "x").exists() and not (workspace / "r").exists()


def test_checkpoint_bad_config_exit_2(runner, workspace):
    doc = json.loads((workspace / "target.json").read_text())
    doc["config"]["no_such_field"] = 1
    bad = workspace / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(cli.main, ["sample", "--mode", "ar", "--target", str(bad),
                                      "--t-end", "5", "--out", str(workspace / "x")])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "no_such_field" in result.output


@pytest.mark.parametrize("command", [
    ["simulate", "--process", "{ws}/poisson.json", "--n", "2", "--t-end", "nan"],
    ["simulate", "--process", "{ws}/poisson.json", "--n", "2", "--t-end", "-5"],
    ["sample", "--mode", "ar", "--target", "{ws}/target.json", "--t-end", "nan"],
    ["sample", "--mode", "ar", "--target", "{ws}/target.json", "--t-end", "inf"],
    ["sample", "--mode", "ar", "--target", "{ws}/target.json", "--t-end", "-1"],
    ["sample", "--mode", "sd", "--target", "{ws}/target.json", "--draft", "{ws}/draft.json",
     "--t-end", "nan"],
    ["bench", "--target", "{ws}/target.json", "--draft", "{ws}/draft.json", "--gamma-grid", "1",
     "--repetitions", "1", "--runs", "1", "--t-end", "-1"],
], ids=["simulate-nan", "simulate-negative", "ar-nan", "ar-inf", "ar-negative", "sd-nan",
        "bench-negative"])
def test_horizon_not_finite_and_positive_exit_2(workspace, command):
    """Without the horizon check some of these commands never returned, so
    each runs in its own process under a timeout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [arg.format(ws=workspace) for arg in command] + ["--out", str(workspace / "x")]
    result = subprocess.run([sys.executable, "-m", "spectpp.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Error:" in result.stderr and "t_end" in result.stderr
    assert not (workspace / "x").exists()


def test_range_errors_exit_2_from_command_line_and_replay(runner, workspace):
    """The range checks live in the runners, so a replayed manifest meets
    them as the command line does; only parse errors stay exit 1."""
    sample_dir = workspace / "history"
    runner.invoke(cli.main, ["sample", "--mode", "ar", "--target",
                             str(workspace / "target.json"), "--t-end", "40",
                             "--seed", "10", "--out", str(sample_dir)])
    wasserstein = ["eval", "wasserstein", "--target", str(workspace / "target.json"),
                   "--sequences", str(sample_dir / "sequences.jsonl"), "--m-hist", "5"]
    bench = ["bench", "--target", str(workspace / "target.json"),
             "--draft", str(workspace / "draft.json"), "--t-end", "5"]
    for argv, message in [(wasserstein + ["--n-reps", "0"], "n_reps must be >= 1"),
                          (wasserstein + ["--m-hist", "-1"], "m_hist must be >= 0"),
                          (bench + ["--gamma-grid", "0"], "gamma_grid needs positive integers"),
                          (bench + ["--gamma-grid", "5,3,5"], "gamma_grid repeats 5"),
                          (bench + ["--repetitions", "0"], "repetitions and runs must be >= 1"),
                          (["sample", "--mode", "ar", "--target", str(workspace / "target.json"),
                            "--t-end", "5", "--runs", "0"], "runs must be >= 1")]:
        result = runner.invoke(cli.main, [*argv, "--out", str(workspace / "x")])
        assert result.exit_code == 2, (argv, result.output)
        assert "Error:" in result.output and message in result.output
        assert not (workspace / "x").exists()
    for override, message in [({"gamma": 0}, "gamma must be >= 1"),
                              ({"runs": 0}, "runs must be >= 1")]:
        path = workspace / "manifest.json"
        path.write_text(json.dumps({"command": "sample",
                                    "arguments": sd_sample_arguments(workspace, **override)}))
        result = runner.invoke(cli.main, ["replay", str(path), "--out", str(workspace / "r")])
        assert result.exit_code == 2, result.output
        assert "Error:" in result.output and message in result.output
        assert not (workspace / "r").exists()
