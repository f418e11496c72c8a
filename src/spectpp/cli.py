"""Command-line interface: dataset simulation, training, sampling,
evaluation, and the draft-length benchmark harness.

Every command resolves its inputs into a plain-arguments dictionary,
executes, and writes a ``manifest.json`` holding that dictionary, the
produced artifact paths and the software and hardware environment.
``spectpp replay`` re-executes a manifest into a fresh directory; artifacts
flagged reproducible come out byte-identical (tables with wall-clock
columns cannot).

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure. ``_execute`` runs every command, replayed or not, and
is the one place that maps the library's failures: a ``FloatingPointError``
(a non-finite value anywhere) to exit 3 and a ``ValueError`` (a refused
input) to exit 2.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import platform
import time
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__
from . import evaluation as ev
from .classical import ground_truth_loglik, make_synthetic_dataset, process_from_record
from .core import EventSequence, RngStream, read_sequences, validate_sequence, write_sequences
from .model import ModelConfig, load_checkpoint, save_checkpoint, sequence_loglik
from .sampler import ar_sample, check_pair, tpp_sd_sample
from .training import TrainConfig, split_dataset, train as run_training

click.UsageError.exit_code = 1


class DataError(click.ClickException):
    exit_code = 2


class NumericalError(click.ClickException):
    exit_code = 3


def _require(ok: bool, message: str) -> None:
    """Refuse an argument outside its range, from the command line or a
    replayed manifest alike."""
    if not ok:
        raise DataError(message)


def _load(what: str, loader, path):
    """``loader(Path(path))``; a missing file, or one that does not load,
    is a data error that names the path."""
    try:
        # Path() raises TypeError for a number from a manifest, which open()
        # would take as a file descriptor
        return loader(Path(path))
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad {what} {path}: {exc}")


def _read_process(path: Path):
    return process_from_record(json.loads(path.read_bytes()))


def _read_config(cls):
    return lambda path: cls(**json.loads(path.read_bytes()))


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# command implementations (shared by the CLI wrappers and `replay`)
# ---------------------------------------------------------------------------

def run_simulate(args: dict, out_dir: Path) -> dict:
    process = _load("process file", _read_process, args["process"])
    sequences = make_synthetic_dataset(process, args["n"], args["t_end"],
                                       RngStream(args["seed"]))
    write_sequences(out_dir / "sequences.jsonl", sequences)
    return {"sequences": {"path": "sequences.jsonl", "reproducible": True}}


def run_train(args: dict, out_dir: Path) -> dict:
    sequences = _load("sequence file", read_sequences, args["data"])
    if not sequences:
        raise DataError(f"no sequences in {args['data']}")
    model_config = _load("ModelConfig file", _read_config(ModelConfig), args["model_config"])
    train_config = _load("TrainConfig file", _read_config(TrainConfig), args["train_config"])
    for i, seq in enumerate(sequences):
        report = validate_sequence(seq, model_config.n_marks)
        if not report.ok:
            raise DataError(f"sequence {i} invalid: {report.message}")
    train_seqs, val_seqs, _ = split_dataset(sequences)
    if not train_seqs or not val_seqs:
        raise DataError("dataset too small for an 80/10/10 split")
    report = run_training(train_seqs, val_seqs, model_config, train_config)
    save_checkpoint(out_dir / "checkpoint.json", report.checkpoint)
    _write_table(out_dir / "report.csv",
                 ["epoch", "train_loglik", "val_loglik", "is_best"],
                 [[e, _format_cell(tr), _format_cell(va), int(e == report.best_epoch)]
                  for e, (tr, va) in enumerate(zip(report.train_loglik, report.val_loglik))])
    return {"checkpoint": {"path": "checkpoint.json", "reproducible": True},
            "report": {"path": "report.csv", "reproducible": True}}


_STATS_HEADER = ["run", "mode", "gamma", "n_events", "events_drafted", "events_accepted",
                 "alpha", "target_forward_passes", "draft_forward_passes",
                 "target_rows_encoded", "draft_rows_encoded",
                 "replacement_events", "residual_fallbacks", "residual_proposals",
                 "t_ar", "t_sd", "t_draft", "t_verify", "t_residual", "accepted_lengths"]
# the SampleRunStats counters that stats.csv reports for both modes (AR
# draws no residuals: its residual counters read 0), and for SD only
_STATS_SHARED = ("target_forward_passes", "target_rows_encoded", "residual_fallbacks",
                 "residual_proposals")
_STATS_SD = ("events_drafted", "events_accepted", "draft_forward_passes", "draft_rows_encoded",
             "replacement_events")


def run_sample(args: dict, out_dir: Path) -> dict:
    _require(args["runs"] >= 1, "runs must be >= 1")
    _require(args["gamma"] >= 1, "gamma must be >= 1")
    mode = args["mode"]
    _require(mode in ("ar", "sd"), f"mode must be 'ar' or 'sd', got {mode!r}")
    _require(mode == "ar" or bool(args.get("draft")), "mode sd needs a draft checkpoint")
    target = _load("checkpoint", load_checkpoint, args["target"])
    draft = _load("checkpoint", load_checkpoint, args["draft"]) if args.get("draft") else None
    root = RngStream(args["seed"])
    sequences, rows = [], []
    for run in range(args["runs"]):
        rng = root.child(f"run{run}")
        if mode == "ar":
            seq, stats = ar_sample(target, args["t_end"], rng)
        else:
            seq, stats = tpp_sd_sample(target, draft, args["t_end"], args["gamma"], rng)
        sequences.append(seq)
        cells = {"run": run, "mode": mode, "n_events": len(seq),
                 **{name: getattr(stats, name) for name in _STATS_SHARED}}
        if mode == "sd":
            cells.update({name: getattr(stats, name) for name in _STATS_SD},
                         gamma=args["gamma"], alpha=stats.acceptance_rate,
                         t_sd=stats.wall_seconds, t_draft=stats.draft_seconds,
                         t_verify=stats.verify_seconds, t_residual=stats.residual_seconds,
                         accepted_lengths=" ".join(map(str, stats.accepted_lengths)))
        else:
            cells["t_ar"] = stats.wall_seconds
        rows.append([_format_cell(cells.get(name)) for name in _STATS_HEADER])
    write_sequences(out_dir / "sequences.jsonl", sequences)
    _write_table(out_dir / "stats.csv", _STATS_HEADER, rows)
    return {"sequences": {"path": "sequences.jsonl", "reproducible": True},
            "stats": {"path": "stats.csv", "reproducible": False}}


def run_eval_ks(args: dict, out_dir: Path) -> dict:
    process = _load("process file", _read_process, args["process"])
    sequences = _load("sequence file", read_sequences, args["sequences"])
    pooled: list[float] = []
    for seq in sequences:
        pooled.extend(ev.time_rescale(seq, process).tolist())
    if not pooled:
        raise DataError("no events to rescale")
    report = ev.ks_statistic(pooled)
    _write_table(out_dir / "ks.csv", ["n", "d_ks", "band", "passed"],
                 [[report.n, _format_cell(report.d_ks), _format_cell(report.band),
                   int(report.passed)]])
    _write_table(out_dir / "ks_plot.csv", ["theoretical_cdf", "empirical_cdf"],
                 [[_format_cell(a), _format_cell(b)] for a, b in report.plot_data])
    return {"ks": {"path": "ks.csv", "reproducible": True},
            "ks_plot": {"path": "ks_plot.csv", "reproducible": True}}


def run_eval_wasserstein(args: dict, out_dir: Path) -> dict:
    _require(args["gamma"] >= 1, "gamma must be >= 1")
    target = _load("checkpoint", load_checkpoint, args["target"])
    draft = _load("checkpoint", load_checkpoint, args["draft"]) if args.get("draft") else None
    history = None
    for seq in _load("sequence file", read_sequences, args["sequences"]):
        if len(seq) >= args["m_hist"]:
            history = seq
            break
    if history is None:
        raise DataError(f"no sequence with at least {args['m_hist']} events")
    # next_event_divergence checks m_hist and n_reps, the pair, then the
    # history's first m_hist events
    d_t, d_k = ev.next_event_divergence(target, draft, history, args["m_hist"],
                                        args["n_reps"], args["gamma"], RngStream(args["seed"]))
    _write_table(out_dir / "wasserstein.csv",
                 ["m_hist", "n_reps", "gamma", "d_ws_t", "d_ws_k"],
                 [[args["m_hist"], args["n_reps"], args["gamma"],
                   _format_cell(d_t), _format_cell(d_k)]])
    return {"wasserstein": {"path": "wasserstein.csv", "reproducible": True}}


def _make_scorer(spec: str):
    # a scorer from a manifest that is not a string raises TypeError here
    kind, _, path = str.partition(spec, ":")
    if kind == "process" and path:
        process = _load("process file", _read_process, path)
        return lambda seq: ground_truth_loglik(seq, process)
    if kind == "model" and path:
        checkpoint = _load("checkpoint", load_checkpoint, path)
        return lambda seq: sequence_loglik(seq, checkpoint)
    raise DataError(f"scorer must look like process:<file> or model:<file>, got {spec!r}")


def run_eval_loglik(args: dict, out_dir: Path) -> dict:
    scorer_a = _make_scorer(args["scorer_a"])
    scorer_b = _make_scorer(args["scorer_b"])
    seqs_a = _load("sequence file", read_sequences, args["sequences"])
    seqs_b = (_load("sequence file", read_sequences, args["sequences_b"])
              if args.get("sequences_b") else seqs_a)
    mean_a = ev.mean_loglik_per_event(seqs_a, scorer_a)
    mean_b = ev.mean_loglik_per_event(seqs_b, scorer_b)
    _write_table(out_dir / "loglik.csv",
                 ["loglik_a", "loglik_b", "delta_l"],
                 [[_format_cell(mean_a), _format_cell(mean_b),
                   _format_cell(abs(mean_a - mean_b))]])
    return {"loglik": {"path": "loglik.csv", "reproducible": True}}


# bench.csv's timing-independent columns: the SD runs' totals per gamma of
# these SampleRunStats counters
_BENCH_COUNTS = {"target_passes": "target_forward_passes", "draft_passes": "draft_forward_passes",
                 "target_rows": "target_rows_encoded", "draft_rows": "draft_rows_encoded"}


def run_bench(args: dict, out_dir: Path) -> dict:
    gamma_grid = args["gamma_grid"]
    reps, runs, t_end = args["repetitions"], args["runs"], args["t_end"]
    _require(len(gamma_grid) > 0 and min(gamma_grid) >= 1, "gamma_grid needs positive integers")
    _require(reps >= 1 and runs >= 1, "repetitions and runs must be >= 1")
    target = _load("checkpoint", load_checkpoint, args["target"])
    draft = _load("checkpoint", load_checkpoint, args["draft"])
    check_pair(target, draft)
    root = RngStream(args["seed"])

    def intervals(seqs):
        chunks = [s.inter_event_times() for s in seqs if len(s)]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    # AR and then every gamma inside each repetition, so that drift of the
    # machine's speed hits every column alike
    ar_pool: list[EventSequence] = []
    ar_seconds = 0.0
    sd_runs: dict[int, list] = {gamma: [] for gamma in gamma_grid}
    for rep in range(reps):
        for run in range(runs):
            seq, stats = ar_sample(target, t_end, root.child(f"ar-{rep}-{run}"))
            ar_seconds += stats.wall_seconds
            ar_pool.append(seq)
        for gamma in gamma_grid:
            for run in range(runs):
                sd_runs[gamma].append(tpp_sd_sample(target, draft, t_end, gamma,
                                                    root.child(f"sd-{gamma}-{rep}-{run}")))
    t_ar = ar_seconds / reps
    ar_mean_ll = ev.mean_loglik_per_event(ar_pool, lambda s: sequence_loglik(s, target))

    rows = []
    for gamma in gamma_grid:
        sd_pool = [seq for seq, _ in sd_runs[gamma]]

        def total(name, done=sd_runs[gamma]):
            return sum(getattr(stats, name) for _, stats in done)

        t_sd = total("wall_seconds") / reps
        sd_mean_ll = ev.mean_loglik_per_event(sd_pool, lambda s: sequence_loglik(s, target))
        distance = ev.wasserstein_1d(intervals(ar_pool), intervals(sd_pool))
        alpha = total("events_accepted") / max(1, total("events_drafted"))
        rows.append([gamma, _format_cell(alpha), _format_cell(t_ar), _format_cell(t_sd),
                     _format_cell(t_ar / t_sd), _format_cell(abs(ar_mean_ll - sd_mean_ll)),
                     _format_cell(distance), *(total(name) for name in _BENCH_COUNTS.values())])
    _write_table(out_dir / "bench.csv",
                 ["gamma", "alpha", "t_ar", "t_sd", "speedup", "delta_l", "distance",
                  *_BENCH_COUNTS], rows)
    return {"bench": {"path": "bench.csv", "reproducible": False}}


_RUNNERS = {
    "simulate": run_simulate,
    "train": run_train,
    "sample": run_sample,
    "eval-ks": run_eval_ks,
    "eval-wasserstein": run_eval_wasserstein,
    "eval-loglik": run_eval_loglik,
    "bench": run_bench,
}


def _environment() -> dict:
    """The software and hardware a command ran on, and a digest of the
    package's source files."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": (len(os.sched_getaffinity(0))
                             if hasattr(os, "sched_getaffinity") else None),
            "source_sha256": digest.hexdigest()}


def _execute(command: str, args: dict, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        artifacts = _RUNNERS[command](args, out)
    except BaseException as exc:
        # a run that fails before writing anything leaves no directory behind
        if created and not any(out.iterdir()):
            out.rmdir()
        # the library's two failure kinds: a non-finite value anywhere, and
        # an input it refuses
        if isinstance(exc, FloatingPointError):
            raise NumericalError(str(exc)) from exc
        if isinstance(exc, ValueError):
            raise DataError(str(exc)) from exc
        raise
    manifest = {
        "tool": "spectpp",
        "version": __version__,
        "command": command,
        "arguments": args,
        "seed": args.get("seed"),
        "artifacts": artifacts,
        "wall_seconds": time.perf_counter() - started,
        "environment": _environment(),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for name, entry in artifacts.items():
        click.echo(f"{name}: {out / entry['path']}")
    return out


# ---------------------------------------------------------------------------
# click wrappers
# ---------------------------------------------------------------------------

class _EchoHandler(logging.Handler):
    """Writes each record to the current stderr through click."""

    def emit(self, record: logging.LogRecord) -> None:
        click.echo(self.format(record), err=True)


def _attach_log_handler() -> None:
    """Give the package logger one stderr handler that writes each record as
    `LEVEL logger: message`; the level stays unset, so records follow the
    root logger's (WARNING unless configured)."""
    package_logger = logging.getLogger("spectpp")
    if not any(isinstance(h, _EchoHandler) for h in package_logger.handlers):
        handler = _EchoHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        package_logger.addHandler(handler)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Sample Transformer temporal point processes, speculatively or not."""
    _attach_log_handler()


# an input file's option: its value, and the manifest's argument, is the
# path's os.path.realpath, as Path.resolve() makes it; a directory, which
# an empty path names, is a usage error
_INPUT = click.Path(dir_okay=False, resolve_path=True)


@main.command()
@click.option("--process", required=True, type=_INPUT, help="process parameter JSON")
@click.option("--n", required=True, type=int, help="number of sequences")
@click.option("--t-end", required=True, type=float, help="observation horizon")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="output directory")
def simulate(out, **args):
    """Simulate sequences from a classical process by thinning."""
    _execute("simulate", args, out)


@main.command()
@click.option("--data", required=True, type=_INPUT, help="sequence JSONL file")
@click.option("--model-config", required=True, type=_INPUT)
@click.option("--train-config", required=True, type=_INPUT)
@click.option("--out", required=True, type=click.Path())
def train(out, **args):
    """Train a checkpoint on an 80/10/10 split of the data."""
    config = _load("TrainConfig file", _read_config(TrainConfig), args["train_config"])
    _execute("train", {**args, "seed": config.seed}, out)


@main.command()
@click.option("--mode", required=True, type=click.Choice(["ar", "sd"]))
@click.option("--target", required=True, type=_INPUT)
@click.option("--draft", type=_INPUT, default=None)
@click.option("--gamma", default=10, type=int, show_default=True)
@click.option("--t-end", required=True, type=float)
@click.option("--runs", default=1, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=click.Path())
def sample(out, **args):
    """Sample sequences autoregressively (ar) or speculatively (sd)."""
    if args["mode"] == "sd" and args["draft"] is None:
        raise click.UsageError("--mode sd requires --draft")
    _execute("sample", args, out)


@main.group(name="eval")
def eval_group() -> None:
    """Statistical evaluation of sample quality."""


@eval_group.command(name="ks")
@click.option("--sequences", required=True, type=_INPUT)
@click.option("--process", required=True, type=_INPUT)
@click.option("--out", required=True, type=click.Path())
def eval_ks(out, **args):
    """Time-rescaling KS test of sequences against a classical process."""
    _execute("eval-ks", args, out)


@eval_group.command(name="wasserstein")
@click.option("--target", required=True, type=_INPUT)
@click.option("--draft", type=_INPUT, default=None,
              help="omit to compare two independent AR runs")
@click.option("--sequences", required=True, type=_INPUT,
              help="file providing the history prefix")
@click.option("--m-hist", default=100, type=int, show_default=True)
@click.option("--n-reps", default=100, type=int, show_default=True)
@click.option("--gamma", default=10, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=click.Path())
def eval_wasserstein(out, **args):
    """Next-event Wasserstein/EMD divergence between AR and SD sampling."""
    _execute("eval-wasserstein", args, out)


@eval_group.command(name="loglik")
@click.option("--sequences", required=True, type=_INPUT)
@click.option("--sequences-b", type=_INPUT, default=None)
@click.option("--scorer-a", required=True, help="process:<file> or model:<file>")
@click.option("--scorer-b", required=True, help="process:<file> or model:<file>")
@click.option("--out", required=True, type=click.Path())
def eval_loglik(out, **args):
    """Mean per-event log-likelihood discrepancy between two scorers."""
    _execute("eval-loglik", args, out)


@main.command()
@click.option("--target", required=True, type=_INPUT)
@click.option("--draft", required=True, type=_INPUT)
@click.option("--gamma-grid", default="1,5,10,20,40,60", show_default=True,
              help="comma-separated draft lengths")
@click.option("--repetitions", default=3, type=int, show_default=True)
@click.option("--runs", default=3, type=int, show_default=True,
              help="sequences per repetition")
@click.option("--t-end", default=100.0, type=float, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", required=True, type=click.Path())
def bench(out, **args):
    """Draft-length ablation: acceptance rate and speedup per gamma."""
    try:
        args["gamma_grid"] = [int(g) for g in args["gamma_grid"].split(",") if g.strip()]
    except ValueError:
        raise click.UsageError("--gamma-grid must be comma-separated integers")
    _execute("bench", args, out)


@main.command()
@click.argument("manifest", type=click.Path())
@click.option("--out", required=True, type=click.Path())
def replay(manifest, out):
    """Re-execute a recorded manifest into a fresh output directory."""
    doc = _load("manifest", lambda path: json.loads(path.read_bytes()), manifest)
    if not isinstance(doc, dict) or not isinstance(doc.get("arguments"), dict):
        raise DataError(f"manifest {manifest} must be a JSON object with an 'arguments' object")
    command, args = doc.get("command"), doc["arguments"]
    if not isinstance(command, str) or command not in _RUNNERS:
        raise DataError(f"manifest {manifest} has unknown command {command!r}")
    # older manifests record the acceptance rule; only the exact one exists
    if args.get("policy", "adjusted") != "adjusted":
        raise DataError(f"manifest {manifest} asks for acceptance policy {args['policy']!r}; "
                        "only 'adjusted' exists")
    try:
        _execute(command, args, out)
    except (DataError, NumericalError) as exc:
        raise type(exc)(f"manifest {manifest}: {exc.message}") from None
    except KeyError as exc:
        if exc.args and exc.args[0] in args:
            raise
        raise DataError(f"manifest {manifest} lacks argument {exc}")
    except TypeError as exc:
        # the command line checks each option's type; a manifest's arguments
        # reach the runners unchecked
        raise DataError(f"manifest {manifest} has an argument of the wrong type: {exc}")


if __name__ == "__main__":
    main()
