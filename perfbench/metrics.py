"""Turns a workload's passes and spans into the benchmark's metrics.

End-to-end metrics come from untraced passes only, per-layer metrics
from traced passes only. Per-layer counts and seconds are per traced
pass; since every pass does identical work, the counts are exact.
"""

from __future__ import annotations

from statistics import median

from tracing import summarize

LAYERS = ("core", "classical", "autodiff", "model", "sampler", "evaluation", "training")
MAX_ACCEPTED_LEN = 10

END_TO_END_UNITS = {
    "ar_or_sim_events_per_s": "1/s",
    "sd_or_train_events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "model.target_forward_calls": "count", "model.target_rows_encoded": "count",
        "model.target_forward_s": "s", "model.target_ms_per_call_p50": "ms",
        "model.target_ms_per_call_p90": "ms", "model.target_ms_samples": "count",
        "model.us_per_row_encoded": "us",
        "model.draft_forward_calls": "count", "model.draft_rows_encoded": "count",
        "model.draft_forward_s": "s",
        "model.loglik_calls": "count", "model.loglik_s": "s",
        "model.checkpoint_load_s": "s",
        "sampler.draft_s": "s", "sampler.draft_self_s": "s", "sampler.verify_s": "s",
        "sampler.verify_self_s": "s", "sampler.bookkeeping_s": "s", "sampler.ar_self_s": "s",
        "sampler.residual_calls": "count", "sampler.residual_proposals": "count",
        "sampler.residual_s": "s", "sampler.residual_fallbacks": "count",
        "sampler.iterations": "count", "sampler.events_drafted": "count",
        "sampler.events_accepted": "count", "sampler.alpha": "ratio",
    }
    units.update({f"sampler.accepted_len.{k}": "count" for k in range(MAX_ACCEPTED_LEN + 1)})
    units.update({
        "sampler.target_passes_per_event": "ratio", "sampler.draft_passes_per_event": "ratio",
        "sampler.ar_passes_per_event": "ratio", "sampler.speedup": "ratio",
        "classical.thinning_calls": "count", "classical.events_simulated": "count",
        "classical.thinning_us_per_event": "us",
        "core.jsonl_bytes": "bytes", "core.jsonl_write_s": "s", "core.jsonl_read_s": "s",
        "evaluation.time_rescale_s": "s", "evaluation.ks_s": "s",
        "evaluation.ks_d": "ratio", "evaluation.ks_band": "ratio",
        "autodiff.backward_calls": "count", "autodiff.backward_s": "s",
        "training.nll_batch_calls": "count", "training.nll_batch_s": "s",
        "training.forward_s": "s", "training.adam_step_s": "s", "training.epoch_s": "s",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.passes": "count", "trace.overhead": "%",
                  "trace.span_share": "%", "trace.remainder_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


def _rate(events: int, seconds: float) -> float | None:
    return events / seconds if seconds > 0 else None


def _median_rate(passes, events_of, seconds_of) -> float:
    rates = [r for p in passes if p.digest
             if (r := _rate(events_of(p), seconds_of(p))) is not None]
    return median(rates) if rates else 0.0


def _untraced(result):
    return [p for p in result.passes if not p.traced]


def _stage_rates(workload: str, result, raw: bool = False) -> dict[str, float]:
    """Throughputs from untraced passes, from seconds at the reference speed
    or, with ``raw``, as measured."""
    passes = _untraced(result)

    def secs(p, stage):
        return (p.raw_seconds if raw else p.seconds)[stage]

    if workload == "fit-validate":
        train_s = [secs(p, "train") for p in passes if p.digest]
        return {
            "ar_or_sim_events_per_s": _median_rate(
                passes, lambda p: p.events["simulate"],
                lambda p: secs(p, "simulate") + secs(p, "evaluate")),
            "sd_or_train_events_per_s": _median_rate(
                passes, lambda p: p.events["train"], lambda p: secs(p, "train")),
            "sim_events_per_s": _median_rate(passes, lambda p: p.events["simulate"],
                                             lambda p: secs(p, "simulate")),
            "eval_events_per_s": _median_rate(passes, lambda p: p.events["evaluate"],
                                              lambda p: secs(p, "evaluate")),
            "train_epoch_s": median(train_s) / _epochs(result) if train_s else 0.0,
        }
    ar = _median_rate(passes, lambda p: p.events["ar"], lambda p: secs(p, "ar"))
    sd = _median_rate(passes, lambda p: p.events["sd"], lambda p: secs(p, "sd"))
    return {"ar_or_sim_events_per_s": ar, "sd_or_train_events_per_s": sd,
            "ar_events_per_s": ar, "sd_events_per_s": sd,
            "sampler.speedup": sd / ar if ar else 0.0}


def _epochs(result) -> int:
    return next((p.counts.get("train_epochs", 0) for p in result.passes if p.digest), 0)


def determinism_record(result) -> dict | None:
    """Digest and timing-independent counts of one pass, or None when two
    passes of identical work disagree."""
    done = [p for p in result.passes if p.digest]
    if not done:
        return {"digest": "", "counts": {}}
    first = done[0]
    if any(p.digest != first.digest or p.counts != first.counts for p in done[1:]):
        return None
    return {"digest": first.digest, "counts": first.counts}


def end_to_end(workload: str, result, peak_rss_mb: float) -> dict[str, float]:
    rates = _stage_rates(workload, result)
    return {
        "ar_or_sim_events_per_s": rates["ar_or_sim_events_per_s"],
        "sd_or_train_events_per_s": rates["sd_or_train_events_per_s"],
        "setup_s": median(result.setup_seconds),
        "peak_rss_mb": peak_rss_mb,
    }


def diagnostics(workload: str, result) -> tuple[dict[str, float], dict[str, str]]:
    """Printed after the metrics, not part of the result: the throughputs
    under the names ROADMAP uses, at the reference speed and as measured
    (``raw.``), the raw set-up time, and the median speed probe."""
    values = {}
    for prefix, raw in (("", False), ("raw.", True)):
        rates = _stage_rates(workload, result, raw)
        values.update({prefix + k: v for k, v in rates.items()
                       if not k.startswith(("ar_or", "sd_or", "sampler."))})
    values["raw.setup_s"] = median(result.setup_raw_seconds)
    units = {k: "1/s" if k.endswith("_per_s") else "s" for k in values}
    values["probe_ms"] = median(result.probes) * 1e3
    units["probe_ms"] = "ms"
    return values, units


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(workload: str, result) -> dict[str, float]:
    traced = [p for p in result.passes if p.traced]
    n = len(traced)
    spans = result.tracer.spans
    stats = summarize(spans, lambda group: group.startswith("pass"))

    def get(name, attr="seconds"):
        s = stats.get(name)
        return getattr(s, attr) / n if s is not None else 0.0

    def info(name, key):
        s = stats.get(name)
        return s.info.get(key, 0) / n if s is not None else 0.0

    counts = next((p.counts for p in traced if p.digest), {})
    out: dict[str, float] = {}

    target = stats.get("model.target_forward")
    target_ms = [d * 1e3 for d in target.durations] if target else []
    target_rows = info("model.target_forward", "rows")
    out.update({
        "model.target_forward_calls": get("model.target_forward", "calls"),
        "model.target_rows_encoded": target_rows,
        "model.target_forward_s": get("model.target_forward"),
        "model.target_ms_per_call_p50": median(target_ms) if target_ms else 0.0,
        "model.target_ms_per_call_p90": _percentile(target_ms, 0.9),
        "model.target_ms_samples": len(target_ms),
        "model.us_per_row_encoded":
            get("model.target_forward") / target_rows * 1e6 if target_rows else 0.0,
        "model.draft_forward_calls": get("model.draft_forward", "calls"),
        "model.draft_rows_encoded": info("model.draft_forward", "rows"),
        "model.draft_forward_s": get("model.draft_forward"),
        "model.loglik_calls": get("model.loglik", "calls"),
        "model.loglik_s": get("model.loglik"),
    })
    loads = [summarize(spans, lambda g, k=k: g == f"setup{k}").get("model.checkpoint_load")
             for k in range(len(result.setup_seconds))]
    out["model.checkpoint_load_s"] = median(s.seconds if s else 0.0 for s in loads)

    out.update({
        "sampler.draft_s": get("sampler.draft"),
        "sampler.draft_self_s": get("sampler.draft", "self_seconds"),
        "sampler.verify_s": get("sampler.verify"),
        "sampler.verify_self_s": get("sampler.verify", "self_seconds"),
        "sampler.bookkeeping_s": get("sampler.tpp_sd_sample", "self_seconds"),
        "sampler.ar_self_s": get("sampler.ar_sample", "self_seconds"),
        "sampler.residual_calls": get("sampler.residual", "calls"),
        "sampler.residual_proposals": info("sampler.residual", "proposals"),
        "sampler.residual_s": get("sampler.residual"),
        "sampler.residual_fallbacks": info("sampler.residual", "fallbacks"),
    })
    drafted, accepted = counts.get("sd_drafted", 0), counts.get("sd_accepted", 0)
    sd_events, ar_events = counts.get("sd_events", 0), counts.get("ar_events", 0)
    out.update({
        "sampler.iterations": counts.get("sd_iterations", 0),
        "sampler.events_drafted": drafted,
        "sampler.events_accepted": accepted,
        "sampler.alpha": accepted / drafted if drafted else 0.0,
    })
    for k in range(MAX_ACCEPTED_LEN + 1):
        out[f"sampler.accepted_len.{k}"] = info("sampler.verify", f"accepted_len.{k}")
    out.update({
        "sampler.target_passes_per_event":
            counts.get("sd_target_passes", 0) / sd_events if sd_events else 0.0,
        "sampler.draft_passes_per_event":
            counts.get("sd_draft_passes", 0) / sd_events if sd_events else 0.0,
        "sampler.ar_passes_per_event":
            counts.get("ar_target_passes", 0) / ar_events if ar_events else 0.0,
        "sampler.speedup": _stage_rates(workload, result).get("sampler.speedup", 0.0),
    })

    simulated = info("classical.thinning", "events")
    out.update({
        "classical.thinning_calls": get("classical.thinning", "calls"),
        "classical.events_simulated": simulated,
        "classical.thinning_us_per_event":
            get("classical.thinning") / simulated * 1e6 if simulated else 0.0,
        "core.jsonl_bytes": result.extra.get("jsonl_bytes", 0),
        "core.jsonl_write_s": get("core.jsonl_write"),
        "core.jsonl_read_s": get("core.jsonl_read"),
        "evaluation.time_rescale_s": get("evaluation.time_rescale"),
        "evaluation.ks_s": get("evaluation.ks"),
        "evaluation.ks_d": result.extra.get("ks_d", 0.0),
        "evaluation.ks_band": result.extra.get("ks_band", 0.0),
        "autodiff.backward_calls": get("autodiff.backward", "calls"),
        "autodiff.backward_s": get("autodiff.backward"),
        "training.nll_batch_calls": get("training.nll_batch", "calls"),
        "training.nll_batch_s": get("training.nll_batch"),
        "training.forward_s": get("training.nll_batch", "self_seconds"),
        "training.adam_step_s": get("training.adam_step"),
        "training.epoch_s": get("training.train") / _epochs(result) if _epochs(result) else 0.0,
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_seconds for name, s in stats.items()
                                     if name.startswith(layer + ".")) / n

    measured = sum(sum(p.raw_seconds.values()) for p in traced)
    top = sum(s.seconds for s in spans if s.parent < 0 and s.group.startswith("pass"))
    untraced = [sum(p.seconds.values()) for p in _untraced(result)]
    traced_s = [sum(p.seconds.values()) for p in traced]
    out.update({
        "trace.passes": n,
        "trace.overhead": (median(traced_s) / median(untraced) - 1.0) * 100.0,
        "trace.span_share": top / measured * 100.0 if measured else 0.0,
        "trace.remainder_s": (measured - top) / n,
    })
    return out
