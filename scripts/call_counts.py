#!/usr/bin/env python3
"""Python-level and builtin calls per emitted event of AR and SD sampling.

A timing-independent measure of per-call overhead, to sit next to a
wall-clock claim. It builds perfbench's sampler pair (gamma_ablation.py's
``build_pair``: a 20-layer, 2-head target of width 48 and a 1-layer draft)
and samples in the sample-short shape, from an empty history to t_end 100,
a few sequences with AR and with SD at gamma 10, each on the pinned stream
that perfbench gives it. ``sys.setprofile`` counts every call of a Python
function (``call``) and of a builtin or C function (``c_call``). It then
lists the functions called most per SD event, and counts one cached one-row
pass of each model after a 9-event history, and each phase of one SD step
after a warm step on a 10-event history: one draft of gamma 10, one verify
and one residual interval draw between the two models' rows. Three more
counts do not depend on timing either: over the same SD runs, the residual
proposals scored under both mixtures per residual interval draw, next to
those the draws used; the target rows encoded per verify; and the encoder
caches' growths per SD run, with the calls of ``grown``, which copies one
buffer of a growing cache, per SD event. Before all of these it counts the
calls of one ``save_checkpoint`` and one ``load_checkpoint`` of the target.
It takes no options:

    python3 scripts/call_counts.py
"""

import collections
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from gamma_ablation import build_pair
from spectpp import model, sampler
from spectpp.core import Event, EventSequence, RngStream

SEED = 1
SEQUENCES = 8
T_END = 100.0
GAMMA = 10
TOP = 10


def counted(fn, *args, **kwargs):
    """fn's result, the Python-level and builtin calls it made, and the
    calls per function, named ``py name (file)`` or ``c name``."""
    counts = {"call": 0, "c_call": 0}
    by_function = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            by_function[f"py {code.co_qualname} ({pathlib.Path(code.co_filename).name})"] += 1
        elif event == "c_call":
            by_function[f"c {getattr(arg, '__qualname__', arg)}"] += 1
        else:
            return
        counts[event] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, counts["call"], counts["c_call"], by_function


def residual_scoring(target, draft):
    """Residual interval draws, the proposals they used and the proposals
    they scored, over the SD runs above: each draw's density evaluations
    are counted by their intervals, one score under each mixture."""
    draws = used = scored = 0
    inside = False
    draw, density = sampler._residual_interval_sample_info, sampler._mixture_logpdf

    def counted_density(tau, params):
        nonlocal scored
        if inside:
            scored += len(tau)
        return density(tau, params)

    def counted_draw(*args):
        nonlocal draws, used, inside
        inside = True
        try:
            out = draw(*args)
        finally:
            inside = False
        draws, used = draws + 1, used + out[1]
        return out

    sampler._residual_interval_sample_info, sampler._mixture_logpdf = counted_draw, counted_density
    try:
        for i in range(SEQUENCES):
            sampler.tpp_sd_sample(target, draft, T_END, GAMMA, RngStream(SEED).child(f"seq{i}"))
    finally:
        sampler._residual_interval_sample_info, sampler._mixture_logpdf = draw, density
    return draws, used, scored // 2


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        target_path, draft_path = build_pair(pathlib.Path(tmp), n_layers=20, embed_dim=48,
                                             noise=0.5, seed=100)
        target, draft = model.load_checkpoint(target_path), model.load_checkpoint(draft_path)
        floats = sum(value.size for value in target.params.values())
        for name, fn, args in (("save", model.save_checkpoint, (target_path, target)),
                               ("load", model.load_checkpoint, (target_path,))):
            _, p, b, _ = counted(fn, *args)
            print(f"{name:<12} target checkpoint ({floats} floats)  {p:8d} Python-level calls"
                  f"  {b:8d} builtin calls")

    print(f"sample-short shape, t_end {T_END}, seed {SEED}, sequences 0-{SEQUENCES - 1}")
    sd_functions = collections.Counter()
    sd_stats = []
    for mode in ("ar", "sd"):
        events = python = builtin = 0
        for i in range(SEQUENCES):
            rng = RngStream(SEED).child(f"seq{i}")
            if mode == "ar":
                (seq, _), p, b, _ = counted(sampler.ar_sample, target, T_END, rng)
            else:
                (seq, stats), p, b, functions = counted(sampler.tpp_sd_sample, target, draft,
                                                        T_END, GAMMA, rng)
                sd_functions.update(functions)
                sd_stats.append(stats)
            events, python, builtin = events + len(seq), python + p, builtin + b
        label = "AR" if mode == "ar" else f"SD gamma={GAMMA}"
        print(f"{label:<12} {events:5d} events  {python / events:8.1f} Python-level calls"
              f"  {builtin / events:8.1f} builtin calls per event")
    print(f"the {TOP} functions called most per SD event:")
    for name, calls in sd_functions.most_common(TOP):
        print(f"  {calls / events:8.2f}  {name}")
    draws, used, scored = residual_scoring(target, draft)
    verifies = sum(stats.iterations for stats in sd_stats)
    grown = sum(calls for name, calls in sd_functions.items() if ".grown " in name)
    growths = sum(calls for name, calls in sd_functions.items() if "._reserve " in name)
    print(f"residual proposals per interval draw  {scored / draws:6.2f} scored  "
          f"{used / draws:6.2f} used  ({draws} draws)")
    print(f"target rows encoded per verify        "
          f"{sum(s.target_rows_encoded for s in sd_stats) / verifies:6.2f}  (gamma {GAMMA})")
    print(f"cache growths per SD run              {growths / SEQUENCES:6.2f}  "
          f"({grown / events:.3f} grown calls per SD event)")

    history = EventSequence(tuple(Event(0.5 * (i + 1), i % 2) for i in range(10)), T_END)
    for name, ckpt in (("target", target), ("draft", draft)):
        cache = model.EncoderCache(ckpt)
        model.next_event_distributions(EventSequence(history.events[:9], T_END), ckpt,
                                       cache=cache)
        _, p, b, _ = counted(model.next_event_distributions, history, ckpt, cache=cache)
        print(f"{name:<12} cached one-row pass  {p:5d} Python-level calls  {b:5d} builtin calls")

    events, stats = sampler._RunState(history), sampler.SampleRunStats()
    caches = {"target_cache": model.EncoderCache(target), "draft_cache": model.EncoderCache(draft)}
    sampler._sd_step(target, draft, events, GAMMA, sampler._sd_streams(RngStream(SEED)), stats,
                     **caches)
    rng = RngStream(SEED).child("phases")
    batch, p, b, _ = counted(sampler.draft, draft, events, GAMMA, rng.child("draft"), stats,
                             cache=caches["draft_cache"])
    print(f"{'draft':<12} gamma {GAMMA}            {p:5d} Python-level calls  {b:5d} builtin calls")
    outcome, p, b, _ = counted(sampler.verify, target, events, batch, rng.child("verify"),
                               rng.child("residual"), stats, cache=caches["target_cache"])
    print(f"{'verify':<12} {outcome.accepted_len:2d} of {GAMMA} accepted  {p:5d} Python-level calls"
          f"  {b:5d} builtin calls")
    rows = [model.next_event_distributions(events, ckpt)[0] for ckpt in (target, draft)]
    (_, used, _), p, b, _ = counted(sampler._residual_interval_sample_info, *rows,
                                    rng.child("residual interval"))
    print(f"{'residual':<12} {used:3d} proposals     {p:5d} Python-level calls  {b:5d} builtin calls")


if __name__ == "__main__":
    main()
