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
Then it prints the worst Python-level calls per candidate of one draft
and one verify in the shape of ``tests/test_sampler.py``'s bound test, on
its checkpoints, history, seeds and gammas, next to the test's bounds.
Last, a sample-long section continues the first few of perfbench's
250-event Hawkes histories with AR and SD on perfbench's streams, AR then
SD on each history's one stream as a perfbench pass runs them. After one
unmeasured warm pass over the same runs, it prints the minor page faults
(``resource.getrusage``) per emitted event and per run of each mode, and
the key and value bytes of each encoder cache that the runs made. It
takes no options:

    python3 scripts/call_counts.py
"""

import collections
import pathlib
import resource
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads
from gamma_ablation import build_pair
from spectpp import model, sampler
from spectpp.core import Event, EventSequence, RngStream
from test_sampler import DRAFT_CALLS_PER_CANDIDATE, VERIFY_CALLS_PER_CANDIDATE, make_checkpoint

SEED = 1
SEQUENCES = 8
T_END = 100.0
GAMMA = 10
TOP = 10
# test_draft_and_verify_calls_per_candidate_are_bounded's seeds and gammas
BOUND_SEEDS = range(4)
BOUND_GAMMAS = (5, 10)
# perfbench's sample-long histories that the fault counts continue
LONG_SEQUENCES = 4
# the qualname of every __init__ that dataclasses generates
DATACLASS_INIT = "__create_fn__.<locals>.__init__"


def counted(fn, *args, **kwargs):
    """fn's result, the Python-level and builtin calls it made, and the
    calls per function, named ``py name (file)`` or ``c name``. A
    dataclass's generated ``__init__``, whose qualname every dataclass
    shares, is named by the class of the ``self`` it initialises."""
    counts = {"call": 0, "c_call": 0}
    by_function = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = code.co_qualname
            if name == DATACLASS_INIT:
                name = f"{type(frame.f_locals['self']).__qualname__}.__init__"
            by_function[f"py {name} ({pathlib.Path(code.co_filename).name})"] += 1
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


def bound_test_worst(history):
    """The most Python-level calls per candidate of one draft and of one
    verify after a warm SD step, over the bound test's seeds and gammas, on
    its 1-layer draft and 2-layer, 2-head target."""
    target, draft = make_checkpoint(1, n_layers=2, n_heads=2), make_checkpoint(2)
    worst_draft = worst_verify = 0.0
    for gamma in BOUND_GAMMAS:
        for seed in BOUND_SEEDS:
            events, stats = sampler._RunState(history), sampler.SampleRunStats()
            target_cache, draft_cache = model.EncoderCache(target), model.EncoderCache(draft)
            sampler._sd_step(target, draft, gamma, sampler._sd_streams(RngStream(seed)),
                             target_cache, draft_cache, stats, events)
            rng = RngStream(seed + 100)
            batch, drafted, _, _ = counted(sampler.draft, draft, events, gamma,
                                           rng.child("draft"), cache=draft_cache)
            _, verified, _, _ = counted(sampler.verify, target, events, batch, rng.child("verify"),
                                        rng.child("residual"), stats, cache=target_cache)
            worst_draft = max(worst_draft, drafted / gamma)
            worst_verify = max(worst_verify, verified / gamma)
    return worst_draft, worst_verify


def sample_long_faults(target, draft):
    """Per mode, the events and minor page faults of a pass over the first
    LONG_SEQUENCES of perfbench's sample-long runs, taken after one warm
    pass over the same runs; and the key and value bytes of each encoder
    cache that a third pass made, by model. Only the third pass keeps its
    caches to the end of each run, as reading their bytes needs, which
    moves where the allocator puts the next run's arrays."""
    shape = workloads.SAMPLE_SHAPES["sample-long"]
    histories = [workloads._pinned_history(SEED, i, shape.history) for i in range(LONG_SEQUENCES)]
    made = []

    def recorded(checkpoint):
        made.append(cache := model.EncoderCache(checkpoint))
        return cache

    def one_pass():
        events, faults = {"ar": 0, "sd": 0}, {"ar": 0, "sd": 0}
        kv_bytes = collections.defaultdict(list)
        for i, prefix in enumerate(histories):
            rng = RngStream(SEED).child(f"seq{i}")
            for mode, horizon in (("ar", shape.ar_horizon), ("sd", shape.sd_horizon)):
                t_end = prefix[-1].time + horizon
                history = EventSequence(prefix, t_end)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                if mode == "ar":
                    seq, _ = sampler.ar_sample(target, t_end, rng, history=history)
                else:
                    seq, _ = sampler.tpp_sd_sample(target, draft, t_end, workloads.GAMMA, rng,
                                                   history=history)
                faults[mode] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                events[mode] += len(seq) - len(prefix)
                for cache in made:
                    kv_bytes["target" if cache.checkpoint is target else "draft"].append(
                        sum(b.nbytes for b in cache._keys + cache._values))
                made.clear()
        return events, faults, kv_bytes

    one_pass()
    events, faults, _ = one_pass()
    sampler.EncoderCache = recorded
    try:
        return events, faults, one_pass()[2]
    finally:
        sampler.EncoderCache = model.EncoderCache


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        target_path, draft_path = build_pair(pathlib.Path(tmp), n_layers=20, embed_dim=48,
                                             noise=0.5, seed=100)
        target, draft = model.load_checkpoint(target_path), model.load_checkpoint(draft_path)
        events, faults, kv_bytes = sample_long_faults(target, draft)
        print(f"sample-long shape, {workloads.SAMPLE_SHAPES['sample-long'].history}-event "
              f"histories, seed {SEED}, sequences 0-{LONG_SEQUENCES - 1}, after one warm pass")
        for mode, label in (("ar", "AR"), ("sd", f"SD gamma={workloads.GAMMA}")):
            print(f"{label:<12} {events[mode]:5d} events  {faults[mode] / events[mode]:8.2f} minor"
                  f" faults per event  {faults[mode] / LONG_SEQUENCES:8.0f} per run")
        for name, sizes in kv_bytes.items():
            print(f"{name:<12} cache key/value bytes  "
                  f"{' '.join(f'{size:,}' for size in sorted(set(sizes)))}  ({len(sizes)} caches)")
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
    sampler._sd_step(target, draft, GAMMA, sampler._sd_streams(RngStream(SEED)),
                     caches["target_cache"], caches["draft_cache"], stats, events)
    rng = RngStream(SEED).child("phases")
    batch, p, b, _ = counted(sampler.draft, draft, events, GAMMA, rng.child("draft"),
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

    worst_draft, worst_verify = bound_test_worst(history)
    print(f"bound test shape, seeds {BOUND_SEEDS.start}-{BOUND_SEEDS.stop - 1}, gamma "
          f"{' and '.join(map(str, BOUND_GAMMAS))}: the most Python-level calls per candidate")
    print(f"{'draft':<12} {worst_draft:5.1f}  (bound {DRAFT_CALLS_PER_CANDIDATE})")
    print(f"{'verify':<12} {worst_verify:5.1f}  (bound {VERIFY_CALLS_PER_CANDIDATE})")


if __name__ == "__main__":
    main()
