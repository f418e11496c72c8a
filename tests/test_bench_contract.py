"""The names perfbench's traced runs patch in spectpp must exist, the
sampler must still reach them through the patched module attributes, and
the setup path of its sampling workloads must run, and its correctness
gate must apply the library's sequence rule. A refactor that breaks any of
these fails here instead of in a benchmark run."""

import json
from pathlib import Path

import pytest

from spectpp import model, sampler
from spectpp.core import Event, EventSequence, RngStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    return tracing, workloads


def test_patches_apply_and_unpatch_restores_originals(perfbench):
    tracing, workloads = perfbench
    tracer = tracing.Tracer()
    try:
        workloads._sampler_patches(tracer, {})
        workloads._fit_patches(tracer)
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.unpatch()
    assert patched and all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_setup_builds_loads_and_runs_a_pair(perfbench, tmp_path):
    """The calls a sampling workload's setup makes, at small sizes: build
    the controlled pair, load it at the current checkpoint format, and run
    one forward of each model without a cache."""
    _, workloads = perfbench
    gamma_ablation = workloads._load_gamma_ablation(PERFBENCH.parent)
    paths = gamma_ablation.build_pair(tmp_path, n_layers=2, embed_dim=8, noise=0.5, seed=100)
    warm_events = workloads._pinned_history(1, "warm-up", 10)
    warm = EventSequence(warm_events, warm_events[-1].time)
    for path in paths:
        assert json.loads(path.read_text())["format_version"] == model.CHECKPOINT_FORMAT_VERSION
        mixture, mark_dist = model.next_event_distributions(warm, model.load_checkpoint(path))
        assert mixture.weights.shape == (16,) and mark_dist.shape == (2,)


def test_sampling_runs_through_the_patched_names(perfbench):
    """AR and SD run from an empty history and after a pinned Hawkes
    history, as the sampling workloads do, and every output passes the
    workloads' correctness check."""
    tracing, workloads = perfbench
    config = model.ModelConfig(embed_dim=8, n_components=2, n_marks=workloads.N_MARKS)
    draft = model.init_checkpoint(config, RngStream(2))
    # a sharper target than the draft, so that some drafted events are rejected
    params = model.init_checkpoint(config, RngStream(1)).params
    target = model.ModelCheckpoint(config, {name: 2.0 * value for name, value in params.items()})
    pinned = workloads._pinned_history(1, 0, 20)
    tracer = tracing.Tracer()
    workloads._sampler_patches(tracer, {id(target): "target", id(draft): "draft"})
    outputs = []
    try:
        for prefix, t_end in (((), 3.0), (pinned, pinned[-1].time + 3.0)):
            history = EventSequence(prefix, t_end) if prefix else None
            outputs.append(("ar", prefix, sampler.ar_sample(target, t_end, RngStream(3),
                                                            history=history)))
            for seed in range(3):
                outputs.append(("sd", prefix, sampler.tpp_sd_sample(
                    target, draft, t_end, workloads.GAMMA, RngStream(seed), history=history)))
    finally:
        tracer.unpatch()
    names = {span.name for span in tracer.spans}
    assert {"sampler.ar_sample", "sampler.tpp_sd_sample", "sampler.draft", "sampler.verify",
            "model.target_forward", "model.draft_forward", "sampler.residual"} <= names
    for i, (mode, prefix, (seq, stats)) in enumerate(outputs):
        assert workloads._check_sampled("contract", mode, i, seq, prefix, stats) == []
    # the gate checks a sample by the library's one rule, so it reports a
    # tie and a mark outside [0, N_MARKS) as an invalid sequence
    _, prefix, (seq, stats) = outputs[-1]
    *head, last = seq.events
    for bad, words in ((Event(head[-1].time, last.mark), "non-monotone"),
                       (Event(last.time, workloads.N_MARKS), "mark out of range")):
        broken = EventSequence((*head, bad), seq.t_end)
        problems = workloads._check_sampled("contract", "sd", 0, broken, prefix, stats)
        assert any("invalid sequence" in p and words in p for p in problems), problems
