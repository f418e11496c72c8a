"""The names perfbench's traced runs patch in spectpp must exist, and the
sampler must still reach them through the patched module attributes. A
refactor that breaks either fails here instead of in a full traced run."""

from pathlib import Path

import pytest

from spectpp import model, sampler
from spectpp.core import RngStream

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


def test_sampling_runs_through_the_patched_names(perfbench):
    tracing, workloads = perfbench
    config = model.ModelConfig(embed_dim=8, n_components=2, n_marks=2)
    draft = model.init_checkpoint(config, RngStream(2))
    # a sharper target than the draft, so that some drafted events are rejected
    params = model.init_checkpoint(config, RngStream(1)).params
    target = model.ModelCheckpoint(config, {name: 2.0 * value for name, value in params.items()})
    tracer = tracing.Tracer()
    workloads._sampler_patches(tracer, {id(target): "target", id(draft): "draft"})
    try:
        sampler.ar_sample(target, 3.0, RngStream(3))
        for seed in range(3):
            sampler.tpp_sd_sample(target, draft, 3.0, 3, RngStream(seed))
    finally:
        tracer.unpatch()
    names = {span.name for span in tracer.spans}
    assert {"sampler.ar_sample", "sampler.tpp_sd_sample", "sampler.draft", "sampler.verify",
            "model.target_forward", "model.draft_forward", "sampler.residual"} <= names
