import math

import numpy as np
import pytest
from scipy.integrate import quad

from spectpp.classical import (
    HawkesParams,
    NonFiniteIntensityError,
    SinePoissonParams,
    ground_truth_loglik,
    make_synthetic_dataset,
    process_from_record,
    thinning_sample,
    total_compensator_increments,
)
from spectpp.core import EventSequence, RngStream, validate_sequence

from reference import compensator, intensity, numpy_compensator_increments, numpy_thinning_hawkes
from sequences import sequence_from_arrays

POISSON = SinePoissonParams(A=5.0, b=1.0, omega=1.0 / 50.0)
HAWKES_1D = HawkesParams(mu=np.array([2.5]), alpha=np.array([[1.0]]), beta=np.array([[2.0]]))
HAWKES_2D = HawkesParams(
    mu=np.array([0.4, 0.4]),
    alpha=np.array([[1.0, 0.5], [0.1, 1.0]]),
    beta=np.full((2, 2), 2.0),
)
# fit-validate's process in perfbench, on that workload's horizon of 100
PERFBENCH_2D = process_from_record({"kind": "hawkes", "mu": [0.4, 0.4],
                                    "alpha": [[1.0, 0.5], [0.1, 1.0]],
                                    "beta": [[2.0, 2.0], [2.0, 2.0]]})
HAWKES_3D = HawkesParams(
    mu=np.array([0.3, 0.2, 0.5]),
    alpha=np.array([[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.3, 0.1, 0.4]]),
    beta=np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 0.7], [4.0, 1.2, 2.2]]),
)
HAWKES_8D = HawkesParams(
    mu=np.linspace(0.1, 0.4, 8),
    alpha=np.full((8, 8), 0.05) + 0.3 * np.eye(8),
    beta=np.linspace(1.0, 3.0, 64).reshape(8, 8),
)
EMPTY = EventSequence((), 100.0)


def quad_compensator(process, t0, t1, history):
    """Adaptive-quadrature oracle for the closed-form compensator."""
    breaks = [t for t in history.times if t0 < t < t1]
    total = np.zeros(len(intensity(process, t1, history)))
    for k in range(total.size):
        total[k], _ = quad(
            lambda t: float(intensity(process, t, history)[k]),
            t0, t1, points=breaks, limit=200, epsabs=1e-12, epsrel=1e-12,
        )
    return total


def test_poisson_intensity_at_benchmark_parameters():
    assert intensity(POISSON, 0.0, EMPTY)[0] == pytest.approx(5.0)
    assert intensity(POISSON, 25.0, EMPTY)[0] == pytest.approx(10.0)


def test_poisson_intensity_ignores_history():
    history = sequence_from_arrays([1.0, 2.0], [0, 0], 100.0)
    assert intensity(POISSON, 10.0, history)[0] == intensity(POISSON, 10.0, EMPTY)[0]


def test_hawkes_intensity_after_one_event():
    history = sequence_from_arrays([0.0], [0], 100.0)
    expected = 2.5 + math.exp(-1.0)  # mu + alpha*exp(-beta*0.5)
    assert intensity(HAWKES_1D, 0.5, history)[0] == pytest.approx(expected, rel=1e-12)


def test_intensity_rejects_time_before_history_end():
    history = sequence_from_arrays([5.0], [0], 100.0)
    with pytest.raises(ValueError):
        intensity(HAWKES_1D, 4.0, history)


def test_negative_intensity_rejected_at_construction():
    with pytest.raises(ValueError):
        SinePoissonParams(A=5.0, b=0.5, omega=1.0 / 50.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["A", "b", "omega", "mu", "alpha", "beta"])
def test_a_non_finite_parameter_is_refused_by_its_name(field, bad):
    """A NaN or infinite parameter is refused when the process is made,
    with the field's name: a NaN omega simulated no events, and a NaN mu
    or A raised FloatingPointError."""
    if field in ("A", "b", "omega"):
        fields = {"A": 5.0, "b": 1.0, "omega": 0.02, field: bad}
        make = lambda: SinePoissonParams(**fields)
    else:
        fields = {"mu": [2.5], "alpha": [[1.0]], "beta": [[2.0]], field: [[bad]]}
        make = lambda: HawkesParams(**fields)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make()


@pytest.mark.parametrize("field, bad", [("A", "5"), ("b", True), ("omega", [0.02]),
                                        ("mu", ["2.5"]), ("alpha", [[False]]), ("beta", "2"),
                                        ("A", 10 ** 400), ("beta", [[10 ** 400]])],
                         ids=["A-string", "b-bool", "omega-list", "mu-string", "alpha-bool",
                              "beta-string", "A-huge-int", "beta-huge-int"])
def test_a_process_record_takes_only_float_range_json_numbers(field, bad):
    """A record's parameter that is a string, a bool, a list where a number
    belongs or an int beyond the float range is refused with its name,
    where a string or a bool was read as a number."""
    if field in ("A", "b", "omega"):
        record = {"kind": "sine_poisson", "A": 5, "b": 1.0, "omega": 0.02, field: bad}
    else:
        record = {"kind": "hawkes", "mu": [2.5], "alpha": [[1]], "beta": [[2.0]], field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be a float-range number"):
        process_from_record(record)


def test_poisson_compensator_full_window():
    value = compensator(POISSON, 0.0, 100.0, EMPTY)[0]
    assert value == pytest.approx(500.0, rel=1e-12)
    oracle = quad_compensator(POISSON, 0.0, 100.0, EMPTY)[0]
    assert value == pytest.approx(oracle, rel=1e-8)


def test_homogeneous_compensator_is_rate_times_duration():
    proc = HawkesParams(mu=np.array([2.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))
    assert np.sum(compensator(proc, 3.0, 7.0, EMPTY)) == pytest.approx(8.0)


def test_hawkes_excitation_mass_is_branching_ratio():
    history = sequence_from_arrays([0.0], [0], 1e4)
    # total mass of one kernel: compensator minus the baseline part
    value = float(compensator(HAWKES_1D, 0.0, 100.0, history)[0]) - 2.5 * 100.0
    assert value == pytest.approx(0.5, abs=1e-12)


def test_compensator_matches_quadrature_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 3))
        proc = HawkesParams(
            mu=rng.uniform(0.1, 2.0, size=m),
            alpha=rng.uniform(0.0, 1.0, size=(m, m)),
            beta=rng.uniform(1.0, 3.0, size=(m, m)),
        )
        times = np.sort(rng.uniform(0.0, 5.0, size=4))
        marks = rng.integers(0, m, size=4)
        history = sequence_from_arrays(times, marks, 100.0)
        t0 = float(times[-1]) + rng.uniform(0.0, 1.0)
        t1 = t0 + rng.uniform(0.1, 3.0)
        got = compensator(proc, t0, t1, history)
        want = quad_compensator(proc, t0, t1, history)
        assert np.allclose(got, want, rtol=1e-8)


def test_compensator_additivity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        proc = HawkesParams(
            mu=rng.uniform(0.1, 2.0, size=2),
            alpha=rng.uniform(0.0, 1.0, size=(2, 2)),
            beta=rng.uniform(1.0, 3.0, size=(2, 2)),
        )
        history = sequence_from_arrays([0.3, 0.9], [0, 1], 100.0)
        t0, t1, t2 = 1.0, 2.5, 4.0
        left = compensator(proc, t0, t1, history)
        right = compensator(proc, t1, t2, history)
        whole = compensator(proc, t0, t2, history)
        assert np.allclose(left + right, whole, rtol=1e-12)


def test_compensator_rejects_reversed_interval():
    with pytest.raises(ValueError):
        compensator(POISSON, 5.0, 3.0, EMPTY)


def test_total_compensator_increments_match_reference():
    # the sine-Poisson process has one mark type, so its events carry mark 0
    for proc, marks in ((POISSON, [0, 0, 0, 0]), (HAWKES_2D, [0, 1, 1, 0])):
        seq = sequence_from_arrays([0.4, 1.1, 2.0, 3.7], marks, 10.0)
        incs = total_compensator_increments(seq, proc)
        prev = 0.0
        for i, event in enumerate(seq.events):
            history = EventSequence(seq.events[:i], seq.t_end)
            want = float(np.sum(compensator(proc, prev, event.time, history)))
            assert incs[i] == pytest.approx(want, rel=1e-10)
            prev = event.time


@pytest.mark.parametrize("marks, process", [([0, 2, 0], HAWKES_2D), ([0, -1, 0], HAWKES_2D),
                                            ([0, 1, 0], HAWKES_1D), ([0, 1, 0], POISSON),
                                            ([0, -1, 0], POISSON)],
                         ids=["too-large", "negative", "two-marks-on-1d", "poisson-mark-1",
                              "poisson-negative"])
def test_hawkes_scoring_refuses_marks_outside_its_range(marks, process):
    """A negative mark used to score as the last type, and one too large
    raised IndexError; the sine-Poisson scorers, whose process has one mark
    type, scored any mark as that type."""
    seq = sequence_from_arrays([0.4, 1.1, 2.0], marks, 5.0)
    with pytest.raises(ValueError, match="mark out of range"):
        total_compensator_increments(seq, process)
    with pytest.raises(ValueError, match="mark out of range"):
        ground_truth_loglik(seq, process)


@pytest.mark.parametrize("times, t_end, process, message", [
    ([2.0, 1.0, 2.5], 3.0, HAWKES_1D, "non-monotone"),
    ([2.0, 1.0, 2.5], 3.0, POISSON, "non-monotone"),
    ([-1.0, 1.0, 2.5], 3.0, HAWKES_1D, "non-monotone"),
    ([1.0, math.nan, 2.5], 3.0, HAWKES_1D, "non-finite time"),
    ([1.0, math.nan, 2.5], 3.0, POISSON, "non-finite time"),
    ([1.0, math.inf, 2.5], 3.0, HAWKES_1D, "non-finite time"),
    ([1.0, 2.0, 2.5], math.nan, HAWKES_1D, "t_end must be positive and finite"),
    ([1.0, 2.0, 2.5], math.nan, POISSON, "t_end must be positive and finite"),
    ([1.0, 2.0, 2.5], math.inf, POISSON, "t_end must be positive and finite"),
], ids=["hawkes", "poisson", "negative-first", "nan-time-hawkes", "nan-time-poisson",
        "infinite-time", "nan-horizon-hawkes", "nan-horizon-poisson", "infinite-horizon-poisson"])
def test_scoring_refuses_decreasing_times(times, t_end, process, message):
    """Time rescaling used to turn a decreasing time into a negative
    interval, and the KS statistic into a value no KS statistic can take.
    A NaN time or horizon was scored as NaN, or its survival term skipped,
    and an infinite sine-Poisson horizon raised a math domain error."""
    seq = sequence_from_arrays(times, [0, 0, 0], t_end)
    with pytest.raises(ValueError, match=message):
        total_compensator_increments(seq, process)
    with pytest.raises(ValueError, match=message):
        ground_truth_loglik(seq, process)


@pytest.mark.parametrize("process", [HAWKES_1D, POISSON], ids=["hawkes", "poisson"])
def test_scoring_refuses_a_time_after_the_horizon(process):
    """The tail from the last event to t_end was negative, so its
    compensator was subtracted as a negative number: the Hawkes
    log-likelihood of this sequence read -0.398."""
    seq = sequence_from_arrays([1.0, 3.0], [0, 0], 2.0)
    with pytest.raises(ValueError, match="exceeds horizon"):
        total_compensator_increments(seq, process)
    with pytest.raises(ValueError, match="exceeds horizon"):
        ground_truth_loglik(seq, process)


def test_thinning_output_is_valid():
    for proc, k in ((POISSON, 1), (HAWKES_1D, 1), (HAWKES_2D, 2)):
        seq = thinning_sample(proc, 50.0, RngStream(3).child("t"))
        assert validate_sequence(seq, k).ok


@pytest.mark.parametrize("process, t_end", [(HAWKES_1D, 20.0), (HAWKES_2D, 20.0),
                                             (PERFBENCH_2D, 100.0), (HAWKES_3D, 20.0)],
                         ids=["1d", "2d", "perfbench-2d", "3d-unequal-betas"])
def test_thinning_is_byte_identical_to_the_numpy_recursion(process, t_end):
    """The float recursion draws as the numpy one does and sums in its
    order, so with fewer than 8 marks every time and mark is the same bits;
    so are the time-rescaled intervals with at most 2 marks, and with 3
    they agree to rounding."""
    for seed in range(50):
        got = thinning_sample(process, t_end, RngStream(seed).child("b"))
        want = numpy_thinning_hawkes(process, t_end, RngStream(seed).child("b"))
        assert got.times.tobytes() == want.times.tobytes(), seed
        assert np.array_equal(got.marks, want.marks), seed
        increments = total_compensator_increments(want, process)
        reference = numpy_compensator_increments(want, process)
        if process.n_marks <= 2:
            assert increments.tobytes() == reference.tobytes(), seed
        else:
            np.testing.assert_allclose(increments, reference, rtol=1e-12, atol=0.0)


def test_thinning_with_eight_marks_matches_the_numpy_recursion_to_rounding():
    """From 8 marks numpy sums pairwise, so the float recursion's left folds
    may differ from it in the last bits."""
    for seed in range(50):
        got = thinning_sample(HAWKES_8D, 20.0, RngStream(seed))
        want = numpy_thinning_hawkes(HAWKES_8D, 20.0, RngStream(seed))
        assert np.array_equal(got.marks, want.marks), seed
        np.testing.assert_allclose(got.times, want.times, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(total_compensator_increments(want, HAWKES_8D),
                                   numpy_compensator_increments(want, HAWKES_8D),
                                   rtol=1e-12, atol=0.0)


def test_thinning_raises_when_an_interval_does_not_move_the_clock():
    """After the first event the bound is about 1e200, so every proposed
    interval is below the clock's last bit; the loop used to grow its
    event list at one time without end."""
    process = HawkesParams(mu=np.array([1.0]), alpha=np.array([[1e200]]), beta=np.array([[1.0]]))
    with pytest.raises(FloatingPointError, match="does not move the clock"):
        thinning_sample(process, 10.0, RngStream(0))


def test_thinning_homogeneous_mean_count():
    proc = HawkesParams(mu=np.array([2.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))
    counts = [len(thinning_sample(proc, 100.0, RngStream(7).child(f"r{i}")))
              for i in range(500)]
    # Poisson(200) per replication; 3 sigma of the replicated mean is 1.9
    assert abs(float(np.mean(counts)) - 200.0) < 1.9


def test_thinning_hawkes_mean_count():
    counts = np.array([len(thinning_sample(HAWKES_1D, 100.0, RngStream(8).child(f"r{i}")))
                       for i in range(500)])
    # branching ODE: E[N] = mu*T/(1-a) - (a*mu/(1-a)^2)*(1 - exp(-(b-a)T)), a = alpha/beta
    expected = 500.0 - 2.5 * (1.0 - math.exp(-100.0))
    stderr = float(np.std(counts)) / math.sqrt(counts.size)
    assert abs(float(np.mean(counts)) - expected) < 3.0 * stderr


def test_multivariate_marks_in_range():
    data = make_synthetic_dataset(HAWKES_2D, 20, 100.0, RngStream(9))
    marks = np.concatenate([seq.marks for seq in data if len(seq)])
    assert set(np.unique(marks)) <= {0, 1}
    assert len(data) == 20


def test_dataset_generation_is_deterministic():
    a = make_synthetic_dataset(HAWKES_1D, 3, 20.0, RngStream(10))
    b = make_synthetic_dataset(HAWKES_1D, 3, 20.0, RngStream(10))
    for x, y in zip(a, b):
        assert np.array_equal(x.times, y.times)
        assert np.array_equal(x.marks, y.marks)


def test_dataset_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        make_synthetic_dataset(POISSON, 0, 10.0, RngStream(1))


@pytest.mark.parametrize("n", [1, 2, 30])
@pytest.mark.parametrize("process, t_end", [(HAWKES_1D, 20.0), (HAWKES_2D, 20.0),
                                             (PERFBENCH_2D, 100.0), (HAWKES_3D, 20.0),
                                             (HAWKES_8D, 20.0)],
                         ids=["1d", "2d", "perfbench-2d", "3d-unequal-betas", "8d"])
def test_hawkes_dataset_is_byte_identical_to_one_run_per_sequence(process, t_end, n):
    """The lockstep loop makes the single-run loop's operations in its
    order and draws each sequence from its own stream as that loop does,
    so every time and mark is the same bits."""
    for seed in range(20):
        got = make_synthetic_dataset(process, n, t_end, RngStream(seed))
        want = [thinning_sample(process, t_end, RngStream(seed).child(f"seq{i}"))
                for i in range(n)]
        assert len(got) == n
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.t_end == w.t_end
            assert g.times.tobytes() == w.times.tobytes(), (seed, i)
            assert np.array_equal(g.marks, w.marks), (seed, i)


def test_hawkes_dataset_raises_when_an_interval_does_not_move_the_clock():
    process = HawkesParams(mu=np.array([1.0]), alpha=np.array([[1e200]]), beta=np.array([[1.0]]))
    with pytest.raises(FloatingPointError, match="does not move the clock"):
        make_synthetic_dataset(process, 3, 10.0, RngStream(0))


def test_hawkes_dataset_raises_on_an_overflowing_bound():
    process = HawkesParams(mu=np.array([1e308]), alpha=np.array([[1e308]]),
                           beta=np.array([[2.0]]))
    with pytest.raises(NonFiniteIntensityError):
        make_synthetic_dataset(process, 3, 10.0, RngStream(0))


def test_hawkes_dataset_without_a_base_rate_is_empty():
    process = HawkesParams(mu=np.zeros(2), alpha=np.full((2, 2), 0.3), beta=np.ones((2, 2)))
    data = make_synthetic_dataset(process, 4, 10.0, RngStream(0))
    assert data == [EventSequence((), 10.0)] * 4


def test_loglik_single_event_homogeneous():
    proc = HawkesParams(mu=np.array([1.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))
    seq = sequence_from_arrays([0.42], [0], 1.0)
    assert ground_truth_loglik(seq, proc) == pytest.approx(-1.0)


def test_loglik_empty_sequence_is_survival_only():
    proc = HawkesParams(mu=np.array([2.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))
    assert ground_truth_loglik(EventSequence((), 3.0), proc) == pytest.approx(-6.0)


def test_loglik_matches_quadrature_oracle():
    seq = sequence_from_arrays([1.0, 1.5], [0, 0], 2.0)
    # oracle: log-rates at events (strict history) minus quadrature compensator
    lam1 = float(intensity(HAWKES_1D, 1.0, EventSequence((), 2.0))[0])
    lam2 = float(intensity(HAWKES_1D, 1.5, EventSequence(seq.events[:1], 2.0))[0])
    comp = (
        quad_compensator(HAWKES_1D, 0.0, 1.0, EventSequence((), 2.0))
        + quad_compensator(HAWKES_1D, 1.0, 1.5, EventSequence(seq.events[:1], 2.0))
        + quad_compensator(HAWKES_1D, 1.5, 2.0, EventSequence(seq.events, 2.0))
    )
    oracle = math.log(lam1) + math.log(lam2) - float(np.sum(comp))
    assert ground_truth_loglik(seq, HAWKES_1D) == pytest.approx(oracle, rel=1e-6)


def test_loglik_multivariate_matches_reference_forms():
    seq = sequence_from_arrays([0.5, 0.8, 1.9], [0, 1, 0], 3.0)
    total = 0.0
    prev = 0.0
    for i, event in enumerate(seq.events):
        history = EventSequence(seq.events[:i], seq.t_end)
        total += math.log(float(intensity(HAWKES_2D, event.time, history)[event.mark]))
        total -= float(np.sum(compensator(HAWKES_2D, prev, event.time, history)))
        prev = event.time
    total -= float(np.sum(compensator(HAWKES_2D, prev, seq.t_end, EventSequence(seq.events, seq.t_end))))
    assert ground_truth_loglik(seq, HAWKES_2D) == pytest.approx(total, rel=1e-10)


def test_nonstationary_hawkes_warns_but_builds(caplog):
    with caplog.at_level("WARNING"):
        proc = HawkesParams(mu=np.array([1.0]), alpha=np.array([[3.0]]), beta=np.array([[2.0]]))
    assert proc.n_marks == 1
    assert any("spectral radius" in rec.message for rec in caplog.records)


def test_process_record_round_trip():
    records = ({"kind": "sine_poisson", "A": POISSON.A, "b": POISSON.b, "omega": POISSON.omega},
               {"kind": "hawkes", "mu": HAWKES_2D.mu.tolist(), "alpha": HAWKES_2D.alpha.tolist(),
                "beta": HAWKES_2D.beta.tolist()})
    for proc, record in zip((POISSON, HAWKES_2D), records):
        rebuilt = process_from_record(record)
        assert type(rebuilt) is type(proc)
    rebuilt = process_from_record(records[1])
    assert np.array_equal(rebuilt.alpha, HAWKES_2D.alpha)


@pytest.mark.slow
def test_thousand_sequence_dataset():
    data = make_synthetic_dataset(POISSON, 1000, 100.0, RngStream(77))
    assert len(data) == 1000
    assert all(validate_sequence(seq, 1).ok for seq in data)
