import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferkit.losses import expert_brackets
from deferkit.models import realized_deferral_loss
from deferkit.oracles import minimal_margin
from deferkit.synthdata import (
    _MAX_RESAMPLES,
    ExpertRangeSpec,
    MogConfig,
    _premise_costs,
    gen_class_range_experts,
    gen_random_discrete_task,
    gen_realizable_mog,
    gen_realizable_two_stage,
)


def test_realizable_mog_ground_truth_has_zero_loss():
    cfg = MogConfig()
    ds, hstar = gen_realizable_mog(cfg, 3000, seed=0)
    assert realized_deferral_loss(hstar, ds).mean() == 0.0


def test_realizable_mog_label_structure():
    cfg = MogConfig(n=3, n_e=2)
    ds, hstar = gen_realizable_mog(cfg, 1000, seed=1)
    preds = np.argmax(hstar.scores(ds.features), axis=1)
    predicted = preds < cfg.n
    # where the hidden scorer predicts, the label matches its prediction and
    # no expert is free
    np.testing.assert_array_equal(ds.labels[predicted], preds[predicted])
    assert np.all(ds.costs[predicted] == 1.0)
    # where it defers, exactly the chosen expert is free
    deferred = ~predicted
    chosen = preds[deferred] - cfg.n
    assert np.all(ds.costs[deferred, chosen] == 0.0)
    assert ds.costs[deferred].sum(axis=1).max() == cfg.n_e - 1


def test_realizable_mog_deterministic():
    cfg = MogConfig()
    a, ha = gen_realizable_mog(cfg, 200, seed=4)
    b, hb = gen_realizable_mog(cfg, 200, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(ha.layers[0][0], hb.layers[0][0])
    c, _ = gen_realizable_mog(cfg, 200, seed=5)
    assert not np.array_equal(a.features, c.features)


def test_realizable_two_stage_zero_loss():
    for n_e in (2, 4):
        cfg = MogConfig(n_e=n_e)
        ds, rstar = gen_realizable_two_stage(cfg, 1500, seed=2)
        assert realized_deferral_loss(rstar, ds).mean() == 0.0
        # exactly one free expert per row
        assert np.all(ds.costs.sum(axis=1) == n_e - 1)


@pytest.mark.parametrize("generate,num_samples", [
    (gen_realizable_mog, 0), (gen_realizable_mog, 5), (gen_realizable_mog, 6.0),
    (gen_realizable_mog, True), (gen_realizable_two_stage, 1), (gen_realizable_two_stage, -3),
])
def test_realizable_generators_need_a_row_per_output(generate, num_samples):
    # MogConfig() has 4 labels and 2 experts: 6 single-stage outputs, 2 two-stage
    with pytest.raises(ValueError, match="^num_samples must be an integer >= "):
        generate(MogConfig(), num_samples, seed=0)
    least = 6 if generate is gen_realizable_mog else 2
    assert len(generate(MogConfig(), np.int64(least), seed=0)[0]) == least


def test_class_range_experts_costs():
    cfg = MogConfig(n=10, n_e=2)
    spec = ExpertRangeSpec(ranges=((0, 3), (3, 6)))
    ds = gen_class_range_experts(cfg, spec, 2000, seed=3)
    for j, (lo, hi) in enumerate(spec.ranges):
        in_range = (ds.labels >= lo) & (ds.labels < hi)
        assert np.all(ds.costs[in_range, j] == 0.0)
        assert np.all(ds.costs[~in_range, j] == 1.0)


def test_class_range_spec_validation():
    with pytest.raises(ValueError):
        ExpertRangeSpec(ranges=((3, 3),))
    cfg = MogConfig(n=4, n_e=1)
    with pytest.raises(ValueError):
        gen_class_range_experts(cfg, ExpertRangeSpec(ranges=((0, 9),)), 10, 0)


def test_random_task_premise_constraint():
    for i in range(20):
        task = gen_random_discrete_task(6, i, constraint="theorem7_premise")
        b = expert_brackets(task.costs.reshape(-1, task.shape.n_e))
        assert np.all(b >= -1e-12)
        assert task.shape.n_e >= 2


def premise_costs_by_row(g, rows, n_e):
    """The row loop that _premise_costs's block draw replaced: one draw per
    attempt, each row checked on its own with the sum-minus-max test."""
    costs = np.empty((rows, n_e))
    for y in range(rows):
        for _ in range(_MAX_RESAMPLES + 1):
            row = g.uniform(0.0, 1.0, size=n_e)
            if row.sum() - row.max() >= n_e - 2:
                costs[y] = row
                break
        else:
            raise RuntimeError("cost resampling cap reached for premise constraint")
    return costs


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rows=st.integers(1, 30), n_e=st.integers(2, 4))
def test_premise_costs_match_the_row_loop(seed, rows, n_e):
    def stream():
        return np.random.Generator(np.random.Philox(seed))

    want = premise_costs_by_row(stream(), rows, n_e)
    assert _premise_costs(stream(), rows, n_e).tobytes() == want.tobytes()


def test_premise_costs_raise_at_the_cap():
    # with 12 experts a row passes with odds far below 1 in 10001
    for costs in (premise_costs_by_row, _premise_costs):
        with pytest.raises(RuntimeError, match="resampling cap"):
            costs(np.random.Generator(np.random.Philox(0)), 3, 12)


def test_random_task_margin_constraint():
    for i in range(20):
        task = gen_random_discrete_task(6, i, constraint="positive_margin")
        assert minimal_margin(task, "single").min() >= 1e-3
        assert minimal_margin(task, "two").min() >= 1e-3


def test_random_task_determinism_and_errors():
    a = gen_random_discrete_task(8, 3)
    b = gen_random_discrete_task(8, 3)
    np.testing.assert_array_equal(a.costs, b.costs)
    c = gen_random_discrete_task(8, 4)
    assert a.costs.shape != c.costs.shape or not np.array_equal(a.costs, c.costs)
    with pytest.raises(ValueError):
        gen_random_discrete_task(8, 0, constraint="bogus")


@pytest.mark.parametrize("field,value,constraint", [
    ("n_max", 1, "none"), ("k_max", 1, "none"), ("k_max", 0, "positive_margin"),
    ("ne_max", 0, "none"), ("ne_max", 1, "theorem7_premise"), ("ne_max", 1, "positive_margin"),
    ("n_max", 2.5, "none"), ("ne_max", True, "none"), ("k_max", "6", "none"),
])
def test_random_task_bounds_name_their_field(field, value, constraint):
    # a bound that the draw cannot meet, or that is no integer, is an error,
    # never lifted or rounded in silence
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        gen_random_discrete_task(0, 0, constraint=constraint, **{field: value})
    assert gen_random_discrete_task(0, 0, ne_max=1).shape.n_e == 1
