import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferkit import losses, models
from deferkit.losses import LossSelector, PhiKind, PhiSpec, ProblemShape, PsiSpec
from deferkit.models import (
    LabeledDataset,
    Scorer,
    Standardizer,
    TrainConfig,
    TrainingDiverged,
    _backprop,
    fold_standardizer,
    init_linear,
    init_mlp,
    loss_and_grad,
    realized_deferral_loss,
    scorer_from_json,
    scorer_to_json,
    system_accuracy,
    train,
)
from deferkit.rng import substream
from deferkit.synthdata import MogConfig, gen_realizable_mog, gen_realizable_two_stage


def small_single_dataset(num=64, seed=0):
    cfg = MogConfig(dim=4, components=3, n=3, n_e=2)
    ds, _ = gen_realizable_mog(cfg, num, seed)
    return ds


def small_two_dataset(num=64, seed=0):
    cfg = MogConfig(dim=4, components=3, n=3, n_e=2)
    ds, _ = gen_realizable_two_stage(cfg, num, seed)
    return ds


def test_zero_weights_zero_scores():
    sc = Scorer([(np.zeros((3, 4)), np.zeros(3))], seed=0)
    assert np.all(sc.scores(np.ones((5, 4))) == 0.0)


def test_identity_linear():
    sc = Scorer([(np.eye(4), np.zeros(4))], seed=0)
    e2 = np.eye(4)[2]
    np.testing.assert_allclose(sc.scores(e2[None])[0], e2)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([None, 1, 2, 128, 16000]), d=st.integers(1, 64),
       width=st.integers(2, 12), hidden=st.integers(1, 16), seed=st.integers(0, 2**31 - 1))
def test_scorers_give_the_bits_of_row_major_products(m, d, width, hidden, seed):
    # m = None is one 1-D feature vector
    g = np.random.default_rng(seed)
    x = g.standard_normal(d if m is None else (m, d))
    rows = np.atleast_2d(x)
    lin = Scorer([(g.standard_normal((width, d)), g.standard_normal(width))])
    (w, b), = lin.layers
    assert lin.scores(x).tobytes() == (rows @ w.T + b).tobytes()
    mlp = Scorer([(g.standard_normal((hidden, d)), g.standard_normal(hidden)),
                  (g.standard_normal((width, hidden)), g.standard_normal(width))])
    (w1, b1), (w2, b2) = mlp.layers
    hid = np.maximum(0.0, rows @ w1.T + b1)
    assert mlp.scores(x).tobytes() == (hid @ w2.T + b2).tobytes()


def test_init_determinism():
    a = init_linear(6, 4, seed=9)
    b = init_linear(6, 4, seed=9)
    np.testing.assert_array_equal(a.layers[0][0], b.layers[0][0])
    m1 = init_mlp(6, 8, 4, seed=9)
    m2 = init_mlp(6, 8, 4, seed=9)
    np.testing.assert_array_equal(m1.layers[0][0], m2.layers[0][0])
    np.testing.assert_array_equal(m1.layers[1][0], m2.layers[1][0])


def test_zero_learning_rate_keeps_parameters():
    ds = small_single_dataset()
    sc = init_linear(4, 5, seed=1)
    fitted, _ = train(sc, ds, LossSelector("surrogate_mae"),
                      TrainConfig(learning_rate=0.0, epochs=3, seed=1,
                                  standardize=False))
    np.testing.assert_array_equal(fitted.layers[0][0], sc.layers[0][0])
    np.testing.assert_array_equal(fitted.layers[0][1], sc.layers[0][1])


def test_training_is_deterministic():
    ds = small_single_dataset()
    runs = []
    for _ in range(2):
        sc = init_linear(4, 5, seed=2)
        fitted, traj = train(sc, ds, LossSelector("surrogate_mae"),
                             TrainConfig(learning_rate=0.5, epochs=10, seed=2,
                                         batch_size=16))
        runs.append((fitted.layers[0][0].copy(), traj.copy()))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_gd_trajectory_non_increasing_on_convex_instance():
    ds = small_two_dataset()
    sc = init_linear(4, 2, seed=3)
    sel = LossSelector("two_stage_psi", psi=PsiSpec(q=0.0))
    _, traj = train(sc, ds, sel, TrainConfig(learning_rate=0.05, epochs=40,
                                             seed=3, standardize=False))
    surrogate = traj[:, 0]
    assert np.all(np.diff(surrogate) <= 1e-9)


def reference_train(scorer, dataset, selector, config):
    """The trainer before full-batch steps reused the last evaluation: every
    step makes its own forward pass and loss+grad call, and each epoch's
    evaluation discards its gradient."""
    model = copy.deepcopy(scorer)
    x = dataset.features
    std = Standardizer.fit(x) if config.standardize else None
    if std is not None:
        x = std.apply(x)
    m = len(dataset)
    batch = m if config.batch_size == "full" else min(int(config.batch_size), m)
    shuffle_rng = substream(config.seed, "train-shuffle")
    velocity = [np.zeros_like(p) for p in model.params()]
    trajectory = np.empty((config.epochs, 2))
    for epoch in range(config.epochs):
        order = np.arange(m) if batch == m else shuffle_rng.permutation(m)
        for start in range(0, m, batch):
            idx = order[start:start + batch]
            xb = x[idx]
            loss_vals, gout = loss_and_grad(
                selector, model.scores(xb), dataset.labels[idx], dataset.costs[idx],
                dataset.shape)
            if not np.all(np.isfinite(loss_vals)):
                raise TrainingDiverged(epoch)
            grads = _backprop(model, xb, gout)
            for p, g, v in zip(model.params(), grads, velocity):
                if config.optimizer == "momentum":
                    v *= config.momentum
                    v += g
                    p -= config.learning_rate * v
                else:
                    p -= config.learning_rate * g
        full_scores = model.scores(x)
        sur, _ = loss_and_grad(selector, full_scores, dataset.labels,
                               dataset.costs, dataset.shape)
        if dataset.stage == "single":
            tgt = losses.deferral_loss_batch(full_scores, dataset.labels,
                                             dataset.costs, dataset.shape)
        else:
            tgt = losses.two_stage_deferral_loss_batch(full_scores, dataset.costs)
        if not np.all(np.isfinite(sur)):
            raise TrainingDiverged(epoch)
        trajectory[epoch] = (sur.mean(), tgt.mean())
    if std is not None:
        model = fold_standardizer(model, std)
    return model, trajectory


SELECTORS = [
    LossSelector("surrogate_single", psi=PsiSpec(q=0.7)),
    LossSelector("two_stage_psi", psi=PsiSpec(q=0.5)),
    LossSelector("two_stage_phi", phi=PhiSpec(PhiKind.LOGISTIC)),
]


@pytest.mark.parametrize("batch_size", ["full", 64, 69, 16])
@pytest.mark.parametrize("optimizer", ["gd", "momentum"])
@pytest.mark.parametrize("model", ["linear", "mlp"])
@pytest.mark.parametrize("selector", SELECTORS, ids=lambda s: s.name)
def test_train_matches_reference_loop(selector, model, optimizer, batch_size):
    # the dataset has 64 rows, so "full", 64 and 69 are all full-batch
    ds = small_single_dataset() if selector.stage == "single" else small_two_dataset()
    width = ds.shape.width(ds.stage)
    sc = init_linear(4, width, seed=8) if model == "linear" else init_mlp(4, 6, width, seed=8)
    tc = TrainConfig(learning_rate=0.5, epochs=7, seed=8, optimizer=optimizer,
                     batch_size=batch_size)
    fitted, traj = train(sc, ds, selector, tc)
    want, want_traj = reference_train(sc, ds, selector, tc)
    for got_p, want_p in zip(fitted.params(), want.params()):
        np.testing.assert_array_equal(got_p, want_p)
    np.testing.assert_array_equal(traj, want_traj)


@pytest.mark.parametrize("batch_size,calls", [("full", 5 + 1), (16, 5 * (4 + 1))])
def test_full_batch_epoch_makes_one_loss_grad_call(monkeypatch, batch_size, calls):
    counted = []
    original = models.loss_and_grad

    def counting(selector, *args):
        counted.append(len(args[0]))
        return original(selector, *args)

    monkeypatch.setattr(models, "loss_and_grad", counting)
    ds = small_single_dataset()
    train(init_linear(4, 5, seed=9), ds, LossSelector("surrogate_mae"),
          TrainConfig(epochs=5, seed=9, batch_size=batch_size))
    # full batch: one evaluation before the first step and one per epoch;
    # minibatch: four 16-row steps and one evaluation per epoch
    assert len(counted) == calls


@pytest.mark.parametrize("batch_size", ["full", 16])
@pytest.mark.parametrize("model", ["linear", "mlp"])
@pytest.mark.parametrize("stacked", [False, True])
def test_train_without_trajectory_keeps_the_last_row(monkeypatch, stacked, model, batch_size):
    ds = small_single_dataset()
    seeds = (5, 6) if stacked else (5,)
    scorers = [init_linear(4, 5, seed) if model == "linear" else init_mlp(4, 3, 5, seed)
               for seed in seeds]
    selectors = [LossSelector("surrogate_single", psi=PsiSpec(q=0.7)),
                 LossSelector("surrogate_mae")][:len(seeds)]
    configs = [TrainConfig(learning_rate=0.5, epochs=4, seed=seed, optimizer="momentum",
                           batch_size=batch_size) for seed in seeds]
    args = (scorers, ds, selectors, configs) if stacked else (scorers[0], ds, selectors[0],
                                                              configs[0])
    want, want_traj = train(*args)
    counted = {"targets": 0, "full_loss_grad": 0}
    targets, loss_grad = models._deferral_losses, models.loss_and_grad

    def counting_targets(scores, dataset):
        counted["targets"] += 1
        return targets(scores, dataset)

    def counting_loss_grad(selector, *args):
        counted["full_loss_grad"] += len(args[0]) == len(ds)
        return loss_grad(selector, *args)

    monkeypatch.setattr(models, "_deferral_losses", counting_targets)
    monkeypatch.setattr(models, "loss_and_grad", counting_loss_grad)
    got, traj = train(*args, trajectory=False)
    assert traj.shape == (1, *want_traj.shape[1:])
    assert traj.tobytes() == want_traj[-1:].tobytes()
    for a, b in zip(got if stacked else [got], want if stacked else [want]):
        assert all(p.tobytes() == q.tobytes() for p, q in zip(a.params(), b.params()))
    # a minibatch run evaluates each model once, after its last epoch; a
    # full-batch run still scores every row before each step
    evals = 4 if batch_size == "full" else 1
    assert counted == {"targets": len(seeds) * evals,
                       "full_loss_grad": len(seeds) * (evals + (batch_size == "full"))}


# per stack kind, the selectors its models take in turn: q = 1 beside a q in
# [0, 1), the two baselines at q = 0, the four single-stage losses of the
# comp-sum kernel in a drawn order, per-model two-stage q, one shared phi
_STACKS = {
    "single": lambda q: [LossSelector("surrogate_single", psi=PsiSpec(q=q)),
                         LossSelector("surrogate_mae")],
    "baseline": lambda q: [LossSelector("baseline_verma"),
                           LossSelector("baseline_mao", psi=PsiSpec(q=0.0))],
    "comp_sum": lambda q: [LossSelector("surrogate_single", psi=PsiSpec(q=q)),
                           LossSelector("surrogate_mae"), LossSelector("baseline_verma"),
                           LossSelector("baseline_mao", psi=PsiSpec(q=q))],
    "two_stage_psi": lambda q: [LossSelector("two_stage_psi", psi=PsiSpec(q=q)),
                                LossSelector("two_stage_psi", psi=PsiSpec(q=1.0))],
    "two_stage_phi": lambda q: [LossSelector("two_stage_phi", phi=PhiSpec(PhiKind.HINGE))],
}


@settings(max_examples=80, deadline=None)
@given(stack=st.sampled_from(sorted(_STACKS)),
       q=st.one_of(st.just(0.0), st.just(0.5), st.floats(0.01, 0.99)),
       order=st.permutations(range(4)),
       dim=st.sampled_from([1, 4]), model=st.sampled_from(["linear", "mlp"]),
       hidden=st.integers(1, 5),
       optimizer=st.sampled_from(["gd", "momentum"]),
       # 64 rows: batches of 21 leave a last batch of 1, of 23 one of 18
       batch_size=st.sampled_from(["full", 16, 21, 23]),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_stacked_train_is_each_model_trained_alone(stack, q, order, dim, model, hidden, optimizer,
                                                   batch_size, seeds):
    kinds = _STACKS[stack](q)
    order = order if stack == "comp_sum" else range(len(kinds))
    selectors = [kinds[order[s % len(kinds)]] for s in range(len(seeds))]
    ds = small_single_dataset() if selectors[0].stage == "single" else small_two_dataset()
    # one input or one hidden unit makes a matrix-vector product
    ds = LabeledDataset(ds.features[:, :dim], ds.labels, ds.costs, ds.shape, ds.stage)
    width = ds.shape.width(ds.stage)
    scorers = [init_linear(dim, width, seed) if model == "linear"
               else init_mlp(dim, hidden, width, seed) for seed in seeds]
    configs = [TrainConfig(learning_rate=0.5, epochs=3, seed=seed, optimizer=optimizer,
                           batch_size=batch_size) for seed in seeds]
    fitted, traj = train(scorers, ds, selectors, configs)
    assert traj.shape == (3, len(seeds), 2)
    for s, (scorer, selector, config) in enumerate(zip(scorers, selectors, configs)):
        alone, alone_traj = train(scorer, ds, selector, config)
        assert len(fitted[s].layers) == len(alone.layers) and fitted[s].seed == alone.seed
        for got, want in zip(fitted[s].params(), alone.params()):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert traj[:, s].tobytes() == alone_traj.tobytes()


def test_stack_models_share_a_kernel_a_config_and_a_scorer_kind():
    ds = small_single_dataset()
    sc, mae = init_linear(4, 5, seed=1), LossSelector("surrogate_mae")
    tc = TrainConfig(epochs=1, seed=1)
    for scorers, selectors, configs in [
        ([sc, sc], [mae, LossSelector("two_stage_psi", psi=PsiSpec(q=0.5))], [tc, tc]),
        ([sc, sc], [mae, mae], [tc, replace(tc, learning_rate=0.1)]),
        ([sc, init_mlp(4, 5, 5, seed=1)], [mae, mae], [tc, tc]),
        ([init_mlp(4, 5, 5, seed=0), init_mlp(4, 6, 5, seed=1)], [mae, mae], [tc, tc]),
        ([sc, init_linear(3, 5, seed=1)], [mae, mae], [tc, tc]),
        ([sc, sc], [mae], [tc, tc]),
        ([], [], []),
    ]:
        with pytest.raises(ValueError, match="a stack needs"):
            train(scorers, ds, selectors, configs)
    # seeds may differ (and so may q and the single-stage loss: see
    # test_stacked_train_is_each_model_trained_alone)
    train([sc, sc], ds, [mae, mae], [tc, replace(tc, seed=2)])


def test_train_rejects_empty_dataset():
    empty = LabeledDataset(features=np.empty((0, 4)), labels=np.empty(0, dtype=int),
                           costs=np.empty((0, 2)), shape=ProblemShape(3, 2))
    with pytest.raises(ValueError, match="empty"):
        train(init_linear(4, 5, seed=0), empty, LossSelector("surrogate_mae"),
              TrainConfig(epochs=1))


@pytest.mark.parametrize("field", ["learning_rate", "momentum"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -3.0])
def test_train_config_rejects_a_bad_rate(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >= 0"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("epochs", 2.5), ("epochs", float("nan")), ("epochs", True), ("epochs", 3.0), ("epochs", 0),
    ("batch_size", 2.7), ("batch_size", True), ("batch_size", float("nan")),
    ("batch_size", 0), ("batch_size", "half"),
])
def test_train_config_rejects_a_bad_count(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
        TrainConfig(**{field: value})
    TrainConfig(**{field: np.int64(3)})


def test_divergence_raises_with_epoch():
    ds = small_two_dataset()
    sc = init_linear(4, 2, seed=4)
    sel = LossSelector("two_stage_phi", phi=PhiSpec(PhiKind.EXPONENTIAL))
    # a scorer whose initial scores already overflow fails at the first step
    huge = Scorer([(np.array([[1e300] * 4, [-1e300] * 4]), np.zeros(2))], seed=4)
    epochs = []
    for start, lr, batch_size in [(sc, 1e12, "full"), (sc, 1e12, 16), (sc, 3.0, "full"),
                                  (sc, 3.0, 16), (huge, 0.1, "full")]:
        tc = TrainConfig(learning_rate=lr, epochs=50, seed=4, batch_size=batch_size,
                         optimizer="momentum")
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as want:
                reference_train(start, ds, sel, tc)
            with pytest.raises(TrainingDiverged) as got:
                train(start, ds, sel, tc)
        assert got.value.epoch == want.value.epoch
        epochs.append(got.value.epoch)
    assert 0 in epochs and 1 in epochs


ALL_SELECTORS = [
    LossSelector("surrogate_single", psi=PsiSpec(q=0.7)),
    LossSelector("surrogate_mae"),
    LossSelector("baseline_verma"),
    LossSelector("baseline_mao", psi=PsiSpec(q=0.0)),
    LossSelector("two_stage_phi", phi=PhiSpec(PhiKind.LOGISTIC)),
    LossSelector("two_stage_psi", psi=PsiSpec(q=0.5)),
]


@pytest.mark.parametrize("batch_size", ["full", 4])
@pytest.mark.parametrize("selector", ALL_SELECTORS, ids=lambda s: s.name)
@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from(["linear", "mlp"]), param=st.integers(0, 3),
       where=st.integers(0, 10**6), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_train_fails_closed_on_non_finite_parameters(selector, batch_size, model,
                                                     param, where, bad):
    ds = small_single_dataset(16) if selector.stage == "single" else small_two_dataset(16)
    width = ds.shape.width(ds.stage)
    sc = init_linear(4, width, seed=3) if model == "linear" else init_mlp(4, 5, width, seed=3)
    p = sc.params()[param % len(sc.params())]
    p.flat[where % p.size] = bad
    tc = TrainConfig(learning_rate=0.5, epochs=2, seed=3, batch_size=batch_size,
                     optimizer="momentum")
    with np.errstate(all="ignore"):
        with pytest.raises((ValueError, TrainingDiverged)):
            train(sc, ds, selector, tc)


def test_system_accuracy_extremes():
    shape = ProblemShape(2, 1)
    feats = np.eye(2)
    # scorer that copies features: predicts the label for one-hot inputs
    sc = Scorer([(np.vstack([np.eye(2), np.zeros((1, 2))]), np.array([0.0, 0.0, -1.0]))],
                seed=0)
    ds = LabeledDataset(features=feats, labels=np.array([0, 1]),
                        costs=np.ones((2, 1)), shape=shape, stage="single")
    assert system_accuracy(sc, ds) == 1.0
    # scorer that always defers to an expert with cost 1
    defer = Scorer([(np.zeros((3, 2)), np.array([0.0, 0.0, 9.0]))], seed=0)
    assert system_accuracy(defer, ds) == 0.0


def test_system_accuracy_empty():
    sc = init_linear(4, 5, seed=5)
    empty = LabeledDataset(features=np.empty((0, 4)), labels=np.empty(0, dtype=int),
                           costs=np.empty((0, 2)), shape=ProblemShape(3, 2),
                           stage="single")
    with pytest.raises(ValueError):
        system_accuracy(sc, empty)


def test_standardize_folds_back_to_raw_features():
    ds = small_single_dataset(num=128)
    sc = init_linear(4, 5, seed=6)
    sel = LossSelector("surrogate_mae")
    fitted, traj = train(sc, ds, sel, TrainConfig(learning_rate=1.0, epochs=30,
                                                  seed=6, standardize=True))
    # the recorded final trajectory entry must match the returned model
    # evaluated directly on raw features
    final = float(realized_deferral_loss(fitted, ds).mean())
    assert final == pytest.approx(traj[-1, 1], abs=1e-12)


def test_scorer_json_round_trip():
    for scorer in (init_linear(4, 5, seed=7), init_mlp(4, 6, 5, seed=7)):
        text = scorer_to_json(scorer)
        back = scorer_from_json(text)
        x = np.random.default_rng(0).standard_normal((3, 4))
        np.testing.assert_array_equal(scorer.scores(x), back.scores(x))
        assert scorer_to_json(back) == text


def test_scorer_json_holds_one_or_two_layers():
    mlp = init_mlp(4, 6, 5, seed=7)
    with pytest.raises(ValueError, match="1 or 2 layers"):
        scorer_to_json(Scorer(mlp.layers[:1] + [(np.eye(6), np.zeros(6))] + mlp.layers[1:]))
    doc = json.loads(scorer_to_json(mlp))
    for layers in ([0], [0, 1, 1]):
        bad = dict(doc, **{k: [doc[k][i] for i in layers] for k in ("dims", "weights", "bias")})
        with pytest.raises(ValueError, match="exactly two layers"):
            scorer_from_json(json.dumps(bad))


def test_scorer_checks_its_layer_shapes():
    mlp = init_mlp(4, 6, 5, seed=7)
    (w1, b1), (w2, b2) = mlp.layers
    for layers in ([], [(w1, b1), (np.zeros((5, 7)), b2)], [(w1, np.zeros(5))],
                   [(w1[None], b1)], [(np.zeros(4), np.zeros(()))]):
        with pytest.raises(ValueError, match="^layers: "):
            Scorer(layers)
    # a stack of two models is one scorer
    Scorer([(np.stack([w1, w1]), np.stack([b1, b1])), (np.stack([w2, w2]), np.stack([b2, b2]))])
    # an mlp document whose second layer does not chain, and a linear one
    # whose bias does not fit its layer, fail on load
    doc = json.loads(scorer_to_json(mlp))
    doc["dims"][1], doc["weights"][1] = [5, 7], [0.0] * 35
    linear = dict(json.loads(scorer_to_json(init_linear(4, 5, seed=7))), bias=[0.0] * 3)
    for bad in (doc, linear):
        with pytest.raises(ValueError, match="^layers: "):
            scorer_from_json(json.dumps(bad))
    # a layer width below 1, or not an integer, names the argument that gave it
    for call, field in ((lambda: init_linear(0, 4, 0), "input_dim"),
                        (lambda: init_linear(4, 0, 0), "output_width"),
                        (lambda: init_mlp(0, 6, 5, 0), "input_dim"),
                        (lambda: init_mlp(4, 0, 5, 0), "hidden_dim"),
                        (lambda: init_mlp(4, 6, -1, 0), "output_width"),
                        (lambda: init_linear(2.5, 4, 0), "input_dim"),
                        (lambda: init_linear(4, "5", 0), "output_width"),
                        (lambda: init_mlp(4, True, 5, 0), "hidden_dim")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
            call()


def test_scorer_refuses_non_finite_parameters():
    for bad in (np.nan, np.inf, -np.inf):
        for param in range(4):   # W and b of both layers
            mlp = init_mlp(4, 6, 5, seed=7)
            mlp.params()[param].flat[-1] = bad
            with pytest.raises(ValueError, match="^layers: .*finite"):
                Scorer(mlp.layers)
    doc = json.loads(scorer_to_json(init_linear(4, 5, seed=7)))
    text = json.dumps(dict(doc, bias=[0.0, float("inf"), 0.0, 0.0, 0.0]))
    assert "Infinity" in text
    with pytest.raises(ValueError, match="^layers: .*finite"):
        scorer_from_json(text)


def test_scorer_json_fails_closed():
    doc = json.loads(scorer_to_json(init_linear(4, 5, seed=7)))
    for field in ("seed", "kind", "bias"):
        with pytest.raises(ValueError, match=field):
            scorer_from_json(json.dumps({k: v for k, v in doc.items() if k != field}))
    for bad in (np.nan, np.inf):
        sc = init_linear(4, 5, seed=7)
        sc.layers[0][0][2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            scorer_to_json(sc)


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(features=np.zeros((2, 3)), labels=np.array([0, 1]),
                       costs=np.full((2, 2), 1.5), shape=ProblemShape(2, 2),
                       stage="single")
    with pytest.raises(ValueError):
        LabeledDataset(features=np.zeros((2, 3)), labels=np.array([0]),
                       costs=np.ones((2, 2)), shape=ProblemShape(2, 2),
                       stage="single")
    nan, inf = np.nan, np.inf
    for features, labels, costs in [
        ([[nan, 1.0]], [0], [[nan, 0.5]]),
        ([[nan, 1.0]], [0], [[0.0, 0.5]]),
        ([[inf, 1.0]], [0], [[0.0, 0.5]]),
        ([[0.0, 1.0]], [0], [[nan, 0.5]]),
        ([[0.0, 1.0]], [0], [[inf, 0.5]]),
        ([[0.0, 1.0]], [7], [[0.0, 0.5]]),
        ([[0.0, 1.0]], [2], [[0.0, 0.5]]),
        ([[0.0, 1.0]], [-1], [[0.0, 0.5]]),
        ([[0.0, 1.0]], [0.9], [[0.0, 0.5]]),     # fractional: never truncated to 0
        ([[0.0, 1.0]], [1.0], [[0.0, 0.5]]),     # a float label, even a whole one
        ([[0.0, 1.0]], [True], [[0.0, 0.5]]),
        ([[0.0, 1.0]], ["1"], [[0.0, 0.5]]),
        ([0.0, 1.0], [0, 1], [[0.0, 0.5], [0.5, 0.0]]),   # 1-D features
        ([[0.0, 1.0]], [0], [0.0, 0.5]),                  # 1-D costs
        ([[0.0, 1.0]], [0], [[[0.0, 0.5]]]),              # 3-D costs
        ([[0.0, 1.0]], [[0]], [[0.0, 0.5]]),              # 2-D labels
    ]:
        with pytest.raises(ValueError):
            LabeledDataset(features, labels, costs, ProblemShape(2, 2))


def test_loss_selector_validation():
    with pytest.raises(ValueError):
        LossSelector("surrogate_single")  # needs a PsiSpec
    with pytest.raises(ValueError):
        LossSelector("two_stage_phi")  # needs a PhiSpec
    with pytest.raises(ValueError):
        LossSelector("nonsense")
    # a spec the loss does not take, or a q other than the one it fixes
    with pytest.raises(ValueError, match="takes no phi"):
        LossSelector("surrogate_mae", phi=PhiSpec(PhiKind.LOGISTIC))
    with pytest.raises(ValueError, match="takes no q"):
        LossSelector("two_stage_phi", psi=PsiSpec(q=0.5), phi=PhiSpec(PhiKind.LOGISTIC))
    with pytest.raises(ValueError, match="fixes q = 0.0"):
        LossSelector("baseline_verma", psi=PsiSpec(q=0.5))
    assert LossSelector("baseline_verma", psi=PsiSpec(q=0.0)) == LossSelector("baseline_verma")
    assert LossSelector("surrogate_mae").psi == PsiSpec(q=1.0)
    # the target rows take no spec and have no gradient
    with pytest.raises(ValueError, match="takes no q"):
        LossSelector("deferral", psi=PsiSpec(q=1.0))
    for name, stage in (("deferral", "single"), ("two_stage_deferral", "two")):
        target = LossSelector(name)
        assert target.is_target and target.stage == stage
        with pytest.raises(ValueError, match="target loss"):
            loss_and_grad(target, np.zeros((1, 5)), [0], [[0.5, 0.5]], ProblemShape(3, 2))


@pytest.mark.parametrize("name, field, spec", [("two_stage_psi", "psi", 0.5),
                                               ("two_stage_phi", "phi", "logistic")])
def test_loss_selector_refuses_a_spec_of_another_type(name, field, spec):
    # a float q or a phi name once constructed, and verify_enhanced_bound then
    # raised AttributeError on it
    with pytest.raises(ValueError, match=rf"^{field} must be a {field.capitalize()}Spec"):
        LossSelector(name, **{field: spec})
