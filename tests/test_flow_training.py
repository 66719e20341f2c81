import numpy as np
import pytest

from foagen.conditioning import upsample_features
from foagen.errors import DivergenceDetected, FoagenError, InvalidValue, ShapeMismatch
from foagen.flow import training
from foagen.flow import (
    MaskSpec,
    MaskedLatent,
    TimeSampler,
    TrainConfig,
    VelocityModel,
    build_condition,
    cfm_loss,
    make_mask,
    random_mask_spec,
    sample_time,
    train,
)


def _point_mass_dataset(c, copies=64):
    c = np.asarray(c, dtype=float)
    return [(c[None, :], None) for _ in range(copies)]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(cond_dropout=1.5)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
def test_train_config_refuses_a_non_finite_learning_rate(rate):
    with pytest.raises(ValueError, match=f"learning_rate must be positive and finite, got {rate}"):
        TrainConfig(learning_rate=rate)


def test_train_rejects_empty_dataset():
    model = VelocityModel.initialize(2, 2, (4,), np.random.default_rng(0))
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(steps=1))


def test_train_is_deterministic():
    cfg = TrainConfig(learning_rate=0.02, batch_size=8, steps=40, seed=5)
    traces = []
    for _ in range(2):
        model = VelocityModel.initialize(2, 2, (6,), np.random.default_rng(1))
        traces.append(train(model, _point_mass_dataset([1.0, -1.0]), cfg))
    assert traces[0] == traces[1]  # bit-identical, not merely close


def test_point_mass_converges_and_beats_linear_fit():
    """Loss decay checked against a closed-form linear least-squares floor."""
    c = np.array([3.0, -2.0])
    model = VelocityModel.initialize(2, 2, (16,), np.random.default_rng(1))
    cfg = TrainConfig(
        learning_rate=0.02,
        batch_size=16,
        steps=2000,
        seed=3,
        time_sampler=TimeSampler("logit_normal"),
    )
    trace = train(model, _point_mass_dataset(c), cfg)
    lead = float(np.mean(trace[:100]))
    trail = float(np.mean(trace[-100:]))
    assert trail < 0.1 * lead

    # closed-form fit of u = c - x0 on [x_t, t, 1] under the same time law
    rng = np.random.default_rng(9)
    m = 200_000
    x0 = rng.standard_normal((m, 2))
    t = 1.0 / (1.0 + np.exp(-rng.standard_normal(m)))
    xt = t[:, None] * c + (1 - t[:, None]) * x0
    u = c - x0
    phi = np.hstack([xt, t[:, None], np.ones((m, 1))])
    coef, *_ = np.linalg.lstsq(phi, u, rcond=None)
    floor = float(np.mean(np.sum((u - phi @ coef) ** 2, axis=1) / 2))
    # the tanh net should at least match the best linear predictor
    assert trail <= 1.2 * floor


def test_divergence_detected():
    # Warnings are errors under this suite's configuration, so a numpy
    # overflow warning on the way to the divergence would raise instead.
    model = VelocityModel.initialize(2, 2, (8,), np.random.default_rng(2))
    cfg = TrainConfig(learning_rate=1e9, batch_size=4, steps=500, seed=0)
    with pytest.raises(DivergenceDetected):
        train(model, _point_mass_dataset([5.0, 5.0]), cfg)


def test_a_last_step_that_leaves_a_weight_non_finite_is_divergence():
    model = VelocityModel.initialize(2, 2, (8,), np.random.default_rng(2))
    config = TrainConfig(learning_rate=1e308, steps=1)
    with pytest.raises(DivergenceDetected, match="non-finite weights after step 0"):
        train(model, _point_mass_dataset([1e3, 1e3]), config)


def test_masked_pretraining_runs_with_span_masks():
    rng = np.random.default_rng(4)
    seq = rng.standard_normal((12, 2))
    dataset = [(seq, None)]
    model = VelocityModel.initialize(2, 2, (6,), np.random.default_rng(3))
    cfg = TrainConfig(
        learning_rate=0.01,
        batch_size=4,
        steps=30,
        seed=7,
        mask_spec=MaskSpec(p_cond=0.5, n_mask=2, l_mask=2),
        span_choices=(1, 2, 3),
    )
    trace = train(model, dataset, cfg)
    assert len(trace) == 30
    assert all(np.isfinite(trace))


def test_fine_tune_covers_all_frames():
    # masked_frames_only=False trains even when the drawn mask is partial
    rng = np.random.default_rng(5)
    seq = rng.standard_normal((10, 2))
    model = VelocityModel.initialize(2, 2, (6,), np.random.default_rng(4))
    cfg = TrainConfig(
        learning_rate=0.01,
        batch_size=4,
        steps=20,
        seed=8,
        mask_spec=MaskSpec(p_cond=1.0, n_mask=1, l_mask=2),
        masked_frames_only=False,
    )
    trace = train(model, [(seq, None)], cfg)
    assert len(trace) == 20


def test_global_and_local_conditions_accepted():
    rng = np.random.default_rng(6)
    seq = rng.standard_normal((8, 2))
    g = np.array([1.0, 0.0, -1.0])
    local = rng.standard_normal((8, 3))
    model = VelocityModel.initialize(2, 2 + 3, (6,), np.random.default_rng(5))
    cfg = TrainConfig(learning_rate=0.01, batch_size=2, steps=10, seed=9)
    assert len(train(model, [(seq, g)], cfg)) == 10
    model2 = VelocityModel.initialize(2, 2 + 3, (6,), np.random.default_rng(5))
    assert len(train(model2, [(seq, local)], cfg)) == 10


def test_cond_dropout_changes_training():
    rng = np.random.default_rng(7)
    seq = rng.standard_normal((6, 2))
    g = np.array([2.0, -2.0])

    def run(dropout):
        model = VelocityModel.initialize(2, 2 + 2, (6,), np.random.default_rng(6))
        cfg = TrainConfig(
            learning_rate=0.01, batch_size=4, steps=25, seed=10, cond_dropout=dropout
        )
        return train(model, [(seq, g)], cfg)

    assert run(0.0) != run(0.9)


def _reference_train(model, dataset, config):
    """The per-draw loop: one forward and one backward pass per sample.

    Draws are made in the same RNG order as ``train``: the batch's
    indices, then the noise of all its frames, its times and its
    dropout draws in one call each, then each draw's span count and mask.
    Each draw's loss is the mean squared velocity error over its selected
    frames, and its gradients are scaled by 1/B and summed before the SGD
    update.
    """
    rng = np.random.default_rng(config.seed)
    trace = []
    for _ in range(config.steps):
        indices = rng.integers(0, len(dataset), size=config.batch_size)
        rows = sum(dataset[int(index)][0].shape[0] for index in indices)
        noise = rng.standard_normal((rows, dataset[0][0].shape[1]))
        times = sample_time(config.time_sampler, rng, config.batch_size)
        dropped = np.zeros(config.batch_size, dtype=bool)
        if dataset[0][1] is not None and config.cond_dropout > 0.0:
            dropped = rng.random(config.batch_size) < config.cond_dropout
        batch_loss, batch_grads, row = 0.0, None, 0
        for draw, index in enumerate(indices):
            x1, external = dataset[int(index)]
            frames = x1.shape[0]
            x0 = noise[row : row + frames]
            row += frames
            t = times[draw]
            if config.mask_spec is not None:
                spec = config.mask_spec
                if config.span_choices is not None:
                    spec = random_mask_spec(spec, frames, rng, config.span_choices)
                mask, _ = make_mask(frames, spec, rng)
            else:
                mask = np.ones(frames, dtype=bool)
            local = global_cond = None
            if external is not None:
                arr = np.asarray(external, dtype=np.float64)
                if dropped[draw]:
                    arr = np.zeros_like(arr)
                if arr.ndim == 1:
                    global_cond = arr
                else:
                    local = arr
            cond = build_condition(MaskedLatent(x1, mask).condition_view(), local, global_cond)
            predicted, cache = model.forward_cached(t, cond, t * x1 + (1.0 - t) * x0)
            residual = predicted - (x1 - x0)
            selected = mask if config.masked_frames_only else np.ones(frames, dtype=bool)
            n_terms = int(selected.sum()) * x1.shape[1]
            grad_out = np.zeros_like(residual)
            grad_out[selected] = 2.0 * residual[selected] / n_terms
            grads = model.backward(cache, grad_out)
            batch_loss += float(np.sum(residual[selected] ** 2) / n_terms) / config.batch_size
            scaled = [(dw / config.batch_size, db / config.batch_size) for dw, db in grads]
            batch_grads = scaled if batch_grads is None else [
                (tw + dw, tb + db) for (tw, tb), (dw, db) in zip(batch_grads, scaled)
            ]
        model.apply_gradients(batch_grads, config.learning_rate)
        trace.append(batch_loss)
    return trace


def _ragged_dataset(kind, dims=3, channels=2):
    """Sequences of 1-300 frames, with a few longer than one frame table."""
    rng = np.random.default_rng(12)
    lengths = [1, 2, 3, 7, 64, 255, 256, 257, 300, *rng.integers(1, 301, size=7)]
    dataset = []
    for frames in lengths:
        x1 = rng.standard_normal((frames, dims))
        if kind == "global":
            external = rng.standard_normal(channels)
        else:
            external = rng.standard_normal((max(1, frames // 4), channels))
        dataset.append((x1, external))
    return dataset


# p_cond 0 draws only fully hidden masks and 1 only partial ones; the mixed
# case keeps the test ids it had before the other two were added.
@pytest.mark.parametrize(
    "p_cond",
    [pytest.param(0.7, id=pytest.HIDDEN_PARAM),
     pytest.param(0.0, id="all-full"),
     pytest.param(1.0, id="all-partial")],
)
@pytest.mark.parametrize("masked_frames_only", [True, False])
@pytest.mark.parametrize("kind", ["local", "global"])
def test_frame_tables_match_per_draw_reference(kind, masked_frames_only, p_cond):
    dims, channels = 3, 2
    dataset = _ragged_dataset(kind, dims, channels)
    config = TrainConfig(
        learning_rate=0.01,
        batch_size=6,
        steps=8,
        seed=13,
        time_sampler=TimeSampler("logit_normal"),
        mask_spec=MaskSpec(p_cond=p_cond, n_mask=1, l_mask=1),
        span_choices=(1, 2, 3),
        masked_frames_only=masked_frames_only,
        cond_dropout=0.3,
    )
    models = [
        VelocityModel.initialize(dims, dims + channels, (8, 6), np.random.default_rng(14))
        for _ in range(2)
    ]
    got = train(models[0], dataset, config)
    want = _reference_train(models[1], dataset, config)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    for a, b in zip(models[0].weights + models[0].biases, models[1].weights + models[1].biases):
        assert np.max(np.abs(a - b)) < 1e-12


def _train_through_cfm_loss(model, dataset, config):
    """``train`` rebuilt from its documented draws and frame tables, with
    every table scored by a direct call of :func:`cfm_loss`.

    It draws in the same order and packs the same tables, so the trace and
    weights must equal ``train``'s bit for bit.
    """
    x1s, frames, kind, conds = training._check_dataset(dataset, model.latent_dim)
    dims, batch = model.latent_dim, config.batch_size
    rng = np.random.default_rng(config.seed)
    trace = []
    for step in range(config.steps):
        indices = rng.integers(0, len(x1s), size=batch)
        counts = frames[indices]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        noise = rng.standard_normal((int(offsets[-1]), dims))
        times = sample_time(config.time_sampler, rng, batch)
        dropped = np.zeros(batch, dtype=bool)
        if kind != "none" and config.cond_dropout > 0.0:
            dropped = rng.random(batch) < config.cond_dropout
        masks = [np.ones(n, dtype=bool) for n in counts]
        if config.mask_spec is not None:
            masks = training._draw_masks(counts.tolist(), config, rng)
        covered_only = config.mask_spec is not None and config.masked_frames_only
        selected = np.array([m.sum() for m in masks]) if covered_only else counts
        batch_loss, batch_grads = 0.0, None
        for first, stop in training._table_bounds(selected.tolist()):
            draws = range(first, stop)
            mask = np.concatenate([masks[d] for d in draws])
            keep = mask if covered_only else np.ones(mask.size, dtype=bool)
            x1 = np.concatenate([x1s[indices[d]] for d in draws])
            view = np.where(mask[:, None], 0.0, x1)
            # Global vectors, one per row, go in as full-rate local features.
            local = None
            if kind == "global":
                local = np.repeat(conds[indices[first:stop]], counts[first:stop], axis=0)
                local[np.repeat(dropped[first:stop], counts[first:stop])] = 0.0
                local = local[keep]
            elif kind == "local":
                local = np.concatenate([
                    upsample_features(conds[indices[d]], counts[d]) for d in draws
                ])
                local[np.repeat(dropped[first:stop], counts[first:stop])] = 0.0
                local = local[keep]
            cond = build_condition(view[keep], local)
            per_row = np.repeat(1.0 / (batch * selected[first:stop] * dims), counts[first:stop])
            loss, grads = cfm_loss(
                model,
                noise[offsets[first] : offsets[stop]][keep],
                x1[keep],
                np.repeat(times[first:stop], counts[first:stop])[keep],
                cond,
                per_row[keep],
            )
            batch_loss += loss
            batch_grads = grads if batch_grads is None else [
                (tw + dw, tb + db) for (tw, tb), (dw, db) in zip(batch_grads, grads)
            ]
        model.apply_gradients(batch_grads, config.rate(step))
        trace.append(batch_loss)
    return trace


@pytest.mark.parametrize("masking", ["none", "hidden-frames", "all-frames"])
@pytest.mark.parametrize("kind", ["local", "global"])
def test_train_scores_tables_as_cfm_loss_does(kind, masking):
    dims, channels = 3, 2
    config = TrainConfig(
        learning_rate=0.01,
        batch_size=6,
        steps=8,
        seed=13,
        time_sampler=TimeSampler("logit_normal"),
        mask_spec=None if masking == "none" else MaskSpec(p_cond=0.7, n_mask=1, l_mask=1),
        span_choices=None if masking == "none" else (1, 2, 3),
        masked_frames_only=masking == "hidden-frames",
        cond_dropout=0.3,
        lr_tail=0.5,
    )
    models = [
        VelocityModel.initialize(dims, dims + channels, (8, 6), np.random.default_rng(14))
        for _ in range(2)
    ]
    got = train(models[0], _ragged_dataset(kind, dims, channels), config)
    want = _train_through_cfm_loss(models[1], _ragged_dataset(kind, dims, channels), config)
    assert got == want
    for a, b in zip(models[0].weights + models[0].biases, models[1].weights + models[1].biases):
        assert a.tobytes() == b.tobytes()


def _rows_per_step(monkeypatch, dataset, config):
    """Train, counting per step the rows fed to the model and the frames
    and hidden frames of the masks drawn."""
    steps = [[0, 0, 0]]
    forward_cached = VelocityModel.forward_cached
    apply_gradients = VelocityModel.apply_gradients

    def count_rows(self, t, cond, x):
        steps[-1][0] += x.shape[0]
        return forward_cached(self, t, cond, x)

    def count_mask(seq_len, spec, rng):
        mask, full = make_mask(seq_len, spec, rng)
        steps[-1][1] += mask.size
        steps[-1][2] += int(mask.sum())
        return mask, full

    def next_step(self, grads, rate):
        steps.append([0, 0, 0])
        apply_gradients(self, grads, rate)

    monkeypatch.setattr(VelocityModel, "forward_cached", count_rows)
    monkeypatch.setattr(VelocityModel, "apply_gradients", next_step)
    monkeypatch.setattr(training, "make_mask", count_mask)
    model = VelocityModel.initialize(3, 3 + 2, (8,), np.random.default_rng(14))
    train(model, dataset, config)
    assert steps.pop() == [0, 0, 0] and len(steps) == config.steps
    return steps


@pytest.mark.parametrize("masked_frames_only", [True, False])
def test_only_covered_rows_reach_the_model(monkeypatch, masked_frames_only):
    config = TrainConfig(
        batch_size=6, steps=4, seed=13,
        mask_spec=MaskSpec(p_cond=1.0, n_mask=1, l_mask=1), span_choices=(1, 2, 3),
        masked_frames_only=masked_frames_only,
    )
    steps = _rows_per_step(monkeypatch, _ragged_dataset("local"), config)
    for rows, frames, hidden in steps:
        # every mask is partial, so the hidden frames are strictly fewer
        assert hidden < frames
        assert rows == (hidden if masked_frames_only else frames)


def test_unmasked_training_feeds_every_frame(monkeypatch):
    # 100-frame items: each step's 600 rows fill three tables
    dataset = [(np.ones((100, 3)), np.ones(2))] * 4
    config = TrainConfig(batch_size=6, steps=4, seed=13)
    steps = _rows_per_step(monkeypatch, dataset, config)
    assert steps == [[600, 0, 0]] * config.steps  # no mask is drawn


@pytest.mark.parametrize(
    "externals",
    [
        [np.ones(2), np.ones(3)],  # global vectors of different widths
        [np.ones((4, 2)), np.ones((4, 3))],  # local features of different widths
        [np.ones(2), np.ones((4, 2))],  # a global vector and local features
        [np.ones(2), None],  # a condition and none
    ],
)
def test_mixed_condition_widths_raise_shape_mismatch(externals):
    seq = np.zeros((4, 2))
    dataset = [(seq, external) for external in externals]
    model = VelocityModel.initialize(2, 2 + 2, (4,), np.random.default_rng(0))
    # every item is checked before the first step, whatever the batches draw
    cfg = TrainConfig(batch_size=1, steps=1, seed=0)
    with pytest.raises(ShapeMismatch, match="different external conditions") as info:
        train(model, dataset, cfg)
    assert isinstance(info.value, FoagenError)


def test_train_validates_latents():
    model = VelocityModel.initialize(2, 0, (4,), np.random.default_rng(0))
    cfg = TrainConfig(batch_size=2, steps=1)
    with pytest.raises(ShapeMismatch):
        train(model, [(np.zeros((3, 5)), None)], cfg)  # wrong latent width
    with pytest.raises(ShapeMismatch):
        train(model, [(np.zeros(3), None)], cfg)  # not (frames, dims)
    bad = np.zeros((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="x1 contains non-finite values"):
        train(model, [(bad, None)], cfg)


def _nan_latent():
    bad = np.zeros((3, 2))
    bad[1, 0] = np.nan
    return bad


def _nan_local(rows):
    bad = np.zeros((rows, 1))
    bad[-1, 0] = np.nan
    return bad


@pytest.mark.parametrize(
    "item, error, message",
    [
        ((_nan_latent(), None), ValueError, "x1 contains non-finite values"),
        ((np.zeros((3, 5)), None), ShapeMismatch,
         r"x1 must be a non-empty \(frames, 2\) latent, got shape \(3, 5\)"),
        ((np.zeros(3), None), ShapeMismatch,
         r"x1 must be a non-empty \(frames, 2\) latent, got shape \(3,\)"),
        ((np.zeros((3, 2)), np.zeros((3, 1, 1))), ShapeMismatch,
         r"local features must be 2-D \(frames, channels\)"),
        ((np.zeros((3, 2)), _nan_local(3)), ValueError, "features contains non-finite values"),
        ((np.zeros((3, 2)), _nan_local(2)), ValueError, "features contains non-finite values"),
        ((np.zeros((3, 2)), np.zeros((4, 1))), InvalidValue,
         "cannot shrink 4 frames to 3"),
    ],
    ids=["nan-latent", "wrong-width", "not-2d", "3d-local-features",
         "nan-local-features", "nan-short-local-features", "long-local-features"],
)
def test_items_never_drawn_are_still_checked(item, error, message):
    good = [(np.zeros((3, 2)), None if item[1] is None else np.zeros((3, 1)))] * 8
    dataset = good + [item]
    cfg = TrainConfig(batch_size=2, steps=1, seed=0)
    # the one step's indices, drawn first from the seed, leave the bad item out
    drawn = np.random.default_rng(cfg.seed).integers(0, len(dataset), size=cfg.batch_size)
    assert len(dataset) - 1 not in drawn
    model = VelocityModel.initialize(2, 2 + (item[1] is not None), (4,), np.random.default_rng(0))
    with pytest.raises(error, match=message):
        train(model, dataset, cfg)


def test_train_refuses_a_non_finite_global_condition():
    dataset = [(np.zeros((1, 2)), np.zeros(1))] * 8 + [(np.zeros((1, 2)), np.array([np.nan]))]
    model = VelocityModel.initialize(2, 3, (4,), np.random.default_rng(0))
    with pytest.raises(ValueError, match="global condition contains non-finite values"):
        train(model, dataset, TrainConfig(batch_size=2, steps=1, seed=0))


def test_learning_rate_tail():
    base = TrainConfig(learning_rate=0.02, batch_size=4, steps=40, seed=2)
    assert [base.rate(step) for step in range(base.steps)] == [0.02] * base.steps
    tail = TrainConfig(learning_rate=0.02, batch_size=4, steps=40, seed=2, lr_tail=0.5)
    rates = [tail.rate(step) for step in range(tail.steps)]
    # linear from the rate at step 20 (half the steps remaining) towards 0
    assert rates[:21] == [0.02] * 21
    assert all(b < a for a, b in zip(rates[20:], rates[21:]))
    assert min(rates) > 0.0 and rates[-1] == pytest.approx(0.02 / 20)

    def run(config):
        model = VelocityModel.initialize(2, 2, (6,), np.random.default_rng(1))
        return train(model, _point_mass_dataset([1.0, -1.0]), config)

    # a tail moves only the losses after its first reduced update (step 21)
    plain, tailed = run(base), run(tail)
    assert plain[:22] == tailed[:22]
    assert plain[22] != tailed[22]
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="lr_tail"):
            TrainConfig(lr_tail=bad)
