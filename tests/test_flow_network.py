import numpy as np
import pytest

from foagen.container import encode, write_bytes
from foagen.errors import CorruptHeader, NoMaskedFrames, ShapeMismatch
from foagen.flow import (
    MaskedLatent,
    VelocityModel,
    build_condition,
    cfm_loss,
    load_model,
    save_model,
)
from foagen.flow.network import CHECKPOINT_MAGIC


def _finite_difference_grads(model, t, cond, x, target, h=1e-5):
    """Central differences through the same loss the analytic path uses."""

    def loss() -> float:
        out = model.forward(t, cond, x)
        diff = out - target
        return float(np.mean(np.sum(diff**2, axis=1) / diff.shape[1]))

    grads = []
    for w, b in zip(model.weights, model.biases):
        dw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            w[idx] = keep + h
            up = loss()
            w[idx] = keep - h
            down = loss()
            w[idx] = keep
            dw[idx] = (up - down) / (2 * h)
        db = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            keep = b[idx]
            b[idx] = keep + h
            up = loss()
            b[idx] = keep - h
            down = loss()
            b[idx] = keep
            db[idx] = (up - down) / (2 * h)
        grads.append((dw, db))
    return grads


def test_initialize_shapes_and_time_feature():
    rng = np.random.default_rng(0)
    model = VelocityModel.initialize(3, 5, (8, 4), rng)
    assert model.widths == [3 + 5 + 1, 8, 4, 3]
    out = model.forward(0.5, np.zeros((2, 5)), np.zeros((2, 3)))
    assert out.shape == (2, 3)
    # time enters as a raw input: different t, different output
    out2 = model.forward(0.9, np.zeros((2, 5)), np.zeros((2, 3)))
    assert not np.array_equal(out, out2)


def test_initialize_refuses_a_missing_or_empty_hidden_layer():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least one hidden layer"):
        VelocityModel.initialize(2, 1, (), rng)
    for hidden in ((0,), (8, 0), (4, -3)):
        with pytest.raises(ValueError, match=f"hidden widths must be at least 1, got {min(hidden)}"):
            VelocityModel.initialize(2, 1, hidden, rng)


def test_forward_validates_shapes():
    model = VelocityModel.initialize(2, 3, (4,), np.random.default_rng(1))
    with pytest.raises(ShapeMismatch):
        model.forward(0.5, np.zeros((2, 3)), np.zeros((2, 5)))
    with pytest.raises(ShapeMismatch):
        model.forward(0.5, np.zeros((3, 3)), np.zeros((2, 2)))
    no_cond = VelocityModel.initialize(2, 0, (4,), np.random.default_rng(2))
    out = no_cond.forward(0.1, None, np.zeros((3, 2)))
    assert out.shape == (3, 2)
    with pytest.raises(ShapeMismatch):
        no_cond.forward(0.1, np.zeros((3, 1)), np.zeros((3, 2)))


def test_forward_with_per_row_times_matches_per_draw_calls():
    rng = np.random.default_rng(11)
    model = VelocityModel.initialize(2, 3, (5, 4), rng)
    lengths = (1, 4, 2)
    times = rng.random(len(lengths))
    xs = [rng.standard_normal((n, 2)) for n in lengths]
    conds = [rng.standard_normal((n, 3)) for n in lengths]
    stacked = model.forward(
        np.repeat(times, lengths), np.concatenate(conds), np.concatenate(xs)
    )
    per_draw = np.concatenate(
        [model.forward(t, c, x) for t, c, x in zip(times, conds, xs)]
    )
    np.testing.assert_allclose(stacked, per_draw, rtol=1e-13, atol=1e-15)
    with pytest.raises(ShapeMismatch):
        model.forward(np.full(6, 0.5), np.concatenate(conds), np.concatenate(xs))
    with pytest.raises(ShapeMismatch):
        model.forward_cached(np.full((7, 1), 0.5), np.concatenate(conds), np.concatenate(xs))


def test_build_condition_per_row_global_block():
    view = np.zeros((3, 2))
    g = np.array([0.5, -0.5])
    np.testing.assert_array_equal(
        build_condition(view, global_cond=np.tile(g, (3, 1))),
        build_condition(view, global_cond=g),
    )
    with pytest.raises(ShapeMismatch):
        build_condition(view, global_cond=np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        build_condition(view, global_cond=np.ones(0))


def test_gradients_match_finite_differences():
    """Exact backprop against central differences over random small nets."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        latent = int(rng.integers(1, 4))
        cond = int(rng.integers(0, 4))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3))))
        model = VelocityModel.initialize(latent, cond, hidden, rng)
        frames = int(rng.integers(1, 4))
        x = rng.standard_normal((frames, latent))
        c = rng.standard_normal((frames, cond)) if cond else None
        target = rng.standard_normal((frames, latent))
        t = float(rng.random())

        out, cache = model.forward_cached(t, c, x)
        grad_out = 2.0 * (out - target) / (out.shape[0] * out.shape[1])
        analytic = model.backward(cache, grad_out)
        numeric = _finite_difference_grads(model, t, c, x, target)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            for a, n in ((aw, nw), (ab, nb)):
                scale = np.maximum(np.abs(n), 1e-8)
                worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    assert worst < 1e-4


def test_apply_gradients_descends():
    rng = np.random.default_rng(3)
    model = VelocityModel.initialize(2, 0, (8,), rng)
    x = rng.standard_normal((16, 2))
    target = rng.standard_normal((16, 2))

    def loss() -> float:
        diff = model.forward(0.3, None, x) - target
        return float(np.mean(np.sum(diff**2, axis=1) / 2))

    before = loss()
    for _ in range(50):
        out, cache = model.forward_cached(0.3, None, x)
        grad_out = 2.0 * (out - target) / (out.shape[0] * out.shape[1])
        model.apply_gradients(model.backward(cache, grad_out), 0.05)
    assert loss() < before * 0.5


def test_build_condition_layouts():
    latent = np.arange(6, dtype=float).reshape(3, 2)
    masked = MaskedLatent(latent, np.array([True, False, True]))
    cond = build_condition(masked.condition_view())
    assert cond.shape == (3, 2)
    np.testing.assert_array_equal(cond[1], latent[1])
    np.testing.assert_array_equal(cond[0], 0.0)

    g = np.array([0.5, -0.5])
    cond = build_condition(masked.condition_view(), global_cond=g)
    assert cond.shape == (3, 4)
    np.testing.assert_array_equal(cond[:, 2:], np.tile(g, (3, 1)))

    local = np.array([[1.0], [2.0], [3.0]])
    cond = build_condition(masked.condition_view(), local=local)
    assert cond.shape == (3, 3)
    np.testing.assert_array_equal(cond[:, 2], [1.0, 2.0, 3.0])


def test_build_condition_upsamples_short_local():
    local = np.array([[1.0], [2.0], [3.0]])
    cond = build_condition(np.zeros((6, 2)), local=local)
    np.testing.assert_array_equal(cond[:, 2], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    model = VelocityModel.initialize(3, 4, (6, 5), rng)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.widths == model.widths
    for a, b in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(loaded.biases, model.biases):
        np.testing.assert_array_equal(a, b)
    x = rng.standard_normal((2, 3))
    c = rng.standard_normal((2, 4))
    np.testing.assert_array_equal(loaded.forward(0.7, c, x), model.forward(0.7, c, x))


def test_checkpoint_corruption(tmp_path):
    model = VelocityModel.initialize(2, 1, (4,), np.random.default_rng(6))
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX0000" + blob[8:])
    with pytest.raises(CorruptHeader):
        load_model(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CorruptHeader):
        load_model(truncated)

    trailing = tmp_path / "long.bin"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CorruptHeader):
        load_model(trailing)


@pytest.mark.parametrize("n_widths", [0, 1, 2])
def test_load_model_refuses_a_checkpoint_without_a_hidden_layer(n_widths, tmp_path):
    widths = [3, 2][:n_widths]
    arrays = [np.zeros((3, 2)), np.zeros(2)] if n_widths == 2 else []
    path = tmp_path / "model.fgvm"
    write_bytes(path, *encode(CHECKPOINT_MAGIC, f"<I{n_widths}I", [n_widths, *widths], arrays))
    with pytest.raises(CorruptHeader, match="at least one hidden layer"):
        load_model(path)


def _layers(*shapes):
    """Zero weights of the given (fan_in, fan_out) shapes and their biases."""
    return [np.zeros(shape) for shape in shapes], [np.zeros(shape[1]) for shape in shapes]


@pytest.mark.parametrize(
    "latent_dim, cond_dim, weights, biases, message",
    [
        (0, 1, *_layers((2, 4), (4, 0)), "latent_dim must be >= 1"),
        (2, -1, *_layers((2, 4), (4, 2)), "cond_dim >= 0"),
        (2, 1, _layers((4, 4), (4, 2))[0], _layers((4, 4))[1], "parallel"),
        (2, 1, [], [], "non-empty"),
        (2, 1, *_layers((5, 4), (4, 2)), "expects fan-in 4, got 5"),
        (2, 1, *_layers((4, 4), (4, 3)), "last layer"),
        (2, 1, [np.zeros((4, 4, 1)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)],
         "layer 0 weight/bias"),
        (2, 1, [np.zeros((4, 4)), np.zeros((4, 2))], [np.zeros(5), np.zeros(2)],
         "layer 0 weight/bias"),
        (2, 1, *_layers((4, 4), (5, 2)), "layer 1 fan-in does not chain"),
    ],
    ids=["latent-dim", "cond-dim", "unparallel", "no-layers", "first-fan-in",
         "last-width", "weight-ndim", "bias-shape", "unchained"],
)
def test_velocity_model_refuses_inconsistent_layers(latent_dim, cond_dim, weights, biases, message):
    with pytest.raises(ValueError, match=message):
        VelocityModel(latent_dim, cond_dim, weights, biases)


def test_cfm_loss_zero_at_oracle():
    # a linear model built to output exactly x1 - x0 gives loss 0
    latent = 2
    x0 = np.zeros((3, latent))
    x1 = np.random.default_rng(8).standard_normal((3, latent))
    masked = MaskedLatent(x1, np.ones(3, dtype=bool))

    # input layout: [x_t | cond(=masked view, zeros) | t]; pick weights that
    # copy x_t through: with x0 = 0 and t fixed, x_t = t*x1, so u = x1 = x_t/t
    t = 0.5
    w_in = np.zeros((latent + latent + 1, 4))
    w_out = np.zeros((4, latent))
    model = VelocityModel(latent, latent, [w_in, w_out], [np.zeros(4), np.zeros(latent)])
    weights = np.full(3, 1.0 / (3 * latent))
    loss, grads = cfm_loss(model, x0, x1, t, build_condition(masked.condition_view()), weights)
    # zero model on mean(x1^2)-style target: loss equals mean over frames/dims of u^2
    assert loss == pytest.approx(float(np.mean(np.sum(x1**2, axis=1) / latent)))
    assert len(grads) == 2


def test_cfm_loss_masked_frames_only():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((4, 2))
    x1 = rng.standard_normal((4, 2))
    model = VelocityModel.initialize(2, 2, (4,), rng)
    mask = np.array([True, True, False, False])
    masked = MaskedLatent(x1, mask)
    cond = build_condition(masked.condition_view())
    # one draw's weights: 1 / (selected terms) on the frames the loss covers
    loss_masked, _ = cfm_loss(model, x0, x1, 0.3, cond, mask / (mask.sum() * 2))

    out = model.forward(0.3, build_condition(masked.condition_view()), 0.3 * x1 + 0.7 * x0)
    diff = out - (x1 - x0)
    per_frame = np.sum(diff**2, axis=1) / 2
    assert loss_masked == pytest.approx(float(per_frame[mask].mean()))

    loss_all, _ = cfm_loss(model, x0, x1, 0.3, cond, np.full(4, 1.0 / (4 * 2)))
    assert loss_all == pytest.approx(float(per_frame.mean()))


def test_cfm_loss_requires_masked_frames():
    x = np.zeros((3, 2))
    masked = MaskedLatent(x, np.zeros(3, dtype=bool))
    model = VelocityModel.initialize(2, 2, (4,), np.random.default_rng(10))
    with pytest.raises(NoMaskedFrames):
        cfm_loss(model, x, x, 0.5, build_condition(masked.condition_view()), masked.mask / 6.0)
