import numpy as np
import pytest

from foagen.conditioning import upsample_features
from foagen.errors import ShapeMismatch
from foagen.flow import (
    MIXTURE_CLASS_IDS,
    CfgSpec,
    MaskedLatent,
    VelocityModel,
    cfg_velocity,
    euler_sample,
    mixture_condition,
    mixture_model,
)


class _ConstantField:
    """Stand-in model whose velocity is a fixed vector everywhere."""

    def __init__(self, v, cond_dim=0):
        self.v = np.asarray(v, dtype=float)
        self.latent_dim = self.v.shape[0]
        self.cond_dim = cond_dim

    def forward(self, t, cond, x):
        return np.broadcast_to(self.v, x.shape).copy()


class _StraightLineField:
    """Velocity x1 - x0 recovered from the current state and time."""

    def __init__(self, x1):
        self.x1 = np.asarray(x1, dtype=float)
        self.latent_dim = self.x1.shape[1]
        self.cond_dim = 0

    def forward(self, t, cond, x):
        # on the straight path x_t = t*x1 + (1-t)*x0, so x1 - x0 = (x1 - x_t)/(1-t)
        if t >= 1.0:
            raise AssertionError("sampler should evaluate at t < 1")
        return (self.x1 - x) / (1.0 - t)


def test_cfg_scale_one_returns_conditional_exactly():
    rng = np.random.default_rng(0)
    v_cond = rng.standard_normal((4, 3))
    v_uncond = rng.standard_normal((4, 3))
    out = cfg_velocity(v_cond, v_uncond, CfgSpec(1.0))
    assert np.array_equal(out, v_cond)
    assert out is not v_cond  # caller owns the result


def test_cfg_scale_zero_returns_unconditional_exactly():
    rng = np.random.default_rng(1)
    v_cond = rng.standard_normal((2, 2))
    v_uncond = rng.standard_normal((2, 2))
    assert np.array_equal(cfg_velocity(v_cond, v_uncond, CfgSpec(0.0)), v_uncond)


def test_cfg_blend_formula():
    v_cond = np.array([[2.0]])
    v_uncond = np.array([[1.0]])
    # 1 + 5 * (2 - 1) = 6
    assert cfg_velocity(v_cond, v_uncond, CfgSpec(5.0)) == np.array([[6.0]])


def test_cfg_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        cfg_velocity(np.zeros((2, 2)), np.zeros((3, 2)), CfgSpec(2.0))


def test_cfg_spec_rejects_non_finite():
    with pytest.raises(ValueError):
        CfgSpec(float("nan"))


def _start(frames, dims, seed):
    """The noise that ``euler_sample`` starts from with ``default_rng(seed)``."""
    return np.random.default_rng(seed).standard_normal((frames, dims))


def test_euler_constant_field_is_step_count_invariant():
    # sum of steps * (1/steps) * v telescopes to exactly one unit of v
    v = np.array([0.75, -1.5])
    start = _start(3, 2, seed=1)
    for steps in (1, 2, 3, 7, 64):
        out = euler_sample(_ConstantField(v), steps, frames=3, rng=np.random.default_rng(1))
        expect = start + v
        assert np.max(np.abs(out - expect)) <= 1e-12


def test_euler_single_step_moves_by_initial_velocity():
    x1 = np.array([[4.0, -1.0]])
    out = euler_sample(_StraightLineField(x1), 1, frames=1, rng=np.random.default_rng(2))
    # one step of size 1 along x1 - x0 lands exactly on x1
    np.testing.assert_allclose(out, x1, rtol=0, atol=1e-12)


def test_euler_zero_model_returns_start():
    model = _ConstantField(np.zeros(2))
    out = euler_sample(model, 16, frames=1, rng=np.random.default_rng(3))
    assert np.array_equal(out, _start(1, 2, seed=3))


def test_euler_noise_start_is_seeded():
    model = _ConstantField(np.zeros(3))
    a = euler_sample(model, 4, frames=5, rng=np.random.default_rng(7))
    b = euler_sample(model, 4, frames=5, rng=np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert a.shape == (5, 3)


def test_euler_validation_errors():
    model = _ConstantField(np.zeros(2))
    with pytest.raises(ValueError):
        euler_sample(model, 0, frames=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="^frames is required without a condition$"):
        euler_sample(model, 4, rng=np.random.default_rng(0))  # no frames, no condition
    with pytest.raises(TypeError, match="rng"):
        euler_sample(model, 4, frames=3)  # noise start needs an rng
    for frames in (0, -1):
        # Refused before the noise is drawn, not by numpy's draw.
        with pytest.raises(ValueError, match=f"^frames must be at least 1, got {frames}$"):
            euler_sample(model, 4, frames=frames, rng=np.random.default_rng(0))


@pytest.mark.parametrize("class_id", [0, 3, -1])
def test_mixture_condition_refuses_a_class_the_fixture_lacks(class_id):
    with pytest.raises(ValueError, match=rf"^mixture class must be one of \(1, 2\), got {class_id}$"):
        mixture_condition(class_id)
    for known in MIXTURE_CLASS_IDS:
        assert mixture_condition(known).shape == (4,)


class _NoSteps(_ConstantField):
    """Stand-in model that fails if the sampler takes any step."""

    def forward(self, t, cond, x):
        raise AssertionError("the sampler took a step")


@pytest.mark.parametrize("rows", [6, 3], ids=["full-rate", "upsampled"])
def test_euler_refuses_non_finite_conditions_before_a_step(rows):
    model = _NoSteps(np.zeros(2))
    local = np.zeros((rows, 1))
    local[-1, 0] = np.nan
    with pytest.raises(ValueError, match="local contains non-finite values"):
        euler_sample(model, 4, local=local, frames=6, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="global_cond contains non-finite values"):
        euler_sample(model, 4, global_cond=[0.0, np.inf], frames=6, rng=np.random.default_rng(0))


def test_euler_frames_from_masked_condition():
    model = VelocityModel.initialize(2, 2, (4,), np.random.default_rng(3))
    cond = MaskedLatent(np.zeros((6, 2)), np.ones(6, dtype=bool))
    out = euler_sample(model, 3, masked_cond=cond, rng=np.random.default_rng(1))
    assert out.shape == (6, 2)


def test_euler_condition_frame_mismatch():
    model = VelocityModel.initialize(2, 2, (4,), np.random.default_rng(4))
    cond = MaskedLatent(np.zeros((6, 2)), np.ones(6, dtype=bool))
    with pytest.raises(ShapeMismatch):
        euler_sample(model, 3, masked_cond=cond, frames=4, rng=np.random.default_rng(0))


def test_guided_sampling_matches_manual_blend():
    """CFG inside the sampler equals blending the two fields by hand."""
    model = VelocityModel.initialize(2, 4, (5,), np.random.default_rng(6))
    g = np.array([1.0, -1.0])
    start = _start(3, 2, seed=8)
    scale = 2.5

    got = euler_sample(
        model, 2, CfgSpec(scale), global_cond=g, frames=3, rng=np.random.default_rng(8)
    )

    from foagen.flow import build_condition

    cond = build_condition(np.zeros((3, 2)), None, g)
    x = start.copy()
    for k in range(2):
        t = k / 2
        uncond_v = model.forward(t, None, x)
        cond_v = model.forward(t, cond, x)
        v = uncond_v + scale * (cond_v - uncond_v)
        x = x + 0.5 * v
    np.testing.assert_allclose(got, x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 5.0])
def test_unconditioned_sampling_on_a_conditioned_model(scale):
    """No condition at all feeds every condition channel zero, guided or not."""
    model = VelocityModel.initialize(2, 6, (5,), np.random.default_rng(11))
    start = _start(5, 2, seed=12)
    got = euler_sample(model, 3, CfgSpec(scale), frames=5, rng=np.random.default_rng(12))

    zeros = np.zeros((5, model.cond_dim))
    x = start.copy()
    for k in range(3):
        x = x + (1 / 3) * model.forward(k / 3, zeros, x)
    np.testing.assert_allclose(got, x, rtol=0, atol=1e-12)


class _CountingModel:
    """Wraps a model and counts its forward calls."""

    def __init__(self, model):
        self.model = model
        self.latent_dim = model.latent_dim
        self.cond_dim = model.cond_dim
        self.calls = 0

    def forward(self, t, cond, x):
        self.calls += 1
        return self.model.forward(t, cond, x)


def test_guidance_without_a_condition_makes_one_forward_per_step():
    """With no condition a guided step would blend two identical fields."""
    model = _CountingModel(mixture_model())
    start = _start(4, 2, seed=13)
    got = euler_sample(model, 8, CfgSpec(5.0), frames=4, rng=np.random.default_rng(13))
    assert model.calls == 8

    # Two forwards per step, blended as cfg_velocity blends them.
    x = start.copy()
    for k in range(8):
        v_cond = model.model.forward(k / 8, None, x)
        v_uncond = model.model.forward(k / 8, None, x)
        x = x + (1 / 8) * (v_uncond + 5.0 * (v_cond - v_uncond))
    assert np.array_equal(got, x)


def test_euler_sample_appends_local_features_after_the_view():
    class LocalEcho:
        """Stand-in model whose velocity is its last two condition channels."""

        latent_dim, cond_dim = 2, 4

        def forward(self, t, cond, x):
            return cond[:, 2:].copy()

    local = np.random.default_rng(2).standard_normal((3, 2))  # upsampled to 6 frames
    start = _start(6, 2, seed=7)
    got = euler_sample(LocalEcho(), 4, local=local, frames=6, rng=np.random.default_rng(7))
    # Four steps of 1/4 add the upsampled features once.
    np.testing.assert_allclose(got, start + upsample_features(local, 6), rtol=0, atol=1e-12)
