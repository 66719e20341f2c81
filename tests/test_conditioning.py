import numpy as np
import pytest

from foagen.conditioning import synth_features, upsample_features
from foagen.errors import InvalidValue


def test_upsample_integer_ratio_repeats():
    f = np.arange(16, dtype=float).reshape(8, 2)
    up = upsample_features(f, 32)
    assert up.shape == (32, 2)
    np.testing.assert_array_equal(up, np.repeat(f, 4, axis=0))


def test_upsample_identity_at_equal_length():
    f = np.random.default_rng(0).standard_normal((5, 3))
    np.testing.assert_array_equal(upsample_features(f, 5), f)


def test_upsample_floor_index_pattern():
    f = np.array([[0.0], [1.0], [2.0]])
    up = upsample_features(f, 5)
    np.testing.assert_array_equal(up.ravel(), [0, 0, 1, 1, 2])


def test_upsample_rejects_shrinking():
    with pytest.raises(InvalidValue):
        upsample_features(np.zeros((4, 2)), 3)
    with pytest.raises(ValueError, match="non-empty 2-D"):
        upsample_features(np.zeros((0, 2)), 3)


def test_upsample_monotone_and_endpoint_preserving():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((7, 2))
    for T in (7, 8, 13, 50):
        up = upsample_features(f, T)
        np.testing.assert_array_equal(up[0], f[0])
        np.testing.assert_array_equal(up[-1], f[-1])


def test_synth_features_deterministic():
    a = synth_features(12, 6, 3, 1)
    b = synth_features(12, 6, 3, 1)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 3)
    with pytest.raises(ValueError, match="num_frames"):
        synth_features(12, 0, 3, 1)


def test_synth_features_encode_class_in_channel_means():
    # the noise is centered per channel, so the means are the class id exactly
    for class_id in (0, 1, 2, 5):
        f = synth_features(0, 10, 4, class_id)
        np.testing.assert_array_equal(f.mean(axis=0), float(class_id))
    one = synth_features(3, 1, 1, 2)
    assert one.shape == (1, 1)
    assert np.isfinite(one).all()


def test_synth_features_class_separation():
    f1 = synth_features(0, 8, 4, 1)
    f2 = synth_features(0, 8, 4, 2)
    gap = f2.mean(axis=0) - f1.mean(axis=0)
    assert (gap >= 1.0).all()
