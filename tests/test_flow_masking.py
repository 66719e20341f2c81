import numpy as np
import pytest

from foagen.errors import InvalidValue
from foagen.flow import MaskSpec, MaskedLatent, make_mask, max_spans, random_mask_spec


def _runs(mask: np.ndarray) -> list[int]:
    """Lengths of maximal True runs."""
    edges = np.diff(np.r_[0, mask.astype(int), 0])
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)
    return list(stops - starts)


def test_mask_spec_validation():
    with pytest.raises(ValueError):
        MaskSpec(p_cond=1.5)
    with pytest.raises(ValueError):
        MaskSpec(p_cond=0.5, n_mask=0)
    with pytest.raises(ValueError):
        MaskSpec(p_cond=0.5, l_mask=0)
    assert MaskSpec(0.1, 3, 4).min_frames() == 14
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="seq_len must be >= 1"):
        make_mask(0, MaskSpec(0.1, 1, 1), rng)
    with pytest.raises(InvalidValue, match="no span count"):
        random_mask_spec(MaskSpec(0.1, 1, 4), 3, rng)  # one span of 4 needs 4 frames


def test_max_spans():
    assert max_spans(10, 1) == 5
    assert max_spans(10, 3) == 2
    assert max_spans(3, 4) == 0


def test_p_cond_zero_always_full():
    rng = np.random.default_rng(0)
    spec = MaskSpec(p_cond=0.0, n_mask=1, l_mask=1)
    for _ in range(50):
        mask, fully_masked = make_mask(12, spec, rng)
        assert fully_masked
        assert mask.all()


def test_forced_single_full_span():
    rng = np.random.default_rng(1)
    spec = MaskSpec(p_cond=1.0, n_mask=1, l_mask=9)
    mask, fully_masked = make_mask(9, spec, rng)
    assert not fully_masked  # partial branch, even though it covers everything
    assert mask.all()
    assert _runs(mask) == [9]


def test_partial_masks_have_exact_span_structure():
    rng = np.random.default_rng(2)
    spec = MaskSpec(p_cond=1.0, n_mask=3, l_mask=2)
    seen_gap_layouts = set()
    for _ in range(500):
        mask, fully_masked = make_mask(20, spec, rng)
        assert not fully_masked
        runs = _runs(mask)
        assert len(runs) == 3
        assert all(r >= 2 for r in runs)
        seen_gap_layouts.add(mask.tobytes())
    assert len(seen_gap_layouts) > 50  # placement actually varies


def test_partial_fraction_tracks_p_cond():
    rng = np.random.default_rng(3)
    spec = MaskSpec(p_cond=0.1, n_mask=2, l_mask=3)
    partial = sum(not make_mask(64, spec, rng)[1] for _ in range(10_000))
    assert abs(partial / 10_000 - 0.1) < 0.01


def test_infeasible_spec():
    # 2 spans of 5 plus a separating gap needs 11 frames
    spec = MaskSpec(p_cond=1.0, n_mask=2, l_mask=5)
    rng = np.random.default_rng(4)
    mask, _ = make_mask(11, spec, rng)
    assert _runs(mask) == [5, 5]
    with pytest.raises(InvalidValue):
        make_mask(10, spec, rng)


def test_mask_determinism():
    spec = MaskSpec(p_cond=0.7, n_mask=2, l_mask=2)
    a = [make_mask(30, spec, np.random.default_rng(99))[0] for _ in range(10)]
    b = [make_mask(30, spec, np.random.default_rng(99))[0] for _ in range(10)]
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma, mb)


def test_random_mask_spec_feasible_choices():
    base = MaskSpec(p_cond=0.1, n_mask=1, l_mask=4)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        spec = random_mask_spec(base, seq_len=14, rng=rng)
        seen.add(spec.n_mask)
        assert spec.min_frames() <= 14
        assert spec.l_mask == 4
        assert spec.p_cond == 0.1
    # 3 spans of 4 plus 2 gaps needs 14 frames, so all of {1,2,3} fit
    assert seen == {1, 2, 3}
    # at 13 frames the 3-span layout no longer fits
    seen = {random_mask_spec(base, 13, rng).n_mask for _ in range(300)}
    assert seen == {1, 2}


def test_masked_latent_condition_view():
    latent = np.arange(8, dtype=float).reshape(4, 2)
    mask = np.array([True, False, True, False])
    ml = MaskedLatent(latent, mask)
    view = ml.condition_view()
    np.testing.assert_array_equal(view[0], [0.0, 0.0])
    np.testing.assert_array_equal(view[1], latent[1])
    np.testing.assert_array_equal(view[2], [0.0, 0.0])
    np.testing.assert_array_equal(view[3], latent[3])
    # the original latent is untouched
    np.testing.assert_array_equal(ml.latent, np.arange(8, dtype=float).reshape(4, 2))


def test_masked_latent_validation():
    with pytest.raises(ValueError):
        MaskedLatent(np.zeros((4, 2)), np.zeros(3, dtype=bool))
    with pytest.raises(InvalidValue, match=r"^latent must be a non-empty 2-D \(frames, channels\) array$"):
        MaskedLatent(np.zeros((0, 2)), np.zeros(0, dtype=bool))
    with pytest.raises(InvalidValue, match="non-finite"):
        MaskedLatent(np.array([[0.0, np.nan], [1.0, 2.0]]), np.zeros(2, dtype=bool))
