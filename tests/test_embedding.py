import numpy as np
import pytest
from hypothesis import given, strategies as st

from gdm import (
    InvalidInputError,
    PointCorrespondence,
    embed_dataset,
    embed_linear,
    embed_nonlinear,
    normalize_views,
    sample_two_view_scene,
    singular_values,
)

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_nonlinear_examples():
    np.testing.assert_array_equal(
        embed_nonlinear((0, 0, 0, 0)), [0, 0, 0, 0, 0, 0, 0, 0, 1]
    )
    np.testing.assert_array_equal(
        embed_nonlinear((1, 2, 3, 4)), [3, 6, 3, 4, 8, 4, 1, 2, 1]
    )
    np.testing.assert_array_equal(
        embed_nonlinear((1, 0, 0, 1)), [0, 0, 0, 1, 0, 1, 1, 0, 1]
    )


def test_linear_examples():
    np.testing.assert_array_equal(embed_linear((1, 2, 3, 4)), [1, 2, 3, 4])
    np.testing.assert_array_equal(embed_linear((0, 0, 0, 0)), [0, 0, 0, 0])
    np.testing.assert_array_equal(embed_linear((-5, 7, 2, -1)), [-5, 7, 2, -1])


@given(finite_coord, finite_coord, finite_coord, finite_coord)
def test_nonlinear_coordinate_order(x, y, xp, yp):
    v = embed_nonlinear(PointCorrespondence(x, y, xp, yp))
    expected = [x * xp, xp * y, xp, x * yp, y * yp, yp, x, y, 1.0]
    np.testing.assert_array_equal(v, expected)


def test_nonfinite_input_rejected():
    with pytest.raises(InvalidInputError):
        embed_nonlinear((np.nan, 0, 0, 0))
    with pytest.raises(InvalidInputError):
        embed_linear((0, np.inf, 0, 0))
    with pytest.raises(InvalidInputError):
        embed_dataset([[0, 0, 0, np.nan]])


def test_single_correspondence_embedding_rejects_a_matrix():
    with pytest.raises(InvalidInputError, match="one vector"):
        embed_nonlinear(np.zeros((2, 4)))


def test_dataset_composition():
    pcs = [(1, 2, 3, 4), (0, 0, 0, 0)]
    data = embed_dataset(pcs, mode="nonlinear")
    assert data.shape == (9, 2)
    np.testing.assert_array_equal(data[:, 0], embed_nonlinear(pcs[0]))
    np.testing.assert_array_equal(data[:, 1], embed_nonlinear(pcs[1]))

    lin = embed_dataset([(1, 2, 3, 4), (5, 6, 7, 8), (9, 1, 2, 3)], mode="linear")
    assert lin.shape == (4, 3)
    np.testing.assert_array_equal(lin[:, 1], [5, 6, 7, 8])

    single = embed_dataset([(1, 2, 3, 4)], mode="nonlinear", normalize=False)
    np.testing.assert_array_equal(single[:, 0], [3, 6, 3, 4, 8, 4, 1, 2, 1])


def test_dataset_rejects_empty_and_bad_mode():
    with pytest.raises(InvalidInputError):
        embed_dataset([])
    with pytest.raises(InvalidInputError):
        embed_dataset([(1, 2, 3, 4)], mode="cubic")


def test_normalize_views_maps_into_unit_box():
    rng = np.random.default_rng(0)
    coords = rng.uniform(100, 900, size=(40, 4))
    out = normalize_views(coords)
    for view in (slice(0, 2), slice(2, 4)):
        block = out[:, view]
        assert np.abs(block.mean(axis=0)).max() < 1e-9
        assert np.abs(block).max() <= 1.0 + 1e-12
        # isotropic: one shared scale per view, so the original aspect
        # ratio of deviations is preserved
        orig = coords[:, view] - coords[:, view].mean(axis=0)
        ratio = orig / block
        assert np.nanstd(ratio) < 1e-6 * np.nanmean(np.abs(ratio))


@pytest.mark.parametrize("coords", [np.zeros((3, 3)), [[1, 2, 3, np.nan]], np.zeros((0, 4))],
                         ids=["three_columns", "nan", "empty"])
def test_normalize_views_rejects_bad_coordinates(coords):
    with pytest.raises(InvalidInputError):
        normalize_views(coords)


def test_normalize_flag_in_embed_dataset():
    rng = np.random.default_rng(1)
    coords = rng.uniform(-500, 500, size=(30, 4))
    data = embed_dataset(coords, mode="linear", normalize=True)
    assert np.abs(data).max() <= 1.0 + 1e-12


def test_single_motion_embedding_has_rank_at_most_8():
    for seed in range(3):
        scene = sample_two_view_scene(1, 40, seed=seed)
        data = embed_dataset(scene.correspondences, mode="nonlinear")
        s = singular_values(data)
        assert s[8] < 1e-8 * s[0]
