"""The benchmark's oracles against hand-worked cases."""

import math

import numpy as np
import pytest

import oracles


def test_agrees_is_relative_to_scale():
    assert oracles.agrees([1.0, 2.0], [1.0, 2.0 + 1e-10], 1.0)
    assert not oracles.agrees([1.0, 2.0], [1.0, 2.0 + 1e-8], 1.0)
    assert oracles.agrees([1.0, 2.0], [1.0, 2.0 + 1e-8], 100.0)
    assert not oracles.agrees([1.0], [1.0, 2.0], 1.0)


def test_box_resample_hand_case():
    # [1, 2, 3] into two bins of width 1.5: (1 + 2*0.5)/1.5 and (2*0.5 + 3)/1.5.
    out = oracles.box_resample([[1.0, 2.0, 3.0]], 2)
    np.testing.assert_allclose(out, [[4.0 / 3.0, 8.0 / 3.0]], rtol=0, atol=1e-15)


def test_box_resample_integer_ratio_is_pair_means():
    out = oracles.box_resample([[1.0, 3.0, 5.0, 7.0], [0.0, 0.0, 2.0, 4.0]], 2)
    np.testing.assert_allclose(out, [[2.0, 6.0], [0.0, 3.0]], rtol=0, atol=1e-15)


def test_box_resample_rejects_upsampling():
    with pytest.raises(ValueError):
        oracles.box_resample([[1.0, 2.0]], 3)


def test_dft_magnitude_hand_cases():
    out = oracles.dft_magnitude([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, -1.0, 0.0]])
    expected = [[1, 1, 1, 1], [4, 0, 0, 0], [1, 1, 1, 1], [0, 2, 0, 2]]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_vlad_hand_case():
    centres = [[0.0, 0.0], [10.0, 10.0]]
    rows = [[1.0, 0.0], [9.0, 10.0], [0.0, 2.0]]
    # Rows 0 and 2 go to centre 0, row 1 to centre 1.
    np.testing.assert_array_equal(oracles.vlad(rows, centres), [1.0, 2.0, -1.0, 0.0])


def test_vlad_tie_goes_to_lowest_centre_and_empty_section_is_zero():
    np.testing.assert_array_equal(oracles.vlad([[1.0]], [[0.0], [2.0], [5.0]]), [1.0, 0.0, 0.0])


def test_distance_row_hand_case():
    dist, scale = oracles.distance_row([0.0, 0.0], [[3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_array_equal(dist, [25.0, 0.0])
    np.testing.assert_array_equal(scale, [25.0, 0.0])


def test_raplace_similarity_hand_cases():
    # A pure angle shift of the same spectrum correlates perfectly.
    a = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    b = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    # Every shift of [1, 1, 0] overlaps [1, 0, 0] in one entry: 1 / (1 * sqrt 2).
    c = [[1.0], [1.0], [0.0]]
    out = oracles.raplace_similarity_row(a, [b, a])
    np.testing.assert_allclose(out, [1.0, 1.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(oracles.raplace_similarity_row([[1.0], [0.0], [0.0]], [c]), [1 / math.sqrt(2)], atol=1e-15)


def test_recall_curve_hand_case():
    dist = [[0.1, 0.5, 0.3], [0.9, 0.2, 0.2], [0.0, 0.0, 0.0]]
    match = [[False, False, True], [False, False, True], [False, False, False]]
    # Query 0 ranks [0, 2, 1]; query 1 ranks [1, 2, 0] (tie to the lower
    # index); both find their match at rank 2. Query 2 has no match.
    pct, evaluated, skipped = oracles.recall_curve(dist, match, 3)
    np.testing.assert_array_equal(pct, [0.0, 100.0, 100.0])
    assert (evaluated, skipped) == (2, 1)
