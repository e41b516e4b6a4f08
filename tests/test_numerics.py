import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanformer.numerics import matmul, relu, rng_uniform_array, softmax_rows

import reference

# First ten SplitMix64 outputs, generated by the independent port in
# reference.py (seed 0 agrees with the published test vectors).
GOLDEN_STREAMS = {
    0: [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B, 0x53CB9F0C747EA2EA,
        0x2C829ABE1F4532E1, 0xC584133AC916AB3C, 0x3EE5789041C98AC3,
        0xF3B8488C368CB0A6,
    ],
    1: [
        0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E,
        0x71C18690EE42C90B, 0x71BB54D8D101B5B9, 0xC34D0BFF90150280,
        0xE099EC6CD7363CA5, 0x85E7BB0F12278575, 0x491718DE357E3DA8,
        0xCB435C8E74616796,
    ],
    42: [
        0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52,
        0x581CE1FF0E4AE394, 0x09BC585A244823F2, 0xDE4431FA3C80DB06,
        0x37E9671C45376D5D, 0xCCF635EE9E9E2FA4, 0x5705B8770B3D7DD5,
        0x9E54D738297F77AE,
    ],
}


def random_matrix(rows, cols, seed, lo=-1.0, hi=1.0):
    return rng_uniform_array(seed, (rows, cols), lo, hi)


class TestMatmul:
    def test_identity_left(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_forced_arithmetic(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        out = matmul(np.zeros((3, 4)), random_matrix(4, 2, seed=9))
        assert out.shape == (3, 2)
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_identity_both_sides_bit_exact(self):
        a = random_matrix(5, 5, seed=3)
        assert np.array_equal(matmul(np.eye(5), a), a)
        assert np.array_equal(matmul(a, np.eye(5)), a)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (5, 1, 6), (1, 7, 1)])
    def test_matches_loop_reference(self, shape):
        n, k, m = shape
        a = random_matrix(n, k, seed=n * 100 + k)
        b = random_matrix(k, m, seed=k * 100 + m)
        expect = np.array(reference.matmul(a.tolist(), b.tolist()))
        got = matmul(a, b)
        assert np.allclose(got, expect, rtol=1e-13, atol=1e-15)

    def test_stacked_left_operand_is_each_slices_product(self):
        a = rng_uniform_array(1, (3, 4, 5), -1.0, 1.0)
        b = random_matrix(5, 2, seed=2)
        got = matmul(a, b)
        assert got.tobytes() == np.array([matmul(s, b) for s in a]).tobytes()

    def test_same_rank_stacks_pair_slice_by_slice(self):
        a = rng_uniform_array(3, (2, 3, 4, 5), -1.0, 1.0)
        b = rng_uniform_array(4, (2, 3, 5, 6), -1.0, 1.0)
        # the attention scores' operand: a transposed view of a column block
        bt = rng_uniform_array(5, (2, 3, 6, 8), -1.0, 1.0)[..., 1:6].swapaxes(-1, -2)
        for right in (b, bt):
            want = [[matmul(x, y) for x, y in zip(xs, ys)] for xs, ys in zip(a, right)]
            assert matmul(a, right).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("left, right", [
        ((3, 4, 5), (4, 2)),         # inner dimensions differ
        ((3, 4, 5), (2, 5, 6)),      # stacks of different lengths
        ((4, 5), (3, 5, 6)),         # a stacked right operand needs a stacked left one
        ((5,), (5, 2)),              # 1-D left
        ((2, 5), (5,)),              # 1-D right
    ])
    def test_incompatible_shapes_name_both(self, left, right):
        with pytest.raises(ValueError, match=re.escape(f"{left} x {right}")):
            matmul(np.zeros(left), np.zeros(right))


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_analytic_row(self):
        out = softmax_rows(np.array([[0.0, math.log(2.0)]]))
        assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_shift_invariance(self):
        m = random_matrix(4, 6, seed=17, lo=-3, hi=3)
        for c in (1.0, -7.5, 123.0):
            assert np.max(np.abs(softmax_rows(m + c) - softmax_rows(m))) <= 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_row_properties(self, row, salt):
        m = np.array([row])
        out = softmax_rows(m)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0.0) and np.all(out <= 1.0)
        # argmax is only preserved when the max is unique by a float-visible gap
        top2 = np.sort(m[0])[-2:]
        if len(row) > 1 and top2[1] - top2[0] > 1e-9:
            assert int(np.argmax(out)) == int(np.argmax(m))

    def test_large_values_stay_finite(self):
        out = softmax_rows(np.array([[1000.0, 999.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_stack_is_each_slice_softmaxed(self):
        m = rng_uniform_array(6, (3, 4, 5), -3.0, 3.0)
        assert softmax_rows(m).tobytes() == np.array([softmax_rows(s) for s in m]).tobytes()

    def test_out_is_worked_in_with_the_fresh_results_bits(self):
        m = rng_uniform_array(7, (3, 4, 5), -3.0, 3.0)
        want, before = softmax_rows(m), m.copy()
        out = np.empty_like(m)
        assert softmax_rows(m, out=out) is out and out.tobytes() == want.tobytes()
        assert m.tobytes() == before.tobytes()
        assert softmax_rows(m, out=m) is m and m.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(5,), (3, 0), (2, 3, 0)])
    def test_no_rows_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            softmax_rows(np.zeros(shape))


class TestRelu:
    def test_mixed_signs(self):
        assert np.array_equal(relu(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])

    def test_zeros_fixed(self):
        assert np.array_equal(relu(np.zeros((2, 3))), np.zeros((2, 3)))

    def test_positive_unchanged(self):
        m = random_matrix(3, 3, seed=5, lo=0.1, hi=2.0)
        assert np.array_equal(relu(m), m)

    def test_in_place_returns_its_input_rectified(self):
        m = np.array([[-1.5, 0.0], [2.0, -0.0]])
        assert relu(m, out=m) is m
        assert np.array_equal(m, [[0.0, 0.0], [2.0, 0.0]])


class TestRng:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_STREAMS))
    def test_frozen_golden_stream(self, seed):
        assert reference.splitmix64(seed, 10) == GOLDEN_STREAMS[seed]
        got = rng_uniform_array(seed, (10,), 0.0, 1.0)
        assert got.tolist() == [(u >> 11) * 2.0**-53 for u in GOLDEN_STREAMS[seed]]

    def test_first_uniform_seed0(self):
        value = rng_uniform_array(0, (1,), 0.0, 1.0)[0]
        # (0xE220A8397B1DCDAF >> 11) * 2**-53, via the independent oracle
        assert value == 0.8833108082136426
        assert value == reference.uniforms(0, 1, 0.0, 1.0)[0]

    def test_range_containment_small_interval(self):
        eps = 1e-9
        v = rng_uniform_array(77, (100,), 5.0, 5.0 + eps)
        assert np.all((5.0 <= v) & (v < 5.0 + eps))

    def test_same_seed_same_value(self):
        a = rng_uniform_array(123456, (3, 4), -2.0, 3.0)
        assert np.array_equal(a, rng_uniform_array(123456, (3, 4), -2.0, 3.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            rng_uniform_array(0, (1,), 1.0, 1.0)
        with pytest.raises(ValueError):
            rng_uniform_array(0, (1,), 2.0, -1.0)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"^rng_uniform_array: empty shape {re.escape(str(shape))}$"):
            rng_uniform_array(0, shape, 0.0, 1.0)

    def test_vectorized_matches_scalar_stream(self):
        n = 257
        arr = rng_uniform_array(99, (n,), -0.05, 0.05)
        scalar = [-0.05 + 0.1 * ((u >> 11) * 2.0**-53) for u in reference.splitmix64(99, n)]
        assert np.array_equal(arr, np.array(scalar))
        # a 2-D draw is the same stream, row-major
        grid = rng_uniform_array(99, (1, n), -0.05, 0.05)
        assert np.array_equal(grid.ravel(), arr)

    def test_peak_is_two_arrays_of_the_draws(self):
        # the states are mixed in place and the output scaled in place: the
        # states beside one shifted copy, then beside the output, 2 x 8n bytes
        n = 100_000
        peak = reference.traced_peak(rng_uniform_array, 5, (n,), -0.05, 0.05)
        assert 2 * 8 * n <= peak <= 2 * 8 * n + 4096

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_stream_matches_oracle(self, seed):
        got = rng_uniform_array(seed, (257,), -0.05, 0.05)
        assert got.tolist() == reference.uniforms(seed, 257, -0.05, 0.05)
