"""Series containers, evaluation recurrences, the U-product rule, and JSON
round trips."""

import json
import math
import os

from pathlib import Path

import numpy as np
import pytest

from eigenpath.analysis import eigpath_eval
from eigenpath.series import (
    EigenPairSeries,
    SeriesBasis,
    clenshaw_u,
    eigenpair_from_dict,
    eigenpair_to_dict,
    eval_cheb_u,
    eval_taylor,
    horner,
    load_eigenpair,
    save_eigenpair,
    taylor_scaled_coeffs,
    u_product_degrees,
    u_values,
    write_atomic,
)


def u_poly(k):
    """Monomial coefficients of U_k as exact integers (oracle)."""
    polys = [[1], [0, 2]]
    while len(polys) <= k:
        prev, prev2 = polys[-1], polys[-2]
        nxt = [0] + [2 * c for c in prev]
        for i, c in enumerate(prev2):
            nxt[i] -= c
        polys.append(nxt)
    return polys[k]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


class TestBasis:
    def test_affine_map_endpoints(self):
        basis = SeriesBasis.chebyshev(0.25, 1.0)
        assert basis.affine(0.25) == pytest.approx(-1.0, abs=1e-15)
        assert basis.affine(1.0) == pytest.approx(1.0, abs=1e-15)
        assert basis.affine(basis.from_affine(0.3)) == pytest.approx(0.3, abs=1e-15)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            SeriesBasis.chebyshev(1.0, 1.0)
        with pytest.raises(ValueError):
            SeriesBasis.chebyshev(2.0, 1.0)

    def test_taylor_needs_finite_mu0(self):
        with pytest.raises(ValueError):
            SeriesBasis.taylor(float("nan"))


class TestEvalTaylor:
    def test_degree_one(self):
        assert eval_taylor(SeriesBasis.taylor(0.0), np.array([1.0, 2.0]), 0.5) == pytest.approx(2.0)

    def test_constant(self):
        basis, coeffs = SeriesBasis.taylor(1.3), np.array([4.0 + 1.0j])
        for mu in (-2.0, 0.0, 7.5):
            assert eval_taylor(basis, coeffs, mu) == pytest.approx(4.0 + 1.0j)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        mu = 0.37
        direct = sum(
            coeffs[k] * (mu - 0.1) ** k / math.factorial(k) for k in range(7)
        )
        assert abs(eval_taylor(SeriesBasis.taylor(0.1), coeffs, mu) - direct) <= 1e-14 * abs(direct)

    def test_vector_series(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(5, 4))
        mu = 0.21
        direct = sum(coeffs[k] * mu**k / math.factorial(k) for k in range(5))
        np.testing.assert_allclose(eval_taylor(SeriesBasis.taylor(0.0), coeffs, mu), direct,
                                   rtol=1e-13, atol=1e-15)

    def test_rejects_wrong_basis_and_nonfinite(self):
        with pytest.raises(ValueError):
            eval_taylor(SeriesBasis.chebyshev(0.0, 1.0), np.array([1.0]), 0.5)
        with pytest.raises(ValueError):
            eval_taylor(SeriesBasis.taylor(0.0), np.array([1.0]), float("inf"))


class TestEvalChebU:
    def test_u1(self):
        assert eval_cheb_u(SeriesBasis.chebyshev(-1.0, 1.0), np.array([0.0, 1.0]), 0.5) == pytest.approx(1.0)

    def test_constant(self):
        basis, coeffs = SeriesBasis.chebyshev(0.0, 2.0), np.array([3.5])
        for mu in (0.0, 1.0, 5.0):
            assert eval_cheb_u(basis, coeffs, mu) == pytest.approx(3.5)

    def test_u2(self):
        # U_2(s) = 2 s U_1 - U_0 = 4 s^2 - 1
        coeffs = np.array([0.0, 0.0, 1.0])
        assert eval_cheb_u(SeriesBasis.chebyshev(-1.0, 1.0), coeffs, 0.3) == pytest.approx(4 * 0.09 - 1.0)

    @pytest.mark.parametrize("p", [5, 17, 40])
    def test_clenshaw_matches_naive_sum(self, p):
        rng = np.random.default_rng(p)
        coeffs = rng.normal(size=p + 1) + 1j * rng.normal(size=p + 1)
        basis = SeriesBasis.chebyshev(-1.0, 1.0)
        for sval in (-1.25, -0.7, 0.0, 0.33, 1.0, 1.25):
            table = u_values(sval, p)
            naive = np.sum(coeffs * table)
            got = eval_cheb_u(basis, coeffs, sval)
            assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


class TestBatchedEvaluation:
    @pytest.mark.parametrize("shape", [(9,), (9, 6), (9, 3, 3)])
    def test_rows_bit_identical_to_pointwise(self, shape):
        rng = np.random.default_rng(17)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mus = np.concatenate((rng.normal(0.5, 0.3, size=40), [0.0, 0.2, 1.0, 2.5]))
        taylor = SeriesBasis.taylor(0.2)
        cheb = SeriesBasis.chebyshev(0.0, 1.0)
        t_rows = taylor.evaluate(coeffs, mus)
        c_rows = cheb.evaluate(coeffs, mus)
        assert t_rows.shape == c_rows.shape == mus.shape + shape[1:]
        # the evaluator is the recurrence on the basis's variable, bit for bit
        assert t_rows.tobytes() == horner(taylor_scaled_coeffs(coeffs), mus - 0.2).tobytes()
        assert c_rows.tobytes() == clenshaw_u(coeffs, cheb.affine(mus)).tobytes()
        for mu, t_row, c_row in zip(mus, t_rows, c_rows):
            t_point = np.asarray(eval_taylor(taylor, coeffs, mu))
            c_point = np.asarray(eval_cheb_u(cheb, coeffs, mu))
            assert t_row.tobytes() == t_point.tobytes()
            assert c_row.tobytes() == c_point.tobytes()


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_non_finite_point_rejected(point):
    taylor = SeriesBasis.taylor(0.2)
    basis = SeriesBasis.chebyshev(0.0, 1.0)
    pair = EigenPairSeries(basis, [1.0, 0.5], np.ones((2, 3)))
    # eigpath_eval evaluates on an array of points, the others on one point
    for evaluate, series in ((eval_taylor, (taylor, np.array([1.0, 2.0]))),
                             (eval_cheb_u, (basis, pair.vec)), (eigpath_eval, (pair,))):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            evaluate(*series, point)


class TestLinearity:
    @pytest.mark.parametrize("kind", ["taylor", "cheb"])
    def test_eval_linear_in_coefficients(self, kind):
        rng = np.random.default_rng(5)
        basis = SeriesBasis.taylor(0.2) if kind == "taylor" else SeriesBasis.chebyshev(0.0, 1.0)
        evaluate = eval_taylor if kind == "taylor" else eval_cheb_u
        x = rng.normal(size=9) + 1j * rng.normal(size=9)
        y = rng.normal(size=9) + 1j * rng.normal(size=9)
        alpha, beta = 1.7 - 0.3j, -0.8 + 2.1j
        lhs = evaluate(basis, alpha * x + beta * y, 0.43)
        rhs = alpha * evaluate(basis, x, 0.43) + beta * evaluate(basis, y, 0.43)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


class TestUProductRule:
    def test_examples(self):
        assert u_product_degrees(1, 1) == [2, 0]
        assert u_product_degrees(0, 5) == [5]
        assert u_product_degrees(2, 3) == [5, 3, 1]

    def test_u2_u3_by_polynomial_multiplication(self):
        product = poly_mul(u_poly(2), u_poly(3))
        expected = [0] * len(product)
        for k in u_product_degrees(2, 3):
            for i, c in enumerate(u_poly(k)):
                expected[i] += c
        assert product == expected

    def test_exact_for_all_degrees_up_to_12(self):
        # Coefficient-wise exact with integer arithmetic.
        for i in range(13):
            for j in range(13):
                product = poly_mul(u_poly(i), u_poly(j))
                expected = [0] * len(product)
                for k in u_product_degrees(i, j):
                    for m, c in enumerate(u_poly(k)):
                        expected[m] += c
                assert product == expected, (i, j)
        assert len(u_product_degrees(7, 4)) == 5

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            u_product_degrees(-1, 2)


class TestSerialization:
    def test_eigenpair_roundtrip(self):
        rng = np.random.default_rng(10)
        basis = SeriesBasis.chebyshev(0.1, 0.5)
        pair = EigenPairSeries(
            basis,
            rng.normal(size=3) + 1j * rng.normal(size=3),
            rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)),
            {"newton_iterations": 4, "final_residual": 1e-13},
        )
        doc = json.loads(json.dumps(eigenpair_to_dict(pair)))
        back = eigenpair_from_dict(doc)
        np.testing.assert_array_equal(back.lam, pair.lam)
        np.testing.assert_array_equal(back.vec, pair.vec)
        assert back.diagnostics["newton_iterations"] == 4

    def test_save_load_bit_exact_and_atomic(self, tmp_path):
        rng = np.random.default_rng(11)
        basis = SeriesBasis.taylor(0.2)
        lam = rng.normal(size=4) * 1e3 + 1j * rng.normal(size=4)
        lam[1] = complex(-0.0, 5e-324)       # signed zero and the smallest subnormal
        vec = rng.normal(size=(4, 6)) * 1e-200 + 1j * rng.normal(size=(4, 6)) * 1e200
        pair = EigenPairSeries(
            basis,
            lam,
            vec,
            {"method": "taylor", "order_residuals": [1e-16, 2e-15, 3e-15], "gap": None},
        )
        path = tmp_path / "eigenpair_01.json"
        save_eigenpair(pair, path)
        back = load_eigenpair(path)
        assert back.lam.tobytes() == pair.lam.tobytes()
        assert back.vec.tobytes() == pair.vec.tobytes()
        assert back.diagnostics == pair.diagnostics
        assert [p.name for p in tmp_path.iterdir()] == ["eigenpair_01.json"]

    @pytest.mark.parametrize("expansion", ["taylor_e1_p6", "cheb_e1_p10"])
    def test_written_file_holds_the_dict_schema(self, tmp_path, request, expansion):
        pair = request.getfixturevalue(expansion)[3]
        path = tmp_path / "eigenpair_04.json"
        save_eigenpair(pair, path)
        data = path.read_bytes()
        assert data.endswith(b"}\n") and b", " not in data
        assert json.loads(data) == json.loads(json.dumps(eigenpair_to_dict(pair)))

    def test_stdlib_encoded_file_loads_bit_exact(self, tmp_path):
        # files written by json.dumps, with its spaced separators and
        # two-digit exponents, still load to the same bits
        basis = SeriesBasis.taylor(0.2)
        lam = np.array([complex(-0.0, 5e-324), complex(1e-7, -1e300), complex(1e300, -1e-300)])
        vec = np.array([[complex(2.5e-8, -0.0), complex(-0.0, -0.0)],
                        [complex(1e300, 1e-7), complex(-5e-324, 0.1)],
                        [complex(3e-5, -1e-300), complex(-1e-300, 1e16)]])
        pair = EigenPairSeries(
            basis,
            lam,
            vec,
            {"method": "taylor", "order_residuals": [1e-07, 2e-16], "gap": 1e300},
        )
        text = json.dumps(eigenpair_to_dict(pair)) + "\n"
        for token in ("1e-07", "-0.0", "5e-324", "1e+300", "-1e-300", "1e+16"):
            assert token in text
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_bytes(text.encode("utf-8"))
        save_eigenpair(pair, new)
        assert "1e-7," in new.read_text() and "1e-07" not in new.read_text()
        for path in (old, new):
            back = load_eigenpair(path)
            assert back.basis == basis
            assert back.lam.tobytes() == pair.lam.tobytes()
            assert back.vec.tobytes() == pair.vec.tobytes()
            assert back.diagnostics == pair.diagnostics

    def test_leaves_of_non_contiguous_coefficients(self):
        rng = np.random.default_rng(12)
        coeffs = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        for view in (coeffs[:, ::2], coeffs.T, coeffs[::-1]):
            assert not view.flags.c_contiguous
            pair = EigenPairSeries(SeriesBasis.taylor(0.0), view[:, 0], view)
            assert eigenpair_to_dict(pair)["v"] == np.stack((view.real, view.imag), -1).tolist()

    def test_non_finite_coefficient_is_not_written(self, tmp_path):
        basis = SeriesBasis.taylor(0.0)
        vec = np.ones((4, 3), dtype=complex)
        vec[2, 1] = complex(1.0, np.inf)
        vec[3, 0] = np.nan
        pair = EigenPairSeries(basis, np.ones(4), vec)
        with pytest.raises(ValueError, match=r"order 2\)"):
            save_eigenpair(pair, tmp_path / "eigenpair_01.json")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match=r"order 2\)"):
            eigenpair_to_dict(pair)

    def test_non_finite_diagnostics_become_null(self, tmp_path):
        basis = SeriesBasis.taylor(0.0)
        pair = EigenPairSeries(
            basis,
            np.ones(2),
            np.ones((2, 2)),
            {
                "method": "chebyshev",
                "newton_iterations": 3,
                "final_residual": np.float64(np.inf),
                "residual_history": [1e-3, float("nan"), -math.inf],
                "condition_estimate": np.array([2.0, np.nan]),
                "shift": complex(np.nan, 1.0),
                "gap": None,
            },
        )
        expected = {
            "method": "chebyshev",
            "newton_iterations": 3,
            "final_residual": None,
            "residual_history": [1e-3, None, None],
            "condition_estimate": [2.0, None],
            "shift": [None, 1.0],
            "gap": None,
        }
        assert eigenpair_to_dict(pair)["diagnostics"] == expected
        path = tmp_path / "eigenpair_01.json"
        save_eigenpair(pair, path)
        assert load_eigenpair(path).diagnostics == expected


class TestWriteAtomic:
    def test_replaces_target_with_utf8_bytes_verbatim(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old")
        text = "mu,re\r\n0.5,-0\r\n\u03bc\n"
        write_atomic(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_rename_keeps_target_and_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_atomic(path, "new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_removes_partial_temp_file(self, tmp_path, monkeypatch):
        write_bytes = Path.write_bytes

        def partial(self, data):
            write_bytes(self, data[:1])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", partial)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(tmp_path / "out.csv", "new")
        assert list(tmp_path.iterdir()) == []


class TestContainers:
    def test_coefficients_read_only(self):
        pair = EigenPairSeries(SeriesBasis.taylor(0.0), [1.0, 2.0], np.ones((2, 3)))
        with pytest.raises(ValueError):
            pair.lam[0] = 5.0
        with pytest.raises(ValueError):
            pair.vec[0, 0] = 5.0

    def test_mismatched_eigenpair_rejected(self):
        with pytest.raises(ValueError):
            EigenPairSeries(SeriesBasis.taylor(0.0), [1.0, 2.0], np.ones((3, 2)))

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            EigenPairSeries(SeriesBasis.taylor(0.0), [], np.ones((0, 2)))
