from fractions import Fraction

import numpy as np
import pytest

from ndtcache.model import ChannelSet, NetworkConfig, as_rational, check_tol


class TestRational:
    def test_exact_round_trip(self):
        vals = [Fraction(p, q) for p in range(-6, 7) for q in range(1, 7)]
        for x in vals:
            for y in vals:
                assert (x + y) - y == x
                if y != 0:
                    assert (x / y) * y == x

    def test_lowest_terms_positive_denominator(self):
        x = Fraction(4, -6)
        assert (x.numerator, x.denominator) == (-2, 3)

    def test_as_rational_parses_fraction_and_decimal_strings(self):
        assert as_rational("4/5") == Fraction(4, 5)
        assert as_rational("0.8") == Fraction(4, 5)
        assert as_rational(" 8/5 ") == Fraction(8, 5)
        assert as_rational(1) == Fraction(1)

    def test_as_rational_rejects_binary_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.8)

    @pytest.mark.parametrize("text, problem", [
        ("1e999999999", "has an exponent beyond 4300"),
        ("1e-20000", "has an exponent beyond 4300"),
        ("1e" + "9" * 5000, "has an exponent beyond 4300"),
        ("1e-4300", "has more than 4300 digits"),
        ("1e4300", "has more than 4300 digits"),
    ])
    def test_as_rational_refuses_what_str_could_not_print(self, text, problem):
        # the default int-to-str limit is 4300 digits
        with pytest.raises(ValueError, match=f"^'{text}' {problem}$"):
            as_rational(text)

    def test_as_rational_keeps_exponents_within_the_limit(self):
        assert as_rational("1e-4299") == Fraction(1, 10**4299)
        assert as_rational("25e-2") == Fraction(1, 4)
        assert as_rational("1_0E1_0") == 10**11


class TestNetworkConfig:
    def test_valid(self):
        cfg = NetworkConfig(M=1, K=3, N=4, mu="4/5")
        assert cfg.mu == Fraction(4, 5)

    def test_library_must_cover_distinct_demands(self):
        with pytest.raises(ValueError):
            NetworkConfig(M=2, K=2, N=3, mu=0)

    @pytest.mark.parametrize("mu", ["-1/2", "6/5"])
    def test_mu_range(self, mu):
        with pytest.raises(ValueError):
            NetworkConfig(M=1, K=1, N=2, mu=mu)

    @pytest.mark.parametrize("field", ["M", "K", "N"])
    def test_positive_counts(self, field):
        kwargs = dict(M=1, K=1, N=2, mu=0)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    def test_integer_like_counts_are_counts(self):
        cfg = NetworkConfig(M=np.int8(1), K=np.int64(2), N=np.uint16(4), mu=0)
        assert cfg == NetworkConfig(M=1, K=2, N=4, mu=0)
        assert all(type(v) is int for v in (cfg.M, cfg.K, cfg.N))

    @pytest.mark.parametrize("field", ["M", "K", "N"])
    def test_non_integer_count_names_the_argument(self, field):
        kwargs = dict(M=1, K=2, N=4, mu=0)
        kwargs[field] = 2.0
        with pytest.raises(TypeError, match=f"^{field} must be an int, got 2.0$"):
            NetworkConfig(**kwargs)


class TestChannelSet:
    def test_shapes_and_immutability(self):
        rng = np.random.default_rng(0)
        ch = ChannelSet(
            T=4,
            f=rng.standard_normal((4, 2)) + 1j,
            g=rng.standard_normal((4, 3)) + 1j,
            H=rng.standard_normal((4, 3, 2)) + 1j,
        )
        assert (ch.f.shape, ch.g.shape, ch.H.shape) == ((4, 2), (4, 3), (4, 3, 2))
        with pytest.raises(ValueError):
            ch.g[0, 0] = 0.0

    def test_rejects_zero_and_nonfinite_coefficients(self):
        ones = np.ones((2, 1), dtype=complex)
        H = np.ones((2, 1, 1), dtype=complex)
        bad = ones.copy()
        bad[0, 0] = 0.0
        with pytest.raises(ValueError):
            ChannelSet(T=2, f=bad, g=ones, H=H)
        bad = ones.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelSet(T=2, f=ones, g=bad, H=H)

    def test_rejects_mismatched_shapes(self):
        ones = np.ones((2, 1), dtype=complex)
        with pytest.raises(ValueError):
            ChannelSet(T=2, f=ones, g=ones, H=np.ones((2, 2, 1), dtype=complex))


class TestCheckTol:
    @pytest.mark.parametrize("tol", [1e-300, 1e-9, 0.5, 0.999])
    def test_accepts_open_unit_interval(self, tol):
        check_tol(tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, float("nan"), float("inf")])
    def test_rejects_the_rest(self, tol):
        with pytest.raises(ValueError):
            check_tol(tol)
