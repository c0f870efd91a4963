"""Kloosterman/twisted/Salie sums, Weil bounds, class counts, Weyl decay."""

import cmath
import math

import numpy as np
import pytest

from gausslab import arith, expsums
from gausslab.errors import BadModulus, NotCoprime
from gausslab.gauss_sums import sigma_class


def brute_kloosterman(m, n, q):
    total = 0j
    for p in range(1, q + 1):
        if math.gcd(p, q) != 1:
            continue
        p_bar = pow(p, -1, q) if q > 1 else 0
        total += cmath.exp(2j * cmath.pi * ((m * p + n * p_bar) % q) / q)
    return total


class TestHugeArguments:
    # m, n and t are reduced mod q before any int64 arithmetic
    @pytest.mark.parametrize("big", [2**62, 10**19])
    def test_sums_match_reduced(self, big):
        for kind, q in (("kloosterman", 7), ("salie", 7), ("twisted", 8)):
            got = expsums.expsum_report(kind, big, 1, q).value
            assert got == pytest.approx(expsums.expsum_report(kind, big % q, 1, q).value, abs=1e-12)
            got = expsums.expsum_report(kind, 3, big + 1, q).value
            assert got == pytest.approx(expsums.expsum_report(kind, 3, (big + 1) % q, q).value, abs=1e-12)

    def test_kloosterman_2_62_value(self):
        assert expsums.kloosterman(2**62, 1, 7) == pytest.approx(brute_kloosterman(2**62, 1, 7), abs=1e-12)
        assert expsums.kloosterman(2**62, 1, 7).real == pytest.approx(-2.692, abs=1e-3)

    @pytest.mark.parametrize("big", [2**62, 10**19])
    def test_weyl_statistic_matches_reduced(self, big):
        t = big + 1 if math.gcd(big + 1, 11) == 1 else big + 2
        got = expsums.weyl_statistic(11, t, big, big + 3)
        assert got == pytest.approx(expsums.weyl_statistic(11, t % 11, big % 11, (big + 3) % 11), abs=1e-12)


class TestKloosterman:
    @pytest.mark.parametrize("q", [1, 2, 5, 12, 36, 101])
    def test_zero_frequencies_give_totient(self, q):
        assert expsums.kloosterman(0, 0, q) == pytest.approx(arith.analyze_modulus(q).phi)

    def test_hand_value_q5(self):
        # inverses mod 5: 1<->1, 2<->3, 4<->4
        expected = 2 + 2 * math.cos(4 * math.pi / 5)
        assert expsums.kloosterman(1, 1, 5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("q", [3, 7, 11, 101])
    def test_ramanujan_prime(self, q):
        assert expsums.kloosterman(1, 0, q) == pytest.approx(-1, abs=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            q = int(rng.integers(1, 60))
            m, n = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            assert expsums.kloosterman(m, n, q) == pytest.approx(
                brute_kloosterman(m, n, q), abs=1e-9)

    def test_reality(self):
        for q in range(1, 200):
            phi = arith.analyze_modulus(q).phi
            v = expsums.kloosterman(2, 3, q)
            assert abs(v.imag) < 1e-9 * max(phi, 1)


class TestTwisted:
    def test_modulus_requirement(self):
        with pytest.raises(BadModulus):
            expsums.twisted_kloosterman(1, 1, 6)

    def test_zero_sum_nonsquare(self):
        for q in (8, 12, 20, 24, 40, 200):
            assert abs(expsums.twisted_kloosterman(0, 0, q)) < 1e-9

    def test_hand_value_q4(self):
        # p in {1, 3}: eps_1 (4/1) + eps_3 (4/3) = 1 + i
        assert expsums.twisted_kloosterman(0, 0, 4) == pytest.approx(1 + 1j)

    def test_weil_bound_sweep(self):
        for q in range(4, 401, 4):
            tau = arith.analyze_modulus(q).tau
            v = expsums.twisted_kloosterman(1, 1, q)
            assert abs(v) <= math.sqrt(q) * tau + 1e-6


class TestSalie:
    def test_modulus_requirement(self):
        with pytest.raises(BadModulus):
            expsums.salie(1, 1, 4)

    def test_zero_sum_nonsquare(self):
        for q in (3, 5, 15, 21, 105):
            assert abs(expsums.salie(0, 0, q)) < 1e-9

    def test_square_modulus_gives_totient(self):
        assert expsums.salie(0, 0, 9) == pytest.approx(6)

    def test_hand_value_q3(self):
        assert expsums.salie(1, 1, 3) == pytest.approx(-1j * math.sqrt(3), abs=1e-12)


class TestWeilCheck:
    def test_small_kloosterman(self):
        rep = expsums.expsum_report("kloosterman", 1, 1, 5)
        assert rep.weil_bound == pytest.approx(math.sqrt(5) * 2)
        assert expsums.weil_check(rep)

    def test_degenerate_gcd(self):
        rep = expsums.expsum_report("kloosterman", 0, 0, 36)
        assert expsums.weil_check(rep)

    def test_synthetic_violation(self):
        q = 10
        tau = arith.analyze_modulus(q).tau
        fake = expsums.ExpSumReport("kloosterman", 1, 1, q,
                                    10 * math.sqrt(q) * tau + 0j,
                                    expsums.weil_bound(1, 1, q))
        assert not expsums.weil_check(fake)

    def test_ratio(self):
        rep = expsums.expsum_report("kloosterman", 1, 1, 5)
        assert rep.ratio == pytest.approx(abs(rep.value) / rep.weil_bound)


class TestWeylStatistic:
    def test_ramanujan_case(self):
        for q in (7, 11, 101):
            v = expsums.weyl_statistic(q, 1, 1, 0)
            assert v == pytest.approx(-1 / (q - 1), abs=1e-10)

    def test_prime_101_all_t(self):
        mod = arith.analyze_modulus(101)
        mx = max(abs(expsums.weyl_statistic(mod, int(t), 1, 1))
                 for t in arith.units(101).tolist())
        assert mx <= 2 * math.sqrt(101) / 100 + 1e-9

    def test_trivial_pair_rejected(self):
        with pytest.raises(ValueError):
            expsums.weyl_statistic(12, 1, 0, 0)

    def test_noncoprime_t_rejected(self):
        with pytest.raises(NotCoprime):
            expsums.weyl_statistic(12, 4, 1, 1)

    def test_class_decomposition(self):
        mod = arith.analyze_modulus(20)
        classes = {sigma_class(p, mod) for p in arith.units(20).tolist()}
        total = sum(expsums.weyl_statistic(mod, 3, 1, 1, class_filter=sc) for sc in classes)
        assert total == pytest.approx(expsums.weyl_statistic(mod, 3, 1, 1), abs=1e-12)

    def test_decay_bound(self):
        rng = np.random.default_rng(9)
        for q in (101, 499, 997):
            mod = arith.analyze_modulus(q)
            if q <= 512:
                ts = arith.units(q).tolist()
            else:
                ts = sorted(int(t) for t in rng.choice(arith.units(q), 100, replace=False))
            mx = max(abs(expsums.weyl_statistic(mod, t, 1, 1)) for t in ts)
            assert mx <= 4 * mod.tau / math.sqrt(q)


class TestClassCounts:
    def test_q8(self):
        counts = expsums.class_counts(8)
        assert sorted(counts, key=lambda z: (complex(z).real, complex(z).imag)) == \
            sorted([1, -1, 1j, -1j], key=lambda z: (complex(z).real, complex(z).imag))
        assert set(counts.values()) == {1}

    def test_q15(self):
        assert expsums.class_counts(15) == {1: 4, -1: 4}

    def test_q16_mod4(self):
        assert expsums.class_counts(16, by_mod4=True) == {1: 4, -1: 4}

    def test_mod4_needs_divisibility(self):
        with pytest.raises(BadModulus):
            expsums.class_counts(6, by_mod4=True)

    def test_unclassified_square(self):
        counts = expsums.class_counts(9)
        assert counts == {None: 6}

    def test_exactness_sweep(self):
        for q in range(3, 401):
            mod = arith.analyze_modulus(q)
            if mod.q_mod4 == 0:
                assert sorted(expsums.class_counts(mod, by_mod4=True).values()) == \
                    [mod.phi // 2] * 2
                if not mod.is_square:
                    counts = expsums.class_counts(mod)
                    assert len(counts) == 4 and set(counts.values()) == {mod.phi // 4}
            elif mod.q_mod4 % 2 == 1 and not mod.is_square:
                counts = expsums.class_counts(mod)
                assert len(counts) == 2 and set(counts.values()) == {mod.phi // 2}

    def test_half_classes_for_2_mod_4(self):
        # the halved-modulus classes split the units evenly too
        for q in (6, 10, 14, 22, 30, 46):
            mod = arith.analyze_modulus(q)
            if mod.q_mod4 != 2 or arith.is_perfect_square(q // 2):
                continue
            counts = expsums.class_counts(mod)
            assert sorted(counts.values()) == [mod.phi // 2] * 2
