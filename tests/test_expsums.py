"""Kloosterman/twisted/Salie sums, Weil bounds, class counts, Weyl decay."""

import cmath
import math

import numpy as np
import pytest

from gausslab import arith, expsums, verify
from gausslab.errors import BadModulus, DomainError, NotCoprime
from gausslab.gauss_sums import modulus_case, sigma_class
from reference import epsilon


def brute_kloosterman(m, n, q, twist=lambda p: 1):
    total = 0j
    for p in range(1, q + 1):
        if math.gcd(p, q) != 1:
            continue
        p_bar = pow(p, -1, q) if q > 1 else 0
        total += twist(p) * cmath.exp(2j * cmath.pi * ((m * p + n * p_bar) % q) / q)
    return total


def weyl_statistic(q, t, m, n, class_filter=None):
    """The O(phi(q)) oracle of expsums.weyl_statistics for one unit t, optionally over one sigma class.

    (1/phi(q)) sum over p (with sigma class class_filter, a value of
    modulus_case) of e((m p + n t p-bar)/q).  The normalization is by the
    full phi(q) even when the filter keeps only a quarter or half of the units.
    """
    ps, invs = arith.inverse_table(q)
    phases = np.exp(2j * np.pi * ((m % q * ps + n * t % q * invs) % q) / q)
    if class_filter is not None:
        phases = phases[modulus_case(q, ps).classes == class_filter]
    return complex(phases.sum() / ps.size)


def sums(kind, m, n, q):
    """The sum of one kind, through unit_sums."""
    return expsums.unit_sums(m, n, q, [kind])[kind]


# the twists of the twisted and Salie sums, from the scalar symbols
BRUTE_TWISTS = {
    "kloosterman": lambda q: lambda p: 1,
    "twisted": lambda q: lambda p: epsilon(p) * arith.jacobi(q, p),
    "salie": lambda q: lambda p: arith.jacobi(p, q),
}


class TestHugeArguments:
    # m, n and t are reduced mod q before any int64 arithmetic
    @pytest.mark.parametrize("big", [2**62, 10**19])
    def test_sums_match_reduced(self, big):
        for kind, q in (("kloosterman", 7), ("salie", 7), ("twisted", 8)):
            got, _ = expsums.expsum_report(kind, big, 1, q)
            assert got == pytest.approx(expsums.expsum_report(kind, big % q, 1, q)[0], abs=1e-12)
            got, _ = expsums.expsum_report(kind, 3, big + 1, q)
            assert got == pytest.approx(expsums.expsum_report(kind, 3, (big + 1) % q, q)[0], abs=1e-12)

    def test_kloosterman_2_62_value(self):
        assert expsums.kloosterman(2**62, 1, 7) == pytest.approx(brute_kloosterman(2**62, 1, 7), abs=1e-12)
        assert expsums.kloosterman(2**62, 1, 7).real == pytest.approx(-2.692, abs=1e-3)

    @pytest.mark.parametrize("big", [2**62, 10**19])
    def test_weyl_statistic_matches_reduced(self, big):
        t = big + 1 if math.gcd(big + 1, 11) == 1 else big + 2
        got = expsums.weyl_statistics(11, [t], big, big + 3)[0]
        assert got == pytest.approx(weyl_statistic(11, t % 11, big % 11, (big + 3) % 11), abs=1e-12)


class TestArrayForms:
    """Arrays m, n give one value per pair, equal to the scalar calls and brute force."""

    BIG = [2**62, 2**62 + 5, -(2**62), 10**19]  # reduced mod q before int64 arithmetic
    MS = [0, 1, -3, 4, *BIG, 7, 2]
    NS = [0, 2, 4, -1, 3, 1, *BIG]

    # 2310, 1155 and 840 have few units (phi(q)/q <= 0.23), so most of the transform's input is 0
    @pytest.mark.parametrize("kind,q", [("kloosterman", 1), ("kloosterman", 2), ("kloosterman", 30),
                                        ("kloosterman", 2310), ("twisted", 4), ("twisted", 24),
                                        ("twisted", 36), ("twisted", 840), ("salie", 9),
                                        ("salie", 45), ("salie", 101), ("salie", 1155)])
    def test_matches_scalar_and_brute_force(self, kind, q):
        got = sums(kind, np.array(self.MS, dtype=object), np.array(self.NS, dtype=object), q)
        assert got.shape == (len(self.MS),)
        for value, m, n in zip(got.tolist(), self.MS, self.NS):
            assert value == pytest.approx(sums(kind, m, n, q), abs=1e-9)
            assert value == pytest.approx(brute_kloosterman(m, n, q, BRUTE_TWISTS[kind](q)), abs=1e-9)

    @pytest.mark.parametrize("kind,q", [("kloosterman", 30), ("twisted", 24), ("salie", 45)])
    def test_column_and_row_broadcast_to_a_table(self, kind, q):
        ms, ns = [[0], [-3], [2**62]], [[1, 0, 10**19, -7]]
        got = sums(kind, np.array(ms, dtype=object), np.array(ns, dtype=object), q)
        assert got.shape == (3, 4)
        for i, (m,) in enumerate(ms):
            for j, n in enumerate(ns[0]):
                assert got[i, j] == pytest.approx(
                    brute_kloosterman(m, n, q, BRUTE_TWISTS[kind](q)), abs=1e-9)

    def test_int64_arrays_near_2_62(self):
        ms = np.array([2**62, 2**62 + 1, 3], dtype=np.int64)
        ns = np.array([1, 2**62 - 7, -(2**62)], dtype=np.int64)
        got = expsums.kloosterman(ms, ns, 97)
        assert got.tolist() == pytest.approx(
            [brute_kloosterman(int(m), int(n), 97) for m, n in zip(ms, ns)], abs=1e-9)

    def test_broadcasts_one_int_against_an_array(self):
        got = sums("salie", 3, np.arange(5), 15 * 7)
        assert got.tolist() == pytest.approx([sums("salie", 3, n, 105) for n in range(5)], abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 12, 36, 105, 997])
    def test_weil_bound_matches_scalar(self, q):
        ms, ns = np.divmod(np.arange(81), 9)
        expected = [expsums.weil_bound(m, n, q) for m, n in zip(ms.tolist(), ns.tolist())]
        assert expsums.weil_bound(ms, ns, q).tolist() == expected
        big = np.array(self.BIG, dtype=object)
        assert expsums.weil_bound(big, big + 6, q).tolist() == [
            expsums.weil_bound(b, b + 6, q) for b in self.BIG]

    def test_weil_bound_numpy_scalars_beyond_int64(self):
        # numpy integer scalars take the exact math.gcd path too, not np.gcd's int64
        q = 2**70
        assert expsums.weil_bound(np.int64(3), 5, q) == expsums.weil_bound(3, 5, q)
        assert expsums.weil_bound(np.int64(3), np.uint8(5), q) == 2**35 * 71
        assert expsums.weil_bound(np.int64(6), np.int64(4), q) == math.sqrt(2) * 2**35 * 71


class TestKloosterman:
    @pytest.mark.parametrize("q", [1, 2, 5, 12, 36, 101])
    def test_zero_frequencies_give_totient(self, q):
        assert expsums.kloosterman(0, 0, q) == pytest.approx(arith.analyze_modulus(q)[0])

    def test_float_frequency_refused(self):
        # it was truncated to K(1, 1, 7)
        with pytest.raises(DomainError, match="residues need integers"):
            expsums.kloosterman(1.5, 1, 7)

    def test_float_in_an_object_array_refused(self):
        # the object array of a value past int64 read its 1.5 as 1, giving K(1, 1, 7)
        with pytest.raises(DomainError, match="residues need integers, got 1.5"):
            expsums.kloosterman(np.array([2**70, 1.5], dtype=object), 1, 7)

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
            phi, _ = arith.analyze_modulus(q)
            v = expsums.kloosterman(2, 3, q)
            assert abs(v.imag) < 1e-9 * max(phi, 1)


class TestTwisted:
    def test_modulus_requirement(self):
        with pytest.raises(BadModulus, match="^twisted sum needs q = 0 mod 4, got 6$"):
            sums("twisted", 1, 1, 6)

    def test_zero_sum_nonsquare(self):
        for q in (8, 12, 20, 24, 40, 200):
            assert abs(sums("twisted", 0, 0, q)) < 1e-9

    def test_hand_value_q4(self):
        # p in {1, 3}: eps_1 (4/1) + eps_3 (4/3) = 1 + i
        assert sums("twisted", 0, 0, 4) == pytest.approx(1 + 1j)

    def test_weil_bound_sweep(self):
        for q in range(4, 401, 4):
            _, tau = arith.analyze_modulus(q)
            v = sums("twisted", 1, 1, q)
            assert abs(v) <= math.sqrt(q) * tau + 1e-6


class TestSalie:
    def test_modulus_requirement(self):
        with pytest.raises(BadModulus, match="^Salie sum needs odd q, got 4$"):
            sums("salie", 1, 1, 4)

    def test_zero_sum_nonsquare(self):
        for q in (3, 5, 15, 21, 105):
            assert abs(sums("salie", 0, 0, q)) < 1e-9

    def test_square_modulus_gives_totient(self):
        assert sums("salie", 0, 0, 9) == pytest.approx(6)

    def test_hand_value_q3(self):
        assert sums("salie", 1, 1, 3) == pytest.approx(-1j * math.sqrt(3), abs=1e-12)


class TestUnitSums:
    MS, NS = np.divmod(np.arange(-24, 25), 7)  # m in -4..3, n in 0..6, both signs of m

    @staticmethod
    def kinds(q):
        return ["kloosterman"] + ["twisted"] * (q % 4 == 0) + ["salie"] * (q % 2)

    def test_every_kind_of_q_equals_its_single_kind_call(self):
        for q in range(1, 65):
            got = expsums.unit_sums(self.MS, self.NS, q)
            assert list(got) == self.kinds(q), q
            for kind, values in got.items():
                assert values.tobytes() == sums(kind, self.MS, self.NS, q).tobytes(), (kind, q)

    def test_scalar_pairs_give_complex_values(self):
        got = expsums.unit_sums(1, 1, 15)
        assert got == {"kloosterman": expsums.kloosterman(1, 1, 15), "salie": sums("salie", 1, 1, 15)}
        assert all(type(v) is complex for v in got.values())

    def test_unknown_kind_refused(self):
        with pytest.raises(DomainError, match="^unknown sum kind 'foo'$"):
            expsums.unit_sums(1, 1, 7, ["foo"])
        with pytest.raises(DomainError, match="^unknown sum kind 'foo'$"):
            expsums.expsum_report("foo", 1, 1, 7)


class TestWeilCheck:
    """The verify suite's one rule: |value| <= bound + WEIL_SLACK."""

    @staticmethod
    def holds(value, bound):
        return abs(value) <= bound + verify.WEIL_SLACK

    def test_small_kloosterman(self):
        value, bound = expsums.expsum_report("kloosterman", 1, 1, 5)
        assert bound == pytest.approx(math.sqrt(5) * 2)
        assert self.holds(value, bound)

    def test_degenerate_gcd(self):
        # K(0, 0, 36) = phi(36) = 12 against gcd 36: the bound is 36 tau(36) = 324
        assert self.holds(*expsums.expsum_report("kloosterman", 0, 0, 36))

    def test_synthetic_violation(self):
        q = 10
        _, tau = arith.analyze_modulus(q)
        value, bound = 10 * math.sqrt(q) * tau + 0j, expsums.weil_bound(1, 1, q)
        assert not self.holds(value, bound) and abs(value) / bound > 1

    def test_ratio(self):
        # the report is the sum and its bound; the expsum command's ratio is abs(value) / bound
        value, bound = expsums.expsum_report("kloosterman", 1, 1, 5)
        assert type(value) is complex and type(bound) is float
        assert value == expsums.kloosterman(1, 1, 5) and bound == expsums.weil_bound(1, 1, 5)

    def test_bound_is_at_least_one(self):
        # every factor of gcd^{1/2} q^{1/2} tau(q) is >= 1, so |value| / bound is always finite
        ms, ns = np.divmod(np.arange(25), 5)
        for q in range(1, 301):
            assert expsums.weil_bound(ms, ns, q).min() >= 1, q
        for m, n in ((0, 0), (1, 1), (2**70, 3), (-5, 2**69)):
            assert expsums.weil_bound(m, n, 2**70) >= 1


class TestWeylStatistic:
    def test_ramanujan_case(self):
        for q in (7, 11, 101):
            v = expsums.weyl_statistics(q, [1], 1, 0)[0]
            assert v == pytest.approx(-1 / (q - 1), abs=1e-10)

    def test_prime_101_all_t(self):
        mx = np.abs(expsums.weyl_statistics(101, arith.units(101), 1, 1)).max()
        assert mx <= 2 * math.sqrt(101) / 100 + 1e-9

    def test_trivial_pair_rejected(self):
        with pytest.raises(ValueError):
            expsums.weyl_statistics(12, [1], 0, 0)

    @pytest.mark.parametrize("m,n", [(7, 0), (14, 7)])
    def test_pair_trivial_mod_q_rejected(self, m, n):
        # (m, n) = (0, 0) mod 7 would give 1 for every t
        with pytest.raises(ValueError, match="trivial"):
            expsums.weyl_statistics(7, [1, 2], m, n)

    @staticmethod
    def count_cases(monkeypatch):
        """The q of every modulus_case call expsums makes."""
        cases, real = [], expsums.modulus_case
        monkeypatch.setattr(expsums, "modulus_case", lambda q, *args: cases.append(q) or real(q, *args))
        return cases

    def test_units_need_no_modulus_case(self, monkeypatch):
        cases = self.count_cases(monkeypatch)
        expsums.weyl_statistics(101, arith.units(101), 1, 1)
        assert cases == []

    def test_noncoprime_t_rejected(self, monkeypatch):
        cases = self.count_cases(monkeypatch)
        with pytest.raises(NotCoprime, match="^a residue shares the factor 4 with 12$"):
            expsums.weyl_statistics(12, [5, 4], 1, 1)
        assert cases == [12]
        # one modulus per class mod 4; an even t at q = 2 mod 4 has a nonzero twist
        for q, ts, shared in [(20, [3, 10], 10), (21, [7, 2], 7), (14, [3, 2], 2),
                              (15, [4, 5], 5)]:
            with pytest.raises(NotCoprime, match=f"shares the factor {shared} with {q}$"):
                expsums.weyl_statistics(q, ts, 1, 1)

    def test_no_t_gives_an_empty_array(self):
        got = expsums.weyl_statistics(7, [], 1, 1)
        assert got.shape == (0,)

    def test_class_decomposition(self):
        classes = {sigma_class(p, 20) for p in arith.units(20).tolist()}
        assert classes == {1, -1, 1j, -1j}
        total = sum(weyl_statistic(20, 3, 1, 1, class_filter=sc) for sc in classes)
        assert total == pytest.approx(weyl_statistic(20, 3, 1, 1), abs=1e-12)

    def test_decay_bound(self):
        rng = np.random.default_rng(9)
        for q in (101, 499, 997):
            _, tau = arith.analyze_modulus(q)
            if q <= 512:
                ts = arith.units(q)
            else:
                ts = np.sort(rng.choice(arith.units(q), 100, replace=False))
            mx = np.abs(expsums.weyl_statistics(q, ts, 1, 1)).max()
            assert mx <= 4 * tau / math.sqrt(q)


class TestClassCounts:
    def test_q8(self):
        counts = expsums.class_counts(8)
        assert sorted(counts, key=lambda z: (complex(z).real, complex(z).imag)) == \
            sorted([1, -1, 1j, -1j], key=lambda z: (complex(z).real, complex(z).imag))
        assert set(counts.values()) == {1}

    def test_q15(self):
        assert expsums.class_counts(15) == {1: 4, -1: 4}

    def test_q16_mod4(self):
        # a square q = 0 mod 4 is classed by p mod 4
        assert expsums.class_counts(16) == {1: 4, -1: 4}

    def test_unclassified_square(self):
        counts = expsums.class_counts(9)
        assert counts == {None: 6}

    def test_exactness_sweep(self):
        for q in range(3, 401):
            phi, _ = arith.analyze_modulus(q)
            if q % 4 == 0:
                counts = expsums.class_counts(q)
                if arith.is_perfect_square(q):
                    assert counts == {1: phi // 2, -1: phi // 2}
                else:
                    assert len(counts) == 4 and set(counts.values()) == {phi // 4}
            elif q % 2 == 1 and not arith.is_perfect_square(q):
                counts = expsums.class_counts(q)
                assert len(counts) == 2 and set(counts.values()) == {phi // 2}

    def test_half_classes_for_2_mod_4(self):
        # the halved-modulus classes split the units evenly too
        for q in (6, 10, 14, 22, 30, 46):
            phi, _ = arith.analyze_modulus(q)
            if q % 4 != 2 or arith.is_perfect_square(q // 2):
                continue
            counts = expsums.class_counts(q)
            assert sorted(counts.values()) == [phi // 2] * 2
