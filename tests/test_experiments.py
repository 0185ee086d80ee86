import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlelab import (
    All,
    Constant,
    ExperimentReport,
    NotDiv,
    Power,
    ReportRow,
    Table,
    TailUnionSpec,
    Verdict,
    cassels_experiment,
    circle_point,
    decimal_string,
    duffin_schaeffer_classify,
    gallagher_experiment,
    membership_witnesses,
    tail_union,
    totient,
)
from circlelab import experiments as experiments_module
from circlelab.circle import _sum_ratios
from circlelab.experiments import json_text
from helpers import (
    decimal_string_by_division,
    dist_to_order_scan,
    doubling_schedule_by_loop,
    partial_sums_sequential,
    rand_fraction,
)


def test_decimal_rendering():
    assert decimal_string(Fraction(1, 3)) == "0.333333333333"
    assert decimal_string(Fraction(1, 2)) == "0.5"
    assert decimal_string(Fraction(2)) == "2"
    assert decimal_string(Fraction(-1, 3)) == "-0.333333333333"
    assert decimal_string(Fraction(2, 3)) == "0.666666666667"
    assert decimal_string(Fraction(0)) == "0"
    assert decimal_string(Fraction(1, 8)) == "0.125"
    assert decimal_string(Fraction(1, 10**9)) == "1E-9"
    assert decimal_string(Fraction(-2000)) == "-2000"
    assert decimal_string(Fraction(1305514926000)) == "1.30551492600E+12"
    assert decimal_string(Fraction(125, 84)) == "1.48809523810"
    assert decimal_string(Fraction(2 * 10**12 - 1, 2)) == "1.00000000000E+12"
    assert decimal_string(Fraction(1234567890125, 10**13)) == "0.123456789012"
    assert decimal_string(Fraction(1234567890135, 10**13)) == "0.123456789014"


def _decimal_cases(rng: random.Random) -> list[Fraction]:
    """Seeded rationals of every shape that decimal_string prints, 100,000 and more."""
    cases = []
    for _ in range(40_000):  # either sign, 1 to 40 digits over 1 to 40 digits
        cases.append(Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 40)),
                              rng.randint(1, 10 ** rng.randint(1, 40))))
    for _ in range(10_000):  # integers, with 13 digits or more printed in E+ form
        cases.append(Fraction(rng.choice((1, -1)) * rng.randint(0, 10 ** rng.randint(1, 30))))
    for _ in range(10_000):  # exact decimals, short and long
        cases.append(Fraction(rng.randint(-10**13, 10**13), 2 ** rng.randint(0, 40) * 5 ** rng.randint(0, 40)))
    for _ in range(10_000):  # ties at the 13th digit after an odd or even 12th, and a hair either side
        tie = Fraction(10 * rng.randint(10**11, 10**12 - 1) + 5) * Fraction(10) ** rng.randint(-30, 12)
        hair = tie / 10 ** rng.randint(14, 60)
        cases += [tie, -tie, tie + hair, tie - hair]
    for e in range(-40, 40):  # values that round up to a new power of ten
        for nines in (Fraction(2 * 10**12 - 1, 2), Fraction(10**13 - 1), Fraction(10**30 - 1, 10**30)):
            cases += [nines * Fraction(10) ** e, -nines * Fraction(10) ** e]
    for _ in range(12):  # operands past 4,300 digits, of like and unlike sizes
        big = rng.getrandbits(15_000) | 1 << 15_000
        cases += [Fraction(big, rng.getrandbits(15_000) | 1), Fraction(-big, 7), Fraction(3, big)]
    return cases


def test_decimal_string_matches_decimal_division_oracle():
    cases = _decimal_cases(random.Random(2300))
    assert len(cases) >= 100_000
    past_4300_digits = 10**4300
    assert sum(max(abs(c.numerator), c.denominator) >= past_4300_digits for c in cases) == 36
    assert [q for q in cases if decimal_string(q) != decimal_string_by_division(q)] == []


def test_report_accessors_and_exit_logic():
    rep = ExperimentReport("demo", params={"k": 1})
    rep.rows.append(ReportRow("m", Fraction(1, 7)))
    rep.verdicts.append(Verdict("ok", True))
    assert rep.all_pass()
    assert rep.row("m").exact == Fraction(1, 7)
    rep.verdicts.append(Verdict("broken", False))
    assert not rep.all_pass()
    with pytest.raises(KeyError):
        rep.row("missing")


# -- gallagher -------------------------------------------------------------------


def test_gallagher_cubic_bounds():
    rep = gallagher_experiment(Power(Fraction(1), 3), [2, 5, 10], 60)
    assert rep.all_pass()
    for n_min in (2, 5, 10):
        measure = rep.row(f"measure[n_min={n_min}]").exact
        bound = rep.row(f"upper_bound[n_min={n_min}]").exact
        assert measure <= bound <= Fraction(2, n_min - 1)


def test_gallagher_zero_delta():
    rep = gallagher_experiment(Constant(Fraction(0)), [1, 3], 20)
    assert rep.all_pass()
    assert rep.row("measure[n_min=1]").exact == 0
    assert rep.row("measure[n_min=3]").exact == 0


def test_gallagher_union_grows_with_n_max():
    delta = Power(Fraction(1), 2)
    small = gallagher_experiment(delta, [2], 25).row("measure[n_min=2]").exact
    large = gallagher_experiment(delta, [2], 100).row("measure[n_min=2]").exact
    assert small < large


def test_gallagher_schedule_validation():
    delta = Constant(Fraction(1, 100))
    with pytest.raises(ValueError):
        gallagher_experiment(delta, [], 10)
    with pytest.raises(ValueError):
        gallagher_experiment(delta, [5, 5], 10)
    with pytest.raises(ValueError):
        gallagher_experiment(delta, [2, 12], 10)


# -- cassels -----------------------------------------------------------------------


def test_cassels_identity_scale():
    rep = cassels_experiment(Power(Fraction(1), 2), 1, All(), 2, 30)
    assert rep.all_pass()
    assert rep.row("symm_diff_measure").exact == 0


def test_cassels_expanding_scale():
    rep = cassels_experiment(Power(Fraction(1), 2), 2, All(), 2, 50)
    assert rep.all_pass()
    assert any(v.name == "base_subset_scaled" for v in rep.verdicts)
    assert rep.row("symm_diff_measure").exact == (
        rep.row("measure[m=2]").exact - rep.row("measure[m=1]").exact
    )


def test_cassels_shrinking_scale():
    rep = cassels_experiment(Power(Fraction(1), 2), Fraction(1, 2), All(), 2, 50)
    assert rep.all_pass()
    assert any(v.name == "scaled_subset_base" for v in rep.verdicts)


def test_cassels_respects_predicate():
    rep = cassels_experiment(Power(Fraction(1), 2), 3, NotDiv(2), 2, 20)
    assert rep.all_pass()
    w1 = tail_union(TailUnionSpec(2, 20, NotDiv(2), Power(Fraction(1), 2)))
    assert rep.row("measure[m=1]").exact == w1.measure


def test_cassels_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        cassels_experiment(Power(Fraction(1), 2), 0, All(), 2, 10)
    with pytest.raises(ValueError):
        cassels_experiment(Power(Fraction(1), 2), Fraction(-2), All(), 2, 10)


# -- duffin-schaeffer --------------------------------------------------------------


def test_classifier_power_laws():
    divergent = duffin_schaeffer_classify(Power(Fraction(1), 2), 64)
    assert divergent.params["series"] == "divergent"
    assert divergent.params["predicted_class"] == "full"
    convergent = duffin_schaeffer_classify(Power(Fraction(1), 3), 64)
    assert convergent.params["series"] == "convergent"
    assert convergent.params["predicted_class"] == "null"
    assert divergent.all_pass() and convergent.all_pass()


def test_classifier_constant_and_table():
    zero = duffin_schaeffer_classify(Constant(Fraction(0)), 16)
    assert zero.params["series"] == "convergent"
    assert zero.params["predicted_class"] == "null"
    assert all(r.exact == 0 for r in zero.rows)
    positive = duffin_schaeffer_classify(Constant(Fraction(1, 10)), 16)
    assert positive.params["series"] == "divergent"
    table = duffin_schaeffer_classify(Table((Fraction(1, 4), Fraction(1, 9))), 16)
    assert table.params["series"] == "undetermined"


def test_classifier_partial_sums_exact():
    rep = duffin_schaeffer_classify(Power(Fraction(1), 2), 4)
    # sum of totient(n)/n**2 over n <= 2 and n <= 4
    assert rep.row("partial_sum[n_max=2]").exact == Fraction(5, 4)
    assert rep.row("partial_sum[n_max=4]").exact == Fraction(115, 72)


def test_classifier_schedule_and_monotonicity():
    rep = duffin_schaeffer_classify(Power(Fraction(1), 2), 100)
    labels = [r.label for r in rep.rows]
    assert labels == [f"partial_sum[n_max={m}]" for m in (2, 4, 8, 16, 32, 64)]
    sums = [r.exact for r in rep.rows]
    assert all(a <= b for a, b in zip(sums, sums[1:]))
    assert rep.all_pass()
    with pytest.raises(ValueError):
        duffin_schaeffer_classify(Power(Fraction(1), 2), 0)


_DS_DELTAS = [
    *(Power(c, a) for a in (0, 1, 2, 3) for c in (Fraction(1), Fraction(7, 3), Fraction(1, 10))),
    Constant(Fraction(1, 10)),
    Constant(Fraction(0)),
    Constant(Fraction(-1, 3)),
    # zero and negative entries, and shorter than every cap above 7
    Table((Fraction(1, 4), Fraction(0), Fraction(-1, 9), Fraction(2, 7), Fraction(0), Fraction(1, 3), Fraction(-5))),
]


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 64, 1000, 4096])
@pytest.mark.parametrize("delta", _DS_DELTAS, ids=str)
def test_classifier_partial_sums_match_sequential_oracle(delta, cap):
    cutoffs = [2**k for k in range(1, cap.bit_length()) if 2**k <= cap] or [cap]
    rep = duffin_schaeffer_classify(delta, cap)
    expected = partial_sums_sequential(delta, cutoffs)
    assert [(r.label, r.exact) for r in rep.rows] == [
        (f"partial_sum[n_max={c}]", total) for c, total in zip(cutoffs, expected)
    ]


def test_classifier_sums_power_laws_over_n_and_every_other_sequence_over_its_radii(monkeypatch):
    """c/n**a for a >= 1 reaches the tree as (phi(n), n) with that a; exponent 0 and the other kinds with a = 1."""
    calls = []

    def spy(pairs, a=1):
        pairs = list(pairs)
        calls.append((a, pairs[:2]))
        return _sum_ratios(pairs, a)

    monkeypatch.setattr(experiments_module, "_sum_ratios", spy)
    for delta, a in [(Power(Fraction(7, 3), 3), 3), (Power(Fraction(7, 3), 1), 1), (Power(Fraction(7, 3), 0), 1),
                     (Constant(Fraction(1, 10)), 1), (Table((Fraction(1, 4), Fraction(1, 9))), 1)]:
        calls.clear()
        rep = duffin_schaeffer_classify(delta, 8)
        assert {called for called, _ in calls} == {a}
        assert [r.exact for r in rep.rows] == partial_sums_sequential(delta, [2, 4, 8])
    calls.clear()
    duffin_schaeffer_classify(Power(Fraction(7, 3), 2), 8)
    assert calls[0] == (2, [(1, 1), (1, 2)])  # phi(n) over n, with c applied once


def test_doubling_schedule_matches_loop_oracle():
    caps = [*range(1, 71)] + [2**k + d for k in range(1, 23) for d in (-1, 0, 1)]
    for cap in caps:
        assert experiments_module._doubling_schedule(cap) == doubling_schedule_by_loop(cap), cap


def test_classifier_refuses_caps_past_2_22_before_sieving(monkeypatch):
    class Sieved(Exception):
        pass

    def no_sieve(limit):
        raise Sieved(limit)

    monkeypatch.setattr(experiments_module, "totient_range", no_sieve)
    for cap in (2**22 + 1, 10**9):
        with pytest.raises(ValueError, match=r"\[1, 2\*\*22\], got " + str(cap)):
            duffin_schaeffer_classify(Power(Fraction(1), 2), cap)
    with pytest.raises(Sieved):  # the largest cap allowed goes on to the sieve
        duffin_schaeffer_classify(Power(Fraction(1), 2), 2**22)


# -- membership witnesses ------------------------------------------------------------


def test_witnesses_examples():
    assert 3 in membership_witnesses(circle_point("1/3"), Power(Fraction(1), 2), 10)
    assert membership_witnesses(circle_point("2/7"), Constant(Fraction(0)), 30) == []


def test_witness_monotone_in_delta():
    x = circle_point("89/144")
    small = membership_witnesses(x, Power(Fraction(1), 2), 60)
    large = membership_witnesses(x, Power(Fraction(2), 2), 60)
    assert set(small) <= set(large)


def test_witnesses_strict_inequality():
    # distance exactly delta_n is not a witness (open thickening)
    x = circle_point("1/4")  # distance to order 2 is exactly 1/4
    assert x.dist_to_order(2) == Fraction(1, 4)
    assert 2 not in membership_witnesses(x, Constant(Fraction(1, 4)), 4)
    assert 2 in membership_witnesses(x, Constant(Fraction(26, 100)), 4)
    assert 2 not in membership_witnesses(x, Power(Fraction(1), 2), 4)
    assert 2 in membership_witnesses(x, Power(Fraction(101, 100), 2), 4)


def _witnesses_by_scan(x: Fraction, delta, n_max: int) -> list[int]:
    return [n for n in range(1, n_max + 1) if dist_to_order_scan(x, n) < delta.eval_at(n)]


@pytest.mark.parametrize("delta", _DS_DELTAS, ids=str)
def test_witnesses_match_scan_oracle(delta):
    rng = random.Random(1302)
    # 1/4 lies at distance exactly delta_2 of power:1:2 and delta_1 of the table
    points = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(89, 144)]
    points += [rand_fraction(rng, 400) for _ in range(6)]
    for x in points:
        assert membership_witnesses(circle_point(x), delta, 40) == _witnesses_by_scan(x, delta, 40), x
        assert membership_witnesses(circle_point(x), delta, 1) == _witnesses_by_scan(x, delta, 1), x


def test_witnesses_validation(monkeypatch):
    with pytest.raises(ValueError):
        membership_witnesses(circle_point("1/3"), Power(Fraction(1), 2), 0)

    def no_ratios(delta, lo, hi):
        raise AssertionError(f"read the radii {lo}..{hi - 1} before refusing n_max")

    # an n_max past 2**22 is refused before any radius is read; under const:1/2 every index is a witness
    monkeypatch.setattr(Power, "ratios", no_ratios)
    monkeypatch.setattr(Constant, "ratios", no_ratios)
    for n_max in (2**22 + 1, 10**12):
        for delta in (Power(Fraction(1), 2), Constant(Fraction(1, 2))):
            with pytest.raises(ValueError, match=rf"^n_max must be at most 2\*\*22, got {n_max}$"):
                membership_witnesses(circle_point("1/3"), delta, n_max)
    monkeypatch.setattr(Power, "ratios", lambda delta, lo, hi: iter(()))
    assert membership_witnesses(circle_point("1/3"), Power(Fraction(1), 2), 2**22) == []


# -- sanity: experiment bound ingredients ------------------------------------------------


def test_bound_matches_direct_sum():
    delta = Power(Fraction(1), 3)
    rep = gallagher_experiment(delta, [5], 40)
    direct = sum((2 * totient(n) * delta.eval_at(n) for n in range(5, 41)), Fraction(0))
    assert rep.row("upper_bound[n_min=5]").exact == direct


def test_bounds_match_direct_sums_at_every_start():
    delta = Table(tuple(Fraction(k % 5 - 1, 3 * k) for k in range(1, 31)))
    schedule = [1, 2, 7, 19, 30]
    rep = gallagher_experiment(delta, schedule, 30)
    for n_min in schedule:
        terms = (2 * totient(n) * max(delta.eval_at(n), Fraction(0)) for n in range(n_min, 31))
        direct = sum(terms, Fraction(0))
        assert rep.row(f"upper_bound[n_min={n_min}]").exact == direct
        measure = tail_union(TailUnionSpec(n_min, 30, All(), delta)).measure
        assert rep.row(f"measure[n_min={n_min}]").exact == measure


# text with non-ASCII letters, quotes, backslashes and control characters, and the empty string
json_strings = st.one_of(st.text(max_size=8), st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é√\u2028𝄞", 'a"b\\c\nd']))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=-1, max_value=1), json_strings),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=30,
)


@given(json_values)
@settings(max_examples=400)
def test_json_text_matches_json_dumps_with_indent(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_what_it_does_not_write():
    for value in (1.5, {1: 2}, {"a": Fraction(1, 2)}, [object()]):
        with pytest.raises(TypeError):
            json_text(value)
