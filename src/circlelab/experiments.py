"""Reproducible experiment drivers over the exact arc algebra.

Each driver returns an :class:`ExperimentReport`: echoed parameters, rows
of exact rationals (with a 12-significant-digit decimal rendering beside
each), and named boolean verdicts.  Verdicts are genuine checks that are
expected to pass; classifications that are not pass/fail (such as the
series verdict of the totient-series classifier) are reported as
parameters instead, so a "convergent" outcome never reads as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, starmap
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from .approx import DeltaSequence, Power, scaled_tail_union_comparison, tail_union_measures
from .circle import CirclePoint, RationalLike, _add_over_lcm, _sum_ratios, as_fraction, format_fraction
from .numtheory import All, IndexPredicate, totient_range

DECIMAL_DIGITS = 12
# duffin-schaeffer runs about 3.5x as long per doubling of its cap, 7 s at 2**18 on a shared
# 2-core host: some 20 minutes at 2**22, over an hour past it; gallagher and witnesses share the bound
MAX_PARTIAL_SUM_CAP = 2**22


def decimal_string(q: Fraction) -> str:
    """Faithful rounding of an exact rational to DECIMAL_DIGITS significant digits.

    Half-even rounding; the exact value is always carried alongside in
    reports, so this rendering is presentation only.  The digits come from
    one integer division scaled to leave two to four digits past them, and
    print as Decimal prints the quotient of numerator and denominator: an
    exact quotient drops its trailing zeros past the decimal point.
    """
    num, den = q.as_integer_ratio()
    if not num:
        return "0"
    # |q| > 2**t, so coeff has DECIMAL_DIGITS + 2 digits or more: 0.30103 exceeds log10(2) by under 5e-9
    t = abs(num).bit_length() - den.bit_length() - 1
    k = DECIMAL_DIGITS + 2 - t * 30103 // 100000
    coeff, rest = divmod(abs(num) * 10**k, den) if k >= 0 else divmod(abs(num), den * 10**-k)
    drop = len(str(coeff)) - DECIMAL_DIGITS
    coeff, tail = divmod(coeff, 10**drop)
    half = 5 * 10 ** (drop - 1)
    exp = drop - k
    if tail > half or tail == half and (rest or coeff & 1):
        coeff += 1
        if coeff == 10**DECIMAL_DIGITS:
            coeff, exp = coeff // 10, exp + 1
    elif not tail and not rest:
        while exp < 0 and coeff % 10 == 0:
            coeff, exp = coeff // 10, exp + 1
    return str(Decimal(f"{'-' if num < 0 else ''}{coeff}E{exp}"))


@dataclass(frozen=True)
class ReportRow:
    label: str
    exact: Fraction

    @property
    def decimal(self) -> str:
        return decimal_string(self.exact)


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool


@dataclass
class ExperimentReport:
    experiment: str
    params: dict[str, object] = field(default_factory=dict)
    rows: list[ReportRow] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def row(self, label: str) -> ReportRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "rows": [
                {"label": r.label, "exact": format_fraction(r.exact), "decimal": r.decimal}
                for r in self.rows
            ],
            "verdicts": [{"name": v.name, "pass": v.passed} for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def to_csv(self) -> str:
        return csv_text(REPORT_CSV_HEADER, report_csv_rows(self.to_json_dict()))


REPORT_CSV_HEADER = ("kind", "label", "value", "decimal")


def report_csv_rows(data: dict) -> Iterator[tuple]:
    """The CSV records of a report's `to_json_dict()`: params, rows, then verdicts."""
    for key, value in data["params"].items():
        yield "param", key, value, ""
    for r in data["rows"]:
        yield "row", r["label"], r["exact"], r["decimal"]
    for v in data["verdicts"]:
        yield "verdict", v["name"], "pass" if v["pass"] else "FAIL", ""


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """One line per row after the header; a field holding a comma, quote or newline is quoted."""

    def field(value: object) -> str:
        text = str(value)
        if "," in text or '"' in text or "\n" in text:
            return '"' + text.replace('"', '""') + '"'
        return text

    return "".join(",".join(map(field, row)) + "\n" for row in (header, *rows))


def json_text(value: object) -> str:
    """value as json.dumps(value, indent=2) writes it, for str, int, bool, None, lists and str-keyed dicts.

    With indent, json.dumps runs the json module's pure-Python encoder; this
    is one short recursion, with strings encoded as json.dumps encodes them.
    """
    return _json_text(value, "\n")


def _json_text(value: object, newline: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("json_text writes only dicts with str keys")
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# -- drivers --------------------------------------------------------------------


def _totient_sums(delta: DeltaSequence, phi: Sequence[int], blocks: Iterable[tuple[int, int]]) -> Iterator[Fraction]:
    """Sums of phi[n] * max(delta_n, 0) over the blocks [lo, hi) so far, exact, one per block taken in turn.

    Each block is one summation tree.  A power law c/n**a with a >= 1 hands
    it (phi[n], n), read as phi[n]/n**a, and applies c once; any other
    sequence hands it (phi[n]*p, q) for its positive radii p/q.  The running
    sum is an unreduced pair, added over the lcm, reduced once per block.
    """
    power = isinstance(delta, Power) and delta.exponent > 0
    a = delta.exponent if power else 1
    c, d = delta.coeff.as_integer_ratio() if power else (1, 1)

    def block_sum(lo: int, hi: int) -> tuple[int, int]:
        if power:
            return _sum_ratios(zip(phi[lo:hi], range(lo, hi)), a)
        return _sum_ratios((f * p, q) for f, (p, q) in zip(phi[lo:hi], delta.ratios(lo, hi)) if p > 0)

    running = accumulate(starmap(block_sum, blocks), lambda s, t: _add_over_lcm(*s, *t, a))
    return (Fraction(c * p, d * r**a) for p, r in running)


def gallagher_experiment(
    delta: DeltaSequence, n_min_schedule: Sequence[int], n_max: int
) -> ExperimentReport:
    """Tail-union measures along a schedule of truncation starts.

    For each N in the schedule, reports the exact measure of the tail
    union over [N, n_max] together with its subadditive upper bound
    sum of 2*totient(n)*max(delta_n, 0).  Verdicts: measures are monotone
    non-increasing in N, and each measure is at most its bound.
    """
    schedule = list(n_min_schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if schedule[0] < 1 or schedule[-1] > n_max:
        raise ValueError(f"schedule must lie within [1, {n_max}]")
    if n_max > MAX_PARTIAL_SUM_CAP:  # before the bounds' sieve to n_max
        raise ValueError(f"n_max must be at most 2**22, got {n_max}")

    phi = totient_range(n_max)
    report = ExperimentReport(
        "gallagher",
        params={"delta": str(delta), "n_min_schedule": schedule, "n_max": n_max},
    )
    # the bounds are suffix sums: the schedule intervals summed from the top
    blocks = list(zip(schedule, schedule[1:] + [n_max + 1]))[::-1]
    bounds = {lo: 2 * s for (lo, _), s in zip(blocks, _totient_sums(delta, phi, blocks))}
    measures = tail_union_measures(All(), delta, schedule, n_max)
    for n_min, measure in zip(schedule, measures):
        bound = bounds[n_min]
        report.rows.append(ReportRow(f"measure[n_min={n_min}]", measure))
        report.rows.append(ReportRow(f"upper_bound[n_min={n_min}]", bound))
        report.verdicts.append(Verdict(f"measure_le_bound[n_min={n_min}]", measure <= bound))
    report.verdicts.append(
        Verdict(
            "measures_nonincreasing",
            all(a >= b for a, b in zip(measures, measures[1:])),
        )
    )
    return report


def cassels_experiment(
    delta: DeltaSequence,
    m: RationalLike,
    pred: IndexPredicate,
    n_min: int,
    n_max: int,
) -> ExperimentReport:
    """Compare the tail union with radii delta_n against radii m*delta_n.

    Reports both measures and the measure of the symmetric difference.
    Verdict: exact containment of the smaller-radius union in the larger
    (both directions when m == 1, where the symmetric difference is 0).
    """
    scale = as_fraction(m)
    if scale <= 0:
        raise ValueError(f"scaling factor must be positive, got {scale}")
    comparison = scaled_tail_union_comparison(pred, delta, scale, n_min, n_max)
    w1_measure, wm_measure, symm_diff, base_in_scaled, scaled_in_base = comparison
    report = ExperimentReport(
        "cassels",
        params={
            "delta": str(delta),
            "m": format_fraction(scale),
            "pred": str(pred),
            "n_min": n_min,
            "n_max": n_max,
        },
    )
    report.rows.append(ReportRow("measure[m=1]", w1_measure))
    report.rows.append(ReportRow(f"measure[m={format_fraction(scale)}]", wm_measure))
    report.rows.append(ReportRow("symm_diff_measure", symm_diff))
    if scale >= 1:
        report.verdicts.append(Verdict("base_subset_scaled", base_in_scaled))
    if scale <= 1:
        report.verdicts.append(Verdict("scaled_subset_base", scaled_in_base))
    if scale == 1:
        report.verdicts.append(Verdict("symm_diff_zero", symm_diff == 0))
    return report


def _doubling_schedule(cap: int) -> list[int]:
    return [1 << i for i in range(1, cap.bit_length())] or [cap]


def duffin_schaeffer_classify(delta: DeltaSequence, partial_sum_cap: int) -> ExperimentReport:
    """Partial sums of totient(n)*max(delta_n, 0) plus an analytic series verdict.

    Partial sums are reported at a doubling schedule of cutoffs up to the
    cap.  The series verdict is delta.divergent: exact for closed-form
    sequences (a positive power law c/n**a diverges iff a <= 2, predicted
    class "full", and converges otherwise, class "null"; a positive constant
    diverges, a non-positive one gives the zero series, which converges).
    Tabulated sequences give None and are left "undetermined" — no
    almost-everywhere claim is made from finite data.
    """
    if not 1 <= partial_sum_cap <= MAX_PARTIAL_SUM_CAP:
        raise ValueError(f"partial-sum cap must be in [1, 2**22], got {partial_sum_cap}")
    cutoffs = _doubling_schedule(partial_sum_cap)
    phi = totient_range(cutoffs[-1])
    report = ExperimentReport(
        "duffin-schaeffer",
        params={"delta": str(delta), "partial_sum_cap": partial_sum_cap},
    )
    ends = [cutoff + 1 for cutoff in cutoffs]
    sums = list(_totient_sums(delta, phi, zip([1] + ends, ends)))
    for cutoff, total in zip(cutoffs, sums):
        report.rows.append(ReportRow(f"partial_sum[n_max={cutoff}]", total))
    report.verdicts.append(
        Verdict("partial_sums_nondecreasing", all(a <= b for a, b in zip(sums, sums[1:])))
    )

    divergent = delta.divergent
    if divergent is None:
        report.params["series"] = "undetermined"
        report.params["predicted_class"] = "undetermined"
    else:
        report.params["series"] = "divergent" if divergent else "convergent"
        report.params["predicted_class"] = "full" if divergent else "null"
    return report


def membership_witnesses(x: CirclePoint, delta: DeltaSequence, n_max: int) -> list[int]:
    """Indices n <= n_max whose order-n points come within open distance delta_n of x."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    # the scan to 10**6 took 1.4-1.8 s of CPU on a shared 2-core host; refused before any radius is read
    if n_max > MAX_PARTIAL_SUM_CAP:
        raise ValueError(f"n_max must be at most 2**22, got {n_max}")
    # dist_to_order(n) < p/q, both sides times q*v*n for x = u/v
    v = x.value.denominator
    return [n for n, (p, q) in enumerate(delta.ratios(1, n_max + 1), 1) if x._dist_num(n) * q < p * v * n]
