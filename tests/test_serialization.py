import csv
import io
import json
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from circlelab import (
    ArcSet,
    Constant,
    ExperimentReport,
    Power,
    ReportRow,
    Table,
    Verdict,
    arc,
    delta_from_json_dict,
    parse_delta,
    parse_fraction,
    thicken,
)
from circlelab import circle_point
from circlelab.circle import parse_ratio
from helpers import arcset_from_json_by_fraction, rand_grid_arcs


def test_arcset_json_shape():
    s = ArcSet.from_arcs([arc("1/2", "1/8"), arc(0, "1/4")])
    data = s.to_json_dict()
    assert data == {
        "arcs": [
            {"start": "0", "length": "1/4"},
            {"start": "1/2", "length": "1/8"},
        ]
    }


def test_arcset_json_wrap_and_full():
    wrap = thicken([circle_point(0)], Fraction(1, 4))
    assert wrap.to_json_dict() == {"arcs": [{"start": "3/4", "length": "1/2"}]}
    assert ArcSet.full().to_json_dict() == {"arcs": [{"start": "0", "length": "1"}]}
    assert ArcSet.empty().to_json_dict() == {"arcs": []}


def test_arcset_json_round_trip():
    rng = random.Random(83)
    for _ in range(100):
        s = ArcSet.from_arcs(arc(a, l) for a, l in rand_grid_arcs(rng, 40))
        assert ArcSet.from_json(s.to_json()) == s


def test_delta_json_round_trips():
    for d in (
        Power(Fraction(1), 2),
        Power(Fraction(3, 7), 0),
        Constant(Fraction(-1, 10)),
        Table((Fraction(1, 4), Fraction(1, 9), Fraction(0))),
    ):
        assert parse_delta(str(d)) == d
    for data, d in (
        ({"kind": "power", "c": "1", "a": 2}, Power(Fraction(1), 2)),
        ({"kind": "power", "c": "3/7", "a": 0}, Power(Fraction(3, 7), 0)),
        ({"kind": "constant", "c": "-1/10"}, Constant(Fraction(-1, 10))),
        ({"kind": "table", "values": ["1/4", "1/9", "0"]}, Table((Fraction(1, 4), Fraction(1, 9), Fraction(0)))),
    ):
        assert delta_from_json_dict(data) == d


def test_delta_json_examples():
    d = delta_from_json_dict({"kind": "power", "c": "1/1", "a": 2})
    assert d == Power(Fraction(1), 2)
    assert delta_from_json_dict({"kind": "constant", "c": "1/10"}) == Constant(Fraction(1, 10))
    assert delta_from_json_dict({"kind": "table", "values": ["1/4", "1/9"]}) == Table(
        (Fraction(1, 4), Fraction(1, 9))
    )


def test_parse_delta_inline_forms():
    assert parse_delta("power:1:2") == Power(Fraction(1), 2)
    assert parse_delta("power:2/3:1") == Power(Fraction(2, 3), 1)
    assert parse_delta("const:1/10") == Constant(Fraction(1, 10))
    assert parse_delta("table:1/4,1/9,1/16") == Table(
        (Fraction(1, 4), Fraction(1, 9), Fraction(1, 16))
    )
    assert parse_delta('{"kind":"power","c":"1","a":3}') == Power(Fraction(1), 3)


def test_parse_delta_rejects_garbage():
    for bad in ("", "power", "wibble:1", '{"kind":"nope"}'):
        with pytest.raises(ValueError):
            parse_delta(bad)


def test_report_json_schema():
    rep = ExperimentReport("demo", params={"delta": "power:1:2", "n_max": 10})
    rep.rows.append(ReportRow("measure", Fraction(1, 3)))
    rep.verdicts.append(Verdict("check", True))
    data = json.loads(rep.to_json())
    assert set(data) == {"experiment", "params", "rows", "verdicts"}
    assert data["experiment"] == "demo"
    assert data["rows"] == [{"label": "measure", "exact": "1/3", "decimal": "0.333333333333"}]
    assert data["verdicts"] == [{"name": "check", "pass": True}]


def test_report_csv_shape():
    rep = ExperimentReport("demo", params={"k": 2})
    rep.rows.append(ReportRow("m", Fraction(1, 2)))
    rep.verdicts.append(Verdict("check", False))
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "kind,label,value,decimal"
    assert "row,m,1/2,0.5" in lines
    assert "verdict,check,FAIL," in lines


def test_report_csv_quotes_every_field():
    rep = ExperimentReport("demo", params={'say "hi"': "a\nb"})
    rep.rows.append(ReportRow("a,b", Fraction(1, 2)))
    rep.verdicts.append(Verdict("x,y", True))
    text = rep.to_csv()
    assert text == (
        "kind,label,value,decimal\n"
        'param,"say ""hi""","a\nb",\n'
        'row,"a,b",1/2,0.5\n'
        'verdict,"x,y",pass,\n'
    )
    assert list(csv.reader(io.StringIO(text))) == [
        ["kind", "label", "value", "decimal"],
        ["param", 'say "hi"', "a\nb", ""],
        ["row", "a,b", "1/2", "0.5"],
        ["verdict", "x,y", "pass", ""],
    ]


def test_arcset_json_round_trip_beyond_int_str_digit_limit():
    # 10**5000 + 1 has more digits than int() may parse by default
    q = 10**5000 + 1
    s = ArcSet.from_arcs([arc(0, Fraction(1, q)), arc(Fraction(q // 2, q), Fraction(1, 3))])
    text = s.to_json()
    assert len(text) > 2 * sys.get_int_max_str_digits()
    assert ArcSet.from_json(text) == s
    assert parse_fraction(f" -{Decimal(q)}/7 ") == Fraction(-q, 7)
    for bad in ("1" * 5000 + "/x", "1.5/" + "1" * 5000, "3/-" + "1" * 5000):
        with pytest.raises(ValueError):
            parse_fraction(bad)


# -- the arc-set JSON reader against the Fraction reader it replaced ----------------------

LONG = "7" * 5000  # past sys.get_int_max_str_digits(), which int() refuses
STARTS = ["0", "1/3", "-1/3", "7/3", "0.25", "1e-2", "+3/4", " 1/3 ", "007/010", "2/4", "1_000/3000", "١/٣", "²/3",
          "1/0", "0/0", "", "/3", "3/", "1/2/3", "x", "1e5000", 0.5, 1, None, ["1/3"],
          LONG, LONG + "/" + "9" * 5001, "1" * 640, "1" * 641, "1" * 320 + "/" + "3" * 319, "1" * 320 + "/" + "3" * 320]
LENGTHS = ["1", "0", "-1/3", "3/2", "1/1", "5/5", "2/4", "0.25", "1e-2", " 007/010 ", "+1/3", "0/7", "1/0", 0.5,
           LONG + "/" + "3" * 4999, LONG + "/" + "9" * 5001, "1/" + LONG, "1" * 320 + "/" + "3" * 320]


def _outcome(read, data):
    """What read(data) returns, or the type and message of what it raises."""
    try:
        return read(data)
    except Exception as exc:  # noqa: BLE001 - any exception must match the oracle's
        return type(exc), str(exc)


def test_json_reader_matches_fraction_oracle_on_every_input_form():
    cases = [{"arcs": [{"start": "1/7", "length": "1/9"}, {"start": s, "length": n}]} for s in STARTS for n in LENGTHS]
    cases += [[], {}, {"arcs": {}}, {"arcs": [["0", "1/2"]]}, {"arcs": [{"start": "0"}]}, {"arcs": []},
              {"arcs": [{"start": "x", "length": "2"}, {"start": "0", "length": "x"}]},
              {"arcs": [{"start": "0", "length": "2"}, {"start": "x", "length": "1"}]}]
    for data in cases:
        got, want = _outcome(ArcSet.from_json_dict, data), _outcome(arcset_from_json_by_fraction, data)
        assert got == want, data
    for value in STARTS + LENGTHS:
        got, want = _outcome(lambda v: Fraction(*parse_ratio(v)), value), _outcome(parse_fraction, value)
        assert got == want, value


def _number_text(rng: random.Random, q: Fraction, start: bool) -> str:
    """q written in one of the forms the reader accepts, chosen by rng; a start also as q + 2 or q - 3."""
    p, d = q.as_integer_ratio()
    k = rng.randint(1, 3)
    forms = [str(q), f"{p * k}/{d * k}", f"{'-' if p < 0 else ''}00{abs(p)}/0{d}", f" {q}\t",
             f"+{q}" if p >= 0 else str(q)]
    if start:
        forms += [f"{p + 2 * d}/{d}", f"{p - 3 * d}/{d}"]
    if 10**6 % d == 0:  # a decimal and an exponent
        forms += [str(Decimal(p) / d), f"{p * 10**6 // d}e-6"]
    return rng.choice(forms)


def test_json_reader_matches_fraction_oracle_on_seeded_sets():
    rng = random.Random(2803)
    dens = (1, 2, 3, 6, 7, 10, 12, 60, 2**61 - 1, 10**30 + 57)
    for _ in range(400):
        arcs = []
        for _ in range(rng.randint(0, 8)):
            d, e = rng.choice(dens), rng.choice(dens)
            start, length = Fraction(rng.randrange(-d, 2 * d), d), Fraction(rng.randint(1, e), e)
            arcs.append({"start": _number_text(rng, start, True), "length": _number_text(rng, length, False)})
        data = {"arcs": arcs}
        got = ArcSet.from_json_dict(data)
        assert got == arcset_from_json_by_fraction(data), data
        assert ArcSet.from_json(got.to_json()) == got
