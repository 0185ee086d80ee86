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
from helpers import rand_grid_arcs


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
