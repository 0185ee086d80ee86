import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import circlelab
from circlelab import (
    ArcSet,
    ExperimentReport,
    Power,
    ReportRow,
    Verdict,
    arc,
    duffin_schaeffer_classify,
    format_fraction,
)
from circlelab import cli
from circlelab.cli import _emit_report, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gallagher_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "gallagher",
        "--delta",
        "power:1:3",
        "--n-min-schedule",
        "2,5",
        "--n-max",
        "30",
    )
    assert code == 0
    data = json.loads(out)
    assert data["experiment"] == "gallagher"
    assert all(v["pass"] for v in data["verdicts"])
    labels = [r["label"] for r in data["rows"]]
    assert "measure[n_min=2]" in labels and "upper_bound[n_min=5]" in labels


def test_cassels_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "cassels",
        "--delta",
        "power:1:2",
        "--m",
        "2",
        "--n-min",
        "2",
        "--n-max",
        "20",
        "--output",
        "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "kind,label,value,decimal"
    assert any(line.startswith("verdict,base_subset_scaled,pass") for line in out.splitlines())


def test_duffin_schaeffer(capsys):
    code, out, _ = run_cli(capsys, "duffin-schaeffer", "--delta", "power:1:2", "--cap", "32")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["series"] == "divergent"
    assert data["params"]["predicted_class"] == "full"


def test_witnesses(capsys):
    code, out, _ = run_cli(
        capsys, "witnesses", "--x", "89/144", "--delta", "power:1:2", "--n-max", "144"
    )
    assert code == 0
    witnesses = set(json.loads(out)["witnesses"])
    assert {2, 3, 5, 8, 13, 21, 34, 55, 144} <= witnesses


def test_ao_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "ao", "--n", "5", "--radius", "1/100")
    assert code == 0
    assert len(json.loads(out)["arcs"]) == 4
    code, out, _ = run_cli(capsys, "ao", "--n", "5", "--delta", "power:1:2", "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == "start,length"
    assert len(out.strip().splitlines()) == 5


def test_ao_requires_exactly_one_radius_source(capsys):
    code, _, err = run_cli(capsys, "ao", "--n", "5")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "ao", "--n", "5", "--radius", "1/4", "--delta", "power:1:2")
    assert code == 1


def test_measure_of_tail_union(capsys):
    code, out, _ = run_cli(
        capsys, "measure", "--delta", "power:1:2", "--n-min", "2", "--n-max", "20"
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["label"] == "measure"


def test_measure_of_arcset_file(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(ArcSet.from_arcs([arc(0, "1/4")]).to_json())
    code, out, _ = run_cli(capsys, "measure", "--set", str(path))
    assert code == 0
    assert json.loads(out)["rows"][0]["exact"] == "1/4"


def test_measure_usage_errors(capsys):
    code, _, err = run_cli(capsys, "measure")
    assert code == 1
    code, _, err = run_cli(capsys, "measure", "--set", '{"arcs":[]}', "--delta", "power:1:2")
    assert code == 1


def test_duffin_schaeffer_output_beyond_int_str_digit_limit(capsys):
    # the partial sums at cap 8192 have more digits than str(int) may print by default
    code, out, _ = run_cli(capsys, "duffin-schaeffer", "--delta", "power:1:2", "--cap", "8192")
    assert code == 0
    expected = duffin_schaeffer_classify(Power(Fraction(1), 2), 8192).rows[-1].exact
    num, den = json.loads(out)["rows"][-1]["exact"].split("/")
    assert len(num) > sys.get_int_max_str_digits()
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == expected


def test_inputs_beyond_int_str_digit_limit(capsys):
    # what the CLI prints past 4,300 digits it also reads back
    q = 10**5000 + 1
    x, half, eps = f"1/{Decimal(q)}", f"{Decimal(q // 2)}/{Decimal(q)}", f"1/{Decimal(2 * q)}"
    code, out, _ = run_cli(capsys, "witnesses", "--x", x, "--delta", "power:1:2", "--n-max", "3")
    assert code == 0
    assert json.loads(out) == {"x": x, "n_max": 3, "witnesses": [1]}
    arcs = json.dumps({"arcs": [{"start": half, "length": x}]})
    code, out, _ = run_cli(capsys, "density", "--set", arcs, "--x", half, "--eps", eps)
    assert code == 0
    assert out == f"eps,ratio\n{eps},1/2\n"


@pytest.mark.parametrize(
    "argv, names",
    [
        (["measure", "--set", '{"arcs":[{"start":0,"length":"1/4"}]}'], "arcs[0].start"),
        (["measure", "--set", "[1,2]"], "'arcs' list"),
        (["ao", "--n", "5", "--delta", '{"kind":"table"}'], "table delta needs 'values'"),
        (
            ["measure", "--delta", "power:1:2", "--n-min", "1", "--n-max", "5",
             "--pred", "or(" * 1500 + "all" + ",all)" * 1500],
            "more than 64 levels",
        ),
        (["measure", "--set", '{"arcs":' + "[" * 100_000 + "]" * 100_000 + "}"], "nested too deeply"),
        (["ao", "--n", "5", "--delta", '{"kind":' + "[" * 100_000 + "]" * 100_000 + "}"], "nested too deeply"),
        (["ao", "--n", "5", "--delta", "power:1"], "cannot parse delta sequence: 'power:1'"),
        (["ao", "--n", "5", "--delta", "power:1:x"], "cannot parse delta sequence: 'power:1:x'"),
        (["ao", "--n", "5", "--delta", '{"kind":"power","c":"1","a":"x"}'], "'a' must be an integer, got 'x'"),
        (["ao", "--n", "5", "--delta", '{"kind":"power","c":"1","a":"1.5"}'], "'a' must be an integer, got '1.5'"),
        (["ao", "--n", "3", "--radius", ""], "Invalid literal for Fraction: ''"),
        (
            ["measure", "--pred", "ndvd:1000000000000000003", "--delta", "power:1:2", "--n-min", "1", "--n-max", "5"],
            "at most 10**12",
        ),
        (["ergodic-search", "--n", "1", "--x", "0", "--grid", "17"], "more than 65536 unions of 17 grid cells"),
    ],
    ids=[
        "int-start", "list-set", "table-without-values", "deep-predicate",
        "deep-set-json", "deep-delta-json", "power-without-exponent", "power-bad-exponent",
        "json-power-text-exponent", "json-power-fraction-exponent", "empty-radius", "huge-prime",
        "too-many-invariant-unions",
    ],
)
def test_malformed_input_exits_1_with_one_line(capsys, argv, names):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("circlelab: error: ") and err.count("\n") == 1
    assert names in err
    assert "Traceback" not in err


def test_duffin_schaeffer_refuses_a_huge_cap_before_sieving(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit} before refusing the cap")

    monkeypatch.setattr("circlelab.experiments.totient_range", no_sieve)
    code, out, err = run_cli(capsys, "duffin-schaeffer", "--delta", "power:1:2", "--cap", "1000000000")
    assert code == 1 and out == ""
    assert err == "circlelab: error: partial-sum cap must be in [1, 2**22], got 1000000000\n"


def test_ao_refuses_a_huge_order_before_sieving(capsys, monkeypatch):
    def no_factorize(n):
        raise AssertionError(f"factorised {n} before refusing the order")

    monkeypatch.setattr("circlelab.approx.factorize", no_factorize)
    code, out, err = run_cli(capsys, "ao", "--n", "1000000000000", "--radius", "1/4000000000000000")
    assert code == 1 and out == ""
    assert err == "circlelab: error: order must be at most 2**20 for a radius below 1/2, got 1000000000000\n"
    code, out, _ = run_cli(capsys, "ao", "--n", "1000000000000", "--radius", "1/2")
    assert code == 0 and json.loads(out) == ArcSet.full().to_json_dict()


def test_tail_union_commands_refuse_a_huge_index_before_sieving(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit} before refusing")

    monkeypatch.setattr("circlelab.approx.smallest_prime_factors", no_sieve)
    monkeypatch.setattr("circlelab.approx.factorize", no_sieve)
    monkeypatch.setattr("circlelab.experiments.totient_range", no_sieve)
    big = "1000000000000"
    refused = {
        ("measure", "--delta", "power:1:2", "--n-min", big, "--n-max", big):
            "index must be at most 2**20 for a radius below 1/2, got 1000000000000",
        ("cassels", "--delta", "power:1:2", "--m", "2", "--n-min", "2", "--n-max", big):
            "index must be at most 2**20 for a radius below 1/2, got 1000000000000",
        ("gallagher", "--delta", "power:1:2", "--n-min-schedule", big, "--n-max", big):
            "n_max must be at most 2**22, got 1000000000000",
        ("gallagher", "--delta", "power:1:1", "--n-min-schedule", "1", "--n-max", str(2**22 + 1)):
            "n_max must be at most 2**22, got 4194305",
    }
    for argv, message in refused.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"circlelab: error: {message}\n"
    monkeypatch.undo()
    # inside the full prefix of power:1:1 (n <= 2) nothing is written, at any n_max
    code, out, _ = run_cli(capsys, "measure", "--delta", "power:1:1", "--n-min", "1", "--n-max", big)
    assert code == 0 and json.loads(out)["rows"][0]["exact"] == "1"


def test_witnesses_refuses_a_huge_n_max_before_reading_a_radius(capsys, monkeypatch):
    def no_ratios(delta, lo, hi):
        raise AssertionError(f"read the radii {lo}..{hi - 1} before refusing n_max")

    monkeypatch.setattr("circlelab.approx.Power.ratios", no_ratios)
    monkeypatch.setattr("circlelab.approx.Constant.ratios", no_ratios)
    for delta in ("power:1:2", "const:1/2"):
        for n_max in (str(2**22 + 1), "1000000000000"):
            code, out, err = run_cli(capsys, "witnesses", "--x", "1/3", "--delta", delta, "--n-max", n_max)
            assert code == 1 and out == ""
            assert err == f"circlelab: error: n_max must be at most 2**22, got {n_max}\n"
    # 2**22 itself is admitted
    monkeypatch.setattr("circlelab.approx.Power.ratios", lambda delta, lo, hi: iter(()))
    code, out, _ = run_cli(capsys, "witnesses", "--x", "1/3", "--delta", "power:1:2", "--n-max", str(2**22))
    assert code == 0 and json.loads(out) == {"x": "1/3", "n_max": 2**22, "witnesses": []}


# one small valid call per subcommand; each flag value is swapped in turn for each token of BAD_VALUES
VALID_ARGV = [
    ["gallagher", "--delta", "power:1:2", "--n-min-schedule", "2,3", "--n-max", "5"],
    ["cassels", "--delta", "power:1:2", "--m", "2", "--pred", "ndvd:2", "--n-min", "2", "--n-max", "5"],
    ["duffin-schaeffer", "--delta", "power:1:2", "--cap", "8"],
    ["witnesses", "--x", "1/3", "--delta", "power:1:2", "--n-max", "5"],
    ["ao", "--n", "3", "--radius", "1/10"],
    ["ao", "--n", "3", "--delta", "power:1:2"],
    ["measure", "--delta", "power:1:2", "--pred", "all", "--n-min", "2", "--n-max", "5"],
    ["measure", "--set", '{"arcs":[{"start":"3/4","length":"1/2"}]}'],
    ["ergodic-search", "--n", "2", "--x", "0", "--grid", "4"],
    ["density", "--set", '{"arcs":[{"start":"0","length":"1/2"}]}', "--x", "1/4", "--eps", "1/4,1/8"],
]
BAD_VALUES = [
    "", " ", "0", "-1", "1/0", "x", "{}", "[]", "null", "1e999", "power:1", "power::2", "const:",
    "table:,", "or(", "sq:", "1/2,", ",", "nan", "inf", "3/2",
]


@pytest.mark.parametrize("argv", VALID_ARGV, ids=lambda argv: "-".join(argv[:3]))
def test_every_flag_value_swapped_for_a_bad_one_exits_without_a_traceback(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # so no token names a file that --delta or --set would read
    assert main(argv) == 0
    capsys.readouterr()
    for i in range(2, len(argv), 2):
        for value in BAD_VALUES:
            bad = argv[:i] + [value] + argv[i + 1:]
            assert main(bad) in (0, 1, 2), bad
            assert "Traceback" not in capsys.readouterr().err, bad


def test_ergodic_search(capsys):
    code, out, _ = run_cli(capsys, "ergodic-search", "--n", "2", "--x", "0/1", "--grid", "8")
    assert code == 0
    sets = json.loads(out)
    assert sets == [{"arcs": []}, {"arcs": [{"start": "0", "length": "1"}]}]


def test_density_csv_default(capsys):
    code, out, _ = run_cli(
        capsys,
        "density",
        "--set",
        '{"arcs":[{"start":"0","length":"1/2"}]}',
        "--x",
        "1/4",
        "--eps",
        "1/4,1/8,1/16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,ratio"
    assert lines[1:] == ["1/4,1", "1/8,1", "1/16,1"]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "duffin-schaeffer",
        "--delta",
        "power:1:3",
        "--cap",
        "16",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["params"]["series"] == "convergent"


def test_delta_from_file(capsys, tmp_path):
    path = tmp_path / "delta.json"
    path.write_text('{"kind": "power", "c": "1", "a": 2}')
    code, out, _ = run_cli(capsys, "witnesses", "--x", "1/3", "--delta", str(path), "--n-max", "10")
    assert code == 0
    assert 3 in json.loads(out)["witnesses"]


def test_usage_error_exit_code_is_1(capsys):
    assert run_cli(capsys)[0] == 1  # no subcommand
    assert run_cli(capsys, "gallagher")[0] == 1  # missing required flags
    assert run_cli(capsys, "no-such-command")[0] == 1
    code, _, err = run_cli(
        capsys, "witnesses", "--x", "not-a-fraction", "--delta", "power:1:2", "--n-max", "5"
    )
    assert code == 1 and "error" in err
    code, _, _ = run_cli(
        capsys, "cassels", "--delta", "power:1:2", "--m", "0", "--n-min", "2", "--n-max", "5"
    )
    assert code == 1  # m must be positive


def test_failed_verdict_exit_code_is_2(tmp_path):
    rep = ExperimentReport("fabricated")
    rep.rows.append(ReportRow("m", Fraction(1, 2)))
    rep.verdicts.append(Verdict("impossible", False))

    class Args:
        output = "json"
        out = str(tmp_path / "r.json")

    assert _emit_report(rep, Args()) == 2
    rep.verdicts[0] = Verdict("possible", True)
    assert _emit_report(rep, Args()) == 0


def test_module_entry_point():
    env = dict(os.environ)
    src = str(Path(circlelab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "circlelab", "ao", "--n", "3", "--radius", "1/10"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["arcs"]) == 2


# -- exact bytes: every expected string below was worked out by hand -------------

_GALLAGHER = ["gallagher", "--delta", "power:1:3", "--n-min-schedule", "2,5", "--n-max", "5"]
_CASSELS = ["cassels", "--delta", "power:1:2", "--m", "3/2", "--n-min", "2", "--n-max", "3"]
_DUFFIN_SCHAEFFER = ["duffin-schaeffer", "--delta", "power:1:2", "--cap", "4"]
_WITNESSES = ["witnesses", "--x", "1/2", "--delta", "power:1:2", "--n-max", "6"]
_AO = ["ao", "--n", "6", "--radius", "1/5"]
_MEASURE = ["measure", "--set", '{"arcs":[{"start":"3/4","length":"1/2"}]}']
_MEASURE_DELTA = ["measure", "--delta", '{"kind": "power", "c": "2/2", "a": 2}', "--pred", " or(ndvd:2, sq:3)",
                  "--n-min", "2", "--n-max", "4"]
_ERGODIC_SEARCH = ["ergodic-search", "--n", "1", "--x", "1/2", "--grid", "2"]
_DENSITY = ["density", "--set", '{"arcs":[{"start":"0","length":"1/2"}]}', "--x", "1/8",
            "--eps", "1/4,1/8"]

EXACT_OUTPUTS = {
    # power:1:3 over n = 2..5: the order-2 arc [3/8, 5/8] swallows the arcs at
    # 2/5 and 3/5, so measure[n_min=2] = 1/4 + 4/27 + 1/16 + 4/125 = 26603/54000,
    # while its bound counts all four order-5 arcs: 28331/54000
    "gallagher-json": (_GALLAGHER, """\
{
  "experiment": "gallagher",
  "params": {
    "delta": "power:1:3",
    "n_min_schedule": [
      2,
      5
    ],
    "n_max": 5
  },
  "rows": [
    {
      "label": "measure[n_min=2]",
      "exact": "26603/54000",
      "decimal": "0.492648148148"
    },
    {
      "label": "upper_bound[n_min=2]",
      "exact": "28331/54000",
      "decimal": "0.524648148148"
    },
    {
      "label": "measure[n_min=5]",
      "exact": "8/125",
      "decimal": "0.064"
    },
    {
      "label": "upper_bound[n_min=5]",
      "exact": "8/125",
      "decimal": "0.064"
    }
  ],
  "verdicts": [
    {
      "name": "measure_le_bound[n_min=2]",
      "pass": true
    },
    {
      "name": "measure_le_bound[n_min=5]",
      "pass": true
    },
    {
      "name": "measures_nonincreasing",
      "pass": true
    }
  ]
}
"""),
    "gallagher-csv": (_GALLAGHER + ["--output", "csv"], """\
kind,label,value,decimal
param,delta,power:1:3,
param,n_min_schedule,"[2, 5]",
param,n_max,5,
row,measure[n_min=2],26603/54000,0.492648148148
row,upper_bound[n_min=2],28331/54000,0.524648148148
row,measure[n_min=5],8/125,0.064
row,upper_bound[n_min=5],8/125,0.064
verdict,measure_le_bound[n_min=2],pass,
verdict,measure_le_bound[n_min=5],pass,
verdict,measures_nonincreasing,pass,
"""),
    # radii 1/n^2: [1/4, 3/4] ∪ [2/9, 4/9] ∪ [5/9, 7/9] = [2/9, 7/9];
    # radii 3/(2n^2): [1/8, 7/8] holds both order-3 arcs
    "cassels-json": (_CASSELS, """\
{
  "experiment": "cassels",
  "params": {
    "delta": "power:1:2",
    "m": "3/2",
    "pred": "all",
    "n_min": 2,
    "n_max": 3
  },
  "rows": [
    {
      "label": "measure[m=1]",
      "exact": "5/9",
      "decimal": "0.555555555556"
    },
    {
      "label": "measure[m=3/2]",
      "exact": "3/4",
      "decimal": "0.75"
    },
    {
      "label": "symm_diff_measure",
      "exact": "7/36",
      "decimal": "0.194444444444"
    }
  ],
  "verdicts": [
    {
      "name": "base_subset_scaled",
      "pass": true
    }
  ]
}
"""),
    "cassels-csv": (_CASSELS + ["--output", "csv"], """\
kind,label,value,decimal
param,delta,power:1:2,
param,m,3/2,
param,pred,all,
param,n_min,2,
param,n_max,3,
row,measure[m=1],5/9,0.555555555556
row,measure[m=3/2],3/4,0.75
row,symm_diff_measure,7/36,0.194444444444
verdict,base_subset_scaled,pass,
"""),
    # 1 + 1/4 = 5/4 at n = 2, then + 2/9 + 2/16 = 115/72 at n = 4
    "duffin-schaeffer-json": (_DUFFIN_SCHAEFFER, """\
{
  "experiment": "duffin-schaeffer",
  "params": {
    "delta": "power:1:2",
    "partial_sum_cap": 4,
    "series": "divergent",
    "predicted_class": "full"
  },
  "rows": [
    {
      "label": "partial_sum[n_max=2]",
      "exact": "5/4",
      "decimal": "1.25"
    },
    {
      "label": "partial_sum[n_max=4]",
      "exact": "115/72",
      "decimal": "1.59722222222"
    }
  ],
  "verdicts": [
    {
      "name": "partial_sums_nondecreasing",
      "pass": true
    }
  ]
}
"""),
    "duffin-schaeffer-csv": (_DUFFIN_SCHAEFFER + ["--output", "csv"], """\
kind,label,value,decimal
param,delta,power:1:2,
param,partial_sum_cap,4,
param,series,divergent,
param,predicted_class,full,
row,partial_sum[n_max=2],5/4,1.25
row,partial_sum[n_max=4],115/72,1.59722222222
verdict,partial_sums_nondecreasing,pass,
"""),
    # 1/2 is 1/2 from 0 (delta_1 = 1) and on the order-2 point; for n = 3..6
    # the distances 1/6, 1/4, 1/10, 1/3 all exceed 1/n^2
    "witnesses-json": (_WITNESSES, """\
{
  "x": "1/2",
  "n_max": 6,
  "witnesses": [
    1,
    2
  ]
}
"""),
    "witnesses-csv": (_WITNESSES + ["--output", "csv"], "n\n1\n2\n"),
    # 1/6 ± 1/5 and 5/6 ± 1/5 overlap across 0: one arc from 19/30 of length 22/30
    "ao-json": (_AO, """\
{
  "arcs": [
    {
      "start": "19/30",
      "length": "11/15"
    }
  ]
}
"""),
    "ao-csv": (_AO + ["--output", "csv"], "start,length\n19/30,11/15\n"),
    "measure-json": (_MEASURE, """\
{
  "experiment": "measure",
  "params": {
    "set": "explicit"
  },
  "rows": [
    {
      "label": "measure",
      "exact": "1/2",
      "decimal": "0.5"
    }
  ],
  "verdicts": []
}
"""),
    "measure-csv": (_MEASURE + ["--output", "csv"], """\
kind,label,value,decimal
param,set,explicit,
row,measure,1/2,0.5
"""),
    # y -> y + 1/2 swaps the two cells, so only the empty set and the circle remain
    "ergodic-search-json": (_ERGODIC_SEARCH, """\
[
  {
    "arcs": []
  },
  {
    "arcs": [
      {
        "start": "0",
        "length": "1"
      }
    ]
  }
]
"""),
    "ergodic-search-csv": (_ERGODIC_SEARCH + ["--output", "csv"],
                           "set_index,start,length\n0,,\n1,0,1\n"),
    # the ball [-1/8, 3/8] meets [0, 1/2] in 3/8 of its 1/2; [0, 1/4] lies inside
    "density-json": (_DENSITY + ["--output", "json"], """\
{
  "rows": [
    {
      "eps": "1/4",
      "ratio": "3/4"
    },
    {
      "eps": "1/8",
      "ratio": "1"
    }
  ]
}
"""),
    "density-csv": (_DENSITY, "eps,ratio\n1/4,3/4\n1/8,1\n"),
    # params echo the parsed values, not the text given: 2/4 is 1/2
    "witnesses-unreduced-x": (["witnesses", "--x", "2/4", "--delta", "power:1:2", "--n-max", "6"], """\
{
  "x": "1/2",
  "n_max": 6,
  "witnesses": [
    1,
    2
  ]
}
"""),
    # of n = 2..4 only 3 is odd or divisible by 9: [2/9, 4/9) and [5/9, 7/9)
    "measure-delta-json": (_MEASURE_DELTA, """\
{
  "experiment": "measure",
  "params": {
    "delta": "power:1:2",
    "pred": "or(ndvd:2,sq:3)",
    "n_min": 2,
    "n_max": 4
  },
  "rows": [
    {
      "label": "measure",
      "exact": "4/9",
      "decimal": "0.444444444444"
    }
  ],
  "verdicts": []
}
"""),
    "measure-delta-csv": (_MEASURE_DELTA + ["--output", "csv"], """\
kind,label,value,decimal
param,delta,power:1:2,
param,pred,"or(ndvd:2,sq:3)",
param,n_min,2,
param,n_max,4,
row,measure,4/9,0.444444444444
"""),
}


@pytest.mark.parametrize("case", sorted(EXACT_OUTPUTS))
def test_exact_bytes(capsys, case):
    argv, expected = EXACT_OUTPUTS[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["ao", "--n", "5", "--radius", "0"], "start,length\n"),
        (["witnesses", "--x", "1/2", "--delta", "const:0", "--n-max", "3"], "n\n"),
    ],
    ids=["ao", "witnesses"],
)
def test_empty_csv_is_the_header_alone(capsys, argv, expected):
    assert run_cli(capsys, *argv, "--output", "csv") == (0, expected, "")


def test_measure_echoes_a_delta_file_as_its_sequence(capsys, tmp_path):
    path = tmp_path / "delta.json"
    path.write_text('{"kind": "power", "c": "1", "a": 2}')
    code, out, _ = run_cli(capsys, "measure", "--delta", str(path), "--n-min", "2", "--n-max", "3")
    assert code == 0
    assert json.loads(out)["params"]["delta"] == "power:1:2"


@pytest.mark.parametrize("case", sorted(EXACT_OUTPUTS))
def test_out_file_holds_what_stdout_prints(capsys, tmp_path, case):
    argv, _ = EXACT_OUTPUTS[case]
    _, printed, _ = run_cli(capsys, *argv)
    target = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == printed.encode("utf-8")


def test_one_parser_serves_every_call_as_fresh_ones_do(capsys, monkeypatch):
    calls = [
        ["duffin-schaeffer", "--cap", "x"],  # a usage error
        ["--help"],
        _DUFFIN_SCHAEFFER,
        _WITNESSES + ["--output", "csv"],
        ["witnesses", "--help"],
        [],
        _GALLAGHER,
    ]

    def run_all(fresh: bool) -> list:
        results = []
        for argv in calls:
            if fresh:
                cli._shared_parser.cache_clear()
            results.append(run_cli(capsys, *argv))
        return results

    expected = run_all(fresh=True)
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._shared_parser.cache_clear()
    assert run_all(fresh=False) == expected
    assert len(built) == 1
    assert [code for code, _, _ in expected] == [1, 0, 0, 0, 0, 1, 0]


# -- fuzzing the arc-set and radius inputs ------------------------------------------------

def _branch(strategy):
    """strategy as one branch of a one_of, which would otherwise take each of its own branches as one."""
    return st.deferred(lambda: strategy)


_LITERALS = st.sampled_from([
    "0", "1", "1/2", "2/4", "3/6", "1/3", "-1/3", "3/2", "5/5", "0.25", "1e-3", "2e0", "1e4300", "1e-4300",
    "1e4301", "1e30000000", "-2.5E+1_000_000", "1/0", "", " ", "x", "nan", "inf", "1/2/3", "0x10",
])
_RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=12).map(format_fraction)
# p/q with p up to 2q, reduced or not: mostly valid starts and lengths, some lengths above 1
_UNREDUCED = st.tuples(st.integers(0, 24), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}")
_LITERAL = _branch(st.one_of(_LITERALS, _RATIONALS, _UNREDUCED, _UNREDUCED))
# what a JSON value may be where a rational string belongs: the string, or anything else
_JSON_VALUE = _branch(st.one_of(_LITERAL, st.integers(-3, 3), st.floats(allow_nan=False), st.none(),
                                st.booleans(), st.lists(_LITERAL, max_size=2),
                                st.dictionaries(_LITERAL, _LITERAL, max_size=2)))
_ARC = st.one_of(
    st.fixed_dictionaries({"start": _UNREDUCED, "length": _UNREDUCED}),
    st.fixed_dictionaries({"start": _LITERAL, "length": _LITERAL}),
    st.fixed_dictionaries({"start": _JSON_VALUE, "length": _JSON_VALUE}),
    st.fixed_dictionaries({"start": _LITERAL}),
    _JSON_VALUE,
)
_GOOD_ARC = st.fixed_dictionaries({"start": _UNREDUCED, "length": st.sampled_from(["1/12", "1/6", "2/8", "1/2", "1"])})
_ARC_SET = st.one_of(
    # touching, seam-crossing and duplicate arcs come from repeats of the listed literals
    st.lists(_GOOD_ARC, max_size=6).map(lambda arcs: {"arcs": arcs + arcs[:1]}),
    st.lists(_ARC, max_size=6).map(lambda arcs: {"arcs": arcs + arcs[:1]}),
    st.fixed_dictionaries({"arcs": _JSON_VALUE}),
    st.lists(_ARC, max_size=3).map(lambda arcs: {"arcs": [arcs]}),
    st.lists(_ARC, max_size=3),
    _JSON_VALUE,
).map(json.dumps)
_PRED_LEAF = st.sampled_from(["all", "sq:2", "exact:3", "ndvd:5", "sq:0", "sq:-1", "sq:", "dvd:3", "wibble:2",
                              "or(", "", "sq:1e3"])
_PRED = st.recursive(_PRED_LEAF, lambda inner: st.tuples(inner, inner).map(lambda ab: f"or({ab[0]},{ab[1]})"),
                     max_leaves=8)
_DELTA = st.one_of(
    st.tuples(_UNREDUCED, st.integers(0, 3)).map(lambda ca: f"power:{ca[0]}:{ca[1]}"),
    st.tuples(_LITERAL, st.integers(-1, 4)).map(lambda ca: f"power:{ca[0]}:{ca[1]}"),
    _LITERAL.map(lambda c: f"const:{c}"),
    st.lists(_LITERAL, max_size=5).map(lambda vs: "table:" + ",".join(vs)),
    st.sampled_from(["power:1", "power::2", "const:", "table:,", '{"kind":"power","c":"1e99999999","a":2}']),
)
# decreasing radii 1/k, as density needs
_EPS = st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(
    lambda ks: ",".join(f"1/{k}" for k in sorted(ks)))
_FUZZED_ARGV = st.one_of(
    st.tuples(_ARC_SET).map(lambda t: ["measure", f"--set={t[0]}"]),
    st.tuples(_ARC_SET, _UNREDUCED, _EPS).map(
        lambda t: ["density", f"--set={t[0]}", f"--x={t[1]}", f"--eps={t[2]}", "--output=json"]),
    st.tuples(_ARC_SET, _LITERAL, st.lists(_LITERAL, min_size=1, max_size=3)).map(
        lambda t: ["density", f"--set={t[0]}", f"--x={t[1]}", "--eps=" + ",".join(t[2])]),
    st.tuples(st.integers(-2, 60), _LITERAL).map(lambda t: ["ao", f"--n={t[0]}", f"--radius={t[1]}"]),
    st.tuples(st.integers(-2, 60), _DELTA).map(lambda t: ["ao", f"--n={t[0]}", f"--delta={t[1]}"]),
    st.tuples(_DELTA, _PRED, st.integers(-2, 60), st.integers(-2, 60)).map(
        lambda t: ["measure", f"--delta={t[0]}", f"--pred={t[1]}", f"--n-min={t[2]}", f"--n-max={t[3]}"]),
)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_FUZZED_ARGV)
def test_fuzzed_arc_sets_radii_and_predicates_exit_cleanly(tmp_path_factory, argv):
    """Composed arc-set JSON, rational literals, radii and nested predicates: exit 0, 1 or 2, never a
    traceback, and on exit 1 one line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.getbasetemp())  # so no value names a file that --delta or --set would read
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in text, (argv, text)
    if code == 1:
        assert text.startswith("circlelab: error: ") and text.count("\n") == 1, (argv, text)
        assert out.getvalue() == ""
    else:
        assert text == "" and out.getvalue()
