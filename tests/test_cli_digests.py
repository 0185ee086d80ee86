"""The SHA-256 digests of the CLI output that the CI workflow checks, run in-process.

Each group below copies one digest step of .github/workflows/tests.yml: its
argv, in order, and its expected digest of the concatenated stdout.  The
workflow runs the same calls through `python -m circlelab` in a fresh
process under a timeout, which this module does not cover, so a change to
either place must be made in both.
"""

import hashlib

import pytest

from circlelab.cli import main

TABLE = "table:1/2,0,-1/3,1/5,1/7,3/4,1/11,0,1/17,1/19,1/23,1/29"

DIGEST_GROUPS = {
    "duffin-schaeffer-2^16": (
        [["duffin-schaeffer", "--delta", "power:1:2", "--cap", "65536", "--output", "csv"]],
        "69165014580e827ab912dd98e71d018a48460b4b92da842676990e177d9c9e4a",
    ),
    "gallagher-n_max-2000": (
        [["gallagher", "--delta", "power:1:3", "--n-min-schedule", "2,5,10,20,50,100", "--n-max", "2000"]],
        "5c70fde96018d7ca6b2dc3b2616fe003724268f8998af2819250e64b70205f3f",
    ),
    "full-circle-terms": (
        [
            ["gallagher", "--delta", "power:2:2", "--n-min-schedule", "1,2,3,10,100", "--n-max", "1500"],
            ["cassels", "--delta", "power:1:2", "--m", "2", "--n-min", "2", "--n-max", "600"],
        ],
        "c215b3e5978c809ec59dadd2e367e542d551c3971cf97d4362b256db0862b798",
    ),
    "constant-and-table-radii": (
        [
            ["gallagher", "--delta", "const:1/1000", "--n-min-schedule", "2,10,100", "--n-max", "400"],
            ["gallagher", "--delta", TABLE, "--n-min-schedule", "1,3,6,7,9", "--n-max", "40"],
            ["measure", "--delta", TABLE, "--pred", "ndvd:2", "--n-min", "2", "--n-max", "40", "--output", "csv"],
            ["ao", "--n", "360", "--delta", "power:1:2", "--output", "csv"],
        ],
        "64c8fe6fa654884a12844037acf81df2aebbf869c2cc0e950ccb082717d6d5b1",
    ),
    "half-circle-edge-cases": (
        [
            ["cassels", "--delta", "power:2/3:3", "--m", "1/2", "--pred", "or(sq:2,ndvd:3)", "--n-min", "3",
             "--n-max", "400"],
            ["measure", "--delta", "power:1/6:2", "--pred", "exact:2", "--n-min", "5", "--n-max", "600",
             "--output", "csv"],
            ["gallagher", "--delta", "table:1/3,1/5,1/5,1/4,1/7,1/9,1/9,1/15,1/13", "--n-min-schedule",
             "1,2,3,4,5,8", "--n-max", "9", "--output", "csv"],
            ["measure", "--delta", "const:3/10", "--n-min", "1", "--n-max", "30"],
        ],
        "2ba1eff97fad37da09b1b438d742f4b3588f483742563f2544bf07af6a16b499",
    ),
    "invariant-grid-unions": (
        [
            ["ergodic-search", "--n", "1", "--x", "0", "--grid", "14"],
            ["ergodic-search", "--n", "1", "--x", "1/3", "--grid", "18", "--output", "csv"],
            ["ergodic-search", "--n", "3", "--x", "1/2", "--grid", "20"],
        ],
        "ae36f5388d5637e5674db59b2cb5fd1b4422cf5f26d06e07150673b05e85cf80",
    ),
}


@pytest.mark.parametrize("calls, expected", DIGEST_GROUPS.values(), ids=DIGEST_GROUPS.keys())
def test_cli_output_digest(capsys, calls, expected):
    out = []
    for argv in calls:
        assert main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == expected
