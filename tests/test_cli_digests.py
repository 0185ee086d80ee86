"""The SHA-256 digests of CLI output in tests/cli_digests.json, checked in-process or in fresh processes.

Each group of the table is a list of argv lists and the expected digest of
their concatenated stdout.  The test below runs each call through
``circlelab.cli.main``.  Run as a script, as the CI workflow does, this
module runs each call with ``python -m circlelab`` in a fresh process under
``timeout 120`` instead, and exits 1 if a call fails or a digest differs:

    python tests/test_cli_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST_GROUPS = json.loads((ROOT / "tests" / "cli_digests.json").read_text())


@pytest.mark.parametrize("group", list(DIGEST_GROUPS), ids=list(DIGEST_GROUPS))
def test_cli_output_digest(capsys, group):
    from circlelab.cli import main  # here, so that the script imports no circlelab of its own

    out = []
    for argv in DIGEST_GROUPS[group]["calls"]:
        assert main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == DIGEST_GROUPS[group]["sha256"]


def _run_in_fresh_processes() -> int:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    failed = 0
    for group, spec in DIGEST_GROUPS.items():
        digest = hashlib.sha256()
        for argv in spec["calls"]:
            done = subprocess.run(["timeout", "120", sys.executable, "-m", "circlelab", *argv],
                                  stdout=subprocess.PIPE, env=env, cwd=ROOT)
            if done.returncode != 0:
                print(f"{group}: exit {done.returncode} from {' '.join(argv)}")
                failed += 1
                break
            digest.update(done.stdout)
        else:
            expected = spec["sha256"]
            ok = digest.hexdigest() == expected
            print(f"{group}: ok" if ok else f"{group}: output digest {digest.hexdigest()}, expected {expected}")
            failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_in_fresh_processes())
