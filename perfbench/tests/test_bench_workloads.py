"""Seeded operation lists: reproducible, seed-dependent, and correct on the library."""

import json

import pytest

import workloads as W


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert W.generate(workload, 7) == W.generate(workload, 7)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_changes_operations_not_their_shape(workload):
    a, b = W.generate(workload, 1), W.generate(workload, 2)
    assert a != b
    assert [s.kind for s in a] == [s.kind for s in b]


@pytest.mark.parametrize("workload", ["maps", "scans"])
def test_first_pass_passes_its_checks(workload):
    import circlelab
    import circlelab.cli  # noqa: F401

    env = W.Env(circlelab, W.generate(workload, 3))
    W.bind(env)
    checker = W.Checker(env)
    for spec, call in zip(env.specs, env.calls):
        assert checker.check(spec, call()), spec


def test_checker_rejects_a_wrong_answer():
    import circlelab
    import circlelab.cli  # noqa: F401

    env = W.Env(circlelab, W.generate("scans", 3))
    W.bind(env)
    checker = W.Checker(env)
    spec, call = env.specs[0], env.calls[0]
    rc, text, err = call()
    assert checker.check(spec, (rc, text, err))
    data = json.loads(text)
    data["witnesses"].append(data["n_max"] + 1)
    tampered = json.dumps(data)
    assert not checker.check(spec, (rc, tampered, err))


def test_error_exit_is_a_failure_not_a_wrong_answer():
    import circlelab
    import circlelab.cli  # noqa: F401

    env = W.Env(circlelab, W.generate("scans", 3))
    checker = W.Checker(env)
    with pytest.raises(W.OpFailed):
        checker.check(env.specs[1], (1, "", "circlelab: error: boom\n"))


def test_checker_rejects_a_wrong_measure_of_a_parsed_set():
    import circlelab
    import circlelab.cli  # noqa: F401

    env = W.Env(circlelab, W.generate("maps", 3))
    W.bind(env)
    checker = W.Checker(env)
    i = next(i for i, s in enumerate(env.specs) if s.kind == "measure_set")
    out = env.calls[i]()
    assert checker.check(env.specs[i], out)
    rc, text, err = out[0]
    data = json.loads(text)
    data["rows"][0]["exact"] = "1/3"
    assert not checker.check(env.specs[i], [(rc, json.dumps(data), err)] + out[1:])
