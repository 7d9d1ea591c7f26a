"""The CLI's extension memo: each distinct spec text is parsed and certified
once per process, kept for the 8 most recently used texts, and invisible in
every report."""

import json
import sys
import threading

import pytest

from katoforms import AdaptedData, FunctionField, build_adapted, extension_to_json
from katoforms import cli
from katoforms.cli import JobSpec, run


@pytest.fixture(autouse=True)
def empty_memo():
    cli._extension.cache_clear()
    yield
    cli._extension.cache_clear()


@pytest.fixture
def loads(monkeypatch):
    """The texts extension_from_json is called on, in call order."""
    calls = []
    parse = cli.extension_from_json

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "extension_from_json", counted)
    return calls


def _spec_text(p, names, pairs):
    return extension_to_json(build_adapted(FunctionField.make(p, names), AdaptedData(pairs)))


@pytest.fixture
def specs(tmp_path):
    """Two spec files over F2(x,y) and one over F3(x,y)."""
    paths = {}
    for name, p, pairs in (("a", 2, ((0, 2), (1, 1))), ("b", 2, ((0, 2),)), ("c", 3, ((0, 1),))):
        path = tmp_path / f"{name}.json"
        path.write_text(_spec_text(p, ["x", "y"], pairs))
        paths[name] = str(path)
    return paths


def _jobs(specs):
    return [
        ("validate-ext", {"ext": specs["a"]}),
        ("kf-gens", {"ext": specs["a"], "n": 1, "inst": "y\nx y"}),
        ("restrict", {"form": "x dy + y dx", "ext": specs["b"]}),
        ("vanish-cert", {"ext": specs["a"], "n": 1, "inst": "y", "t": 1, "k": "1,0"}),
        ("check-hyperbolic", {"ext": specs["b"], "s": "y", "t": 1, "k": "1"}),
        ("restrict", {"form": "dx", "ext": specs["c"]}),
        ("vanish-cert", {"ext": specs["c"], "n": 1, "inst": "y", "kind": "linear", "j": 0}),
        ("validate-ext", {"ext": specs["b"]}),
    ]


def _text(command, options):
    return json.dumps(run(JobSpec(command, options)), sort_keys=True)


def test_reports_after_other_jobs_match_a_fresh_memo(specs, loads):
    jobs = _jobs(specs)
    fresh = []
    for job in jobs:
        cli._extension.cache_clear()
        fresh.append(_text(*job))
    assert len(loads) == len(jobs)
    cli._extension.cache_clear()
    del loads[:]
    for _ in range(2):
        assert [_text(*job) for job in jobs] == fresh
    # one parse and certification per distinct text
    assert len(loads) == 3
    assert all(json.loads(text)[0] == 0 for text in fresh)


def test_a_rewritten_file_gives_the_new_extension(tmp_path):
    path = tmp_path / "ext.json"
    first = _spec_text(2, ["x", "y"], ((0, 2),))
    second = _spec_text(2, ["x", "y"], ((1, 1),))
    normalized = []
    for text in (first, second, first):
        path.write_text(text)
        code, report = run(JobSpec("validate-ext", {"ext": str(path)}))
        assert code == 0
        normalized.append(report["result"]["normalized"])
    assert normalized == [json.loads(first), json.loads(second), json.loads(first)]
    code, report = run(JobSpec("restrict", {"form": "dy", "ext": str(path)}))
    path.write_text(second)
    code2, report2 = run(JobSpec("restrict", {"form": "dy", "ext": str(path)}))
    assert report["result"]["vanishes"] is False and report2["result"]["vanishes"] is True


# a spec whose adapted data says x -> u^2 where its image is u^4
MISMATCHED = json.dumps(
    {**json.loads(_spec_text(2, ["x", "y"], ((0, 2), (1, 1)))), "adapted": [[0, 1]]}
)


@pytest.mark.parametrize(
    "text, error",
    [
        ("{not json", "ParseError: invalid JSON"),
        (MISMATCHED, "CertificateFailed: image of x does not match the adapted data"),
        ("[" * 100000 + "]" * 100000, "ParseError: invalid JSON: maximum recursion depth"),
        ('{"format": "katoforms-ext-1", "p": 2}', "ParseError: malformed extension spec"),
    ],
    ids=["not-json", "adapted-mismatch", "nested", "no-vars"],
)
def test_a_malformed_file_is_exit_3_every_time(tmp_path, loads, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for _ in range(3):
        code, report = run(JobSpec("validate-ext", {"ext": str(path)}))
        assert code == 3 and report["error"].startswith(error)
    # a failed load is not kept, so each job tries again
    assert len(loads) == 3 and cli._extension.cache_info().currsize == 0


def test_concurrent_callers_get_the_same_answers(specs):
    jobs = _jobs(specs)
    expected = [_text(*job) for job in jobs]
    cli._extension.cache_clear()
    results = []

    def work(offset):
        # each thread starts at another job, so they race on every text
        order = jobs[offset:] + jobs[:offset]
        answers = [_text(*job) for job in order]
        results.append(answers[len(jobs) - offset:] + answers[:len(jobs) - offset])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


def test_the_memo_keeps_the_8_most_recent_texts(tmp_path, loads):
    # ten distinct specs, named apart by their variables
    paths = []
    for i in range(10):
        path = tmp_path / f"ext{i}.json"
        path.write_text(_spec_text(2, [f"x{i}", "y"], ((0, 1),)))
        paths.append(str(path))
    for path in paths:
        assert run(JobSpec("validate-ext", {"ext": path}))[0] == 0
    info = cli._extension.cache_info()
    assert (info.maxsize, info.currsize) == (8, 8)
    assert len(loads) == 10
    # the two least recently used went; the last eight are still held
    for path in paths[2:]:
        run(JobSpec("validate-ext", {"ext": path}))
    assert len(loads) == 10
    run(JobSpec("validate-ext", {"ext": paths[0]}))
    assert len(loads) == 11 and cli._extension.cache_info().currsize == 8
