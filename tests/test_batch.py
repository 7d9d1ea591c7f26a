"""`katoforms batch`: many job documents in one process, each line answered
as its lone `--job` run answers it."""

import io
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from katoforms import (
    AdaptedData,
    FunctionField,
    InsepCert,
    PfisterSymbol,
    build_adapted,
    build_embedding,
    extension_to_json,
    oracle,
    sexpr,
)
from katoforms import cli
from katoforms.witt import pfister_quad

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The argv of each command in the README's command-line examples, but
    batch itself."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command-line usage.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.splitlines():
        if line.startswith("katoforms "):
            argv = shlex.split(line)[1:]
            if argv[0] != "batch":
                commands.append(argv)
    return commands


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A directory holding every file the README commands name."""
    f2xy = FunctionField.make(2, ["x", "y"])
    x, y = f2xy.var(0), f2xy.var(1)
    source = FunctionField.make(2, ["X", "Y", "Z"])
    target = FunctionField.make(2, ["X", "w", "u"])
    X, Y, Z = (source.var(i) for i in range(3))
    Xe, w, u = (target.var(i) for i in range(3))
    sect4 = build_embedding(
        source,
        target,
        (Xe, w * w + Xe * u * u, u ** 4),
        (InsepCert("X", 0, X), InsepCert("w", 2, X * X * Z + Y * Y), InsepCert("u", 2, Z)),
    )
    (tmp_path / "sect4.json").write_text(extension_to_json(sect4))
    (tmp_path / "ext.json").write_text(
        extension_to_json(build_adapted(f2xy, AdaptedData(((0, 2), (1, 1)))))
    )
    (tmp_path / "forms.txt").write_text("y\nx y\n")
    (tmp_path / "q.sexp").write_text(sexpr.print_quadform(pfister_quad(PfisterSymbol((y,), x))))
    monkeypatch.chdir(tmp_path)
    code, report = cli.run(cli.JobSpec("vanish-cert", {
        "ext": "ext.json", "n": "1", "inst": "y", "kind": "power", "t": "1", "k": "1,0"}))
    assert code == 0
    (tmp_path / "lhs.sexp").write_text(report["result"]["restricted"])
    (tmp_path / "cert.sexp").write_text(report["result"]["certificate"])
    return tmp_path


def _document(argv):
    """The --job document of a command line, with the options main() takes
    from it."""
    ns = cli._build_parser().parse_args(argv)
    options = {
        k: v for k, v in vars(ns).items()
        if k not in ("command", "out", "job") and v is not None and v is not False
    }
    return json.dumps({"command": ns.command, "options": options})


def _empty_memos():
    oracle._spaces.cache_clear()
    cli._extension.cache_clear()


def _lone_line(tmp_path, capsys, document):
    """The batch line that the document's lone --job run in a fresh process
    stands for: its exit code and its report."""
    _empty_memos()
    path = tmp_path / "lone.json"
    path.write_text(document)
    code = cli.main(["--job", str(path)])
    report = json.loads(capsys.readouterr().out)
    return json.dumps({"code": code, "report": report}, sort_keys=True)


def _batch(tmp_path, capsys, documents):
    """Exit code and output lines of one batch run over the documents."""
    path = tmp_path / "jobs.jsonl"
    path.write_text("".join(doc + "\n" for doc in documents))
    code = cli.main(["batch", "--jobs", str(path)])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("order", ["readme", "shuffled"])
def test_each_line_is_its_lone_job_run(readme_dir, capsys, order):
    documents = [_document(argv) for argv in _readme_commands()]
    assert len(documents) == 13
    if order == "shuffled":
        random.Random(20261020).shuffle(documents)
    _empty_memos()
    code, lines = _batch(readme_dir, capsys, documents)
    assert code == 0 and len(lines) == len(documents)
    for document, line in zip(documents, lines):
        assert line == _lone_line(readme_dir, capsys, document)
        assert json.loads(line)["code"] != 3, line


MALFORMED = [
    "{not json",
    json.dumps({"command": "no-such-command", "options": {}}),
    json.dumps({"command": "classify", "options": {"form": 5, "field": "F2(x)"}}),
    "[" * 100000 + "]" * 100000,
    json.dumps({"command": "classify", "options": {"form": "[" * 100000, "field": "F2(x)"}}),
]


def test_malformed_lines_are_code_3_and_the_batch_goes_on(tmp_path, capsys):
    good = json.dumps({"command": "cartier", "options": {"form": "x dx", "field": "F2(x)"}})
    documents = [doc for bad in MALFORMED for doc in (bad, good)]
    code, lines = _batch(tmp_path, capsys, documents)
    assert code == 0 and len(lines) == len(documents)
    for document, line in zip(documents, lines):
        assert json.loads(line)["code"] == (0 if document == good else 3)
        assert line == _lone_line(tmp_path, capsys, document)


def test_blank_lines_are_skipped_and_out_takes_the_lines(tmp_path, capsys):
    good = json.dumps({"command": "cartier", "options": {"form": "x dx", "field": "F2(x)"}})
    path = tmp_path / "jobs.jsonl"
    path.write_text(f"\n{good}\n   \n{good}")
    out = tmp_path / "lines.jsonl"
    assert cli.main(["batch", "--jobs", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == (_lone_line(tmp_path, capsys, good) + "\n") * 2


def test_dash_reads_standard_input(tmp_path, capsys, monkeypatch):
    good = json.dumps({"command": "kato-map", "options": {"field": "F2(x,y)", "slots": "x"}})
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{good}\n{{not json\n"))
    assert cli.main(["batch", "--jobs", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["code"] for line in lines] == [0, 3]
    assert lines[0] == _lone_line(tmp_path, capsys, good)


@pytest.mark.parametrize("target", ["missing", "directory", "not-utf8"])
def test_unreadable_jobs_file_is_exit_3(tmp_path, capsys, target):
    path = {"missing": tmp_path / "missing.jsonl", "directory": tmp_path}.get(
        target, tmp_path / "latin1.jsonl"
    )
    if target == "not-utf8":
        path.write_bytes(b'{"command": "selftest", "options": {"sections": "\xe9"}}\n')
    assert cli.main(["batch", "--jobs", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["error"].startswith("cannot read --jobs")


def test_batch_is_no_job_command(tmp_path, capsys):
    # a job document cannot start a batch of its own
    document = json.dumps({"command": "batch", "options": {"jobs": "-"}})
    code, lines = _batch(tmp_path, capsys, [document])
    assert code == 0
    assert json.loads(lines[0])["report"]["error"] == "unknown command 'batch'"
