"""Command-line front-end: exit codes, reports, determinism."""

import hashlib
import json
import sys

import pytest

from katoforms import (
    AdaptedData,
    FunctionField,
    InsepCert,
    NotClosed,
    build_adapted,
    build_embedding,
    extension_to_json,
    forms,
    oracle,
    witt,
)
from katoforms.cli import DEFAULT_SEED, JobSpec, main, run


@pytest.fixture
def ext_file(tmp_path, f2xy):
    ext = build_adapted(f2xy, AdaptedData(((0, 2), (1, 1))))
    path = tmp_path / "ext.json"
    path.write_text(extension_to_json(ext))
    return str(path)


@pytest.fixture
def sect4_file(tmp_path):
    source = FunctionField.make(2, ["X", "Y", "Z"])
    target = FunctionField.make(2, ["X", "w", "u"])
    X, Y, Z = (source.var(i) for i in range(3))
    Xe, w, u = (target.var(i) for i in range(3))
    ext = build_embedding(
        source,
        target,
        (Xe, w * w + Xe * u * u, u ** 4),
        (
            InsepCert("X", 0, X),
            InsepCert("w", 2, X * X * Z + Y * Y),
            InsepCert("u", 2, Z),
        ),
    )
    path = tmp_path / "sect4.json"
    path.write_text(extension_to_json(ext))
    return str(path)


def _run(command, **options):
    return run(JobSpec(command=command, options=options, seed=DEFAULT_SEED))


def test_classify_example():
    code, report = _run("classify", form="x dx", field="F2(x)")
    result = report["result"]
    assert result["closed"] is True
    assert result["exact"] is False
    assert result["nu"] is False
    assert result["class_witness"] == "found"
    assert code == 0


def test_classify_inconclusive():
    code, report = _run(
        "classify", form="y dx / x", field="F2(x,y)", deg=6, dens="1,x"
    )
    assert report["result"]["class_witness"] == "absent-within-bounds"
    assert code == 2


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name under every name that binds it in katoforms."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "katoforms" or mod_name.startswith("katoforms."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "form, classes, cartiers, digest",
    [
        ("y dx + x dy", (True, True, False), 1,
         "e044de2a6473f463b5bcdf0c71cf926553ec516996fd879afd83736ed1906eca"),
        ("dx/x", (True, False, True), 1,
         "4b090c59855cbb5cddc920dcf9c546333bd3edec4a3295aed14ecbef412e0836"),
        ("x dx", (True, False, False), 1,
         "f2f083f6b8afcb832ba5e8956f3daa2eb020512e7569b61e36182f2882dbee80"),
        ("x dy", (False, False, False), 0,
         "7e35bb0a5c2930bc3497c3280a5e15b34b6a432b6de2aae8804c29089c8406a5"),
    ],
    ids=["exact", "nu", "closed-only", "not-closed"],
)
def test_classify_takes_one_d_and_one_cartier(monkeypatch, form, classes, cartiers, digest):
    # closed, exact and nu come from one d(omega) and one Cartier image of a
    # closed omega; a found witness adds the checker's d(eta)
    d_calls = _count_calls(monkeypatch, forms, "d")
    c_calls = _count_calls(monkeypatch, forms, "cartier_raw")
    _, report = _run("classify", form=form, field="F2(x,y)", deg=3, dens="1,x")
    result = report["result"]
    assert (result["closed"], result["exact"], result["nu"]) == classes
    found = result["class_witness"] == "found"
    assert (len(d_calls), len(c_calls)) == (1 + found, cartiers)
    assert _digest(report) == digest


@pytest.fixture
def ext_x2_file(tmp_path, f2xy):
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    path = tmp_path / "ext_x2.json"
    path.write_text(extension_to_json(ext))
    return str(path)


@pytest.mark.parametrize(
    "level, digest",
    [
        ({"j": 0}, "1a940a9d2c2a2b5943d65e29007a54f3546a2c9a9479106a417a16fdd4358518"),
        ({"t": 1, "k": "1"},
         "c27483a3943975c11a80143742c38347822cedd44683883d25550f92e7ae38af"),
    ],
    ids=["linear", "power"],
)
def test_check_hyperbolic_builds_one_generator(monkeypatch, ext_x2_file, level, digest):
    # x:2 has three levels; only the requested one gets its generator
    calls = _count_calls(monkeypatch, witt, "quad_kernel_generator")
    code, report = _run("check-hyperbolic", ext=ext_x2_file, s="y", **level)
    assert code == 0 and len(calls) == 1
    assert _digest(report["result"]) == digest


@pytest.mark.parametrize(
    "command, options",
    [
        ("kernel-test", {"form": "dx^dy", "field": "F2(x,y)"}),
        ("witt-gens", {"field": "F2(x,y)", "s": "y"}),
        ("restrict", {"form": "dx", "ext": None}),
    ],
    ids=["kernel-test", "witt-gens", "restrict"],
)
@pytest.mark.parametrize(
    "data, error",
    [
        ("q:2", "KatoformsError: --data 'q:2': 'q' is not a variable of F2(x,y)"),
        ("x", "KatoformsError: --data 'x' needs :m, an integer exponent"),
        ("x:2, y:two", "KatoformsError: --data 'y:two' needs :m, an integer exponent"),
    ],
    ids=["unknown-variable", "missing-exponent", "bad-exponent"],
)
def test_data_errors_name_their_fault(ext_file, command, options, data, error):
    if "ext" in options:
        options = {**options, "ext": ext_file}
    code, report = _run(command, data=data, **options)
    assert (code, report["error"]) == (3, error)


def test_check_hyperbolic_input_errors(tmp_path, ext_x2_file, f3xy):
    ext3 = tmp_path / "ext_f3.json"
    ext3.write_text(extension_to_json(build_adapted(f3xy, AdaptedData(((0, 1),)))))
    for ext, options, error in (
        (ext_x2_file, {"t": 0, "k": "2"},
         "BadExponent: level 0 needs a unit exponent vector, got (2,)"),
        (ext_x2_file, {"t": 1},
         "KatoformsError: --t needs --k, the comma-separated exponent vector"),
        (str(ext3), {"j": 0},
         "ValueError: quadratic Witt kernel generators live in characteristic 2"),
    ):
        code, report = _run("check-hyperbolic", ext=ext, s="y", **options)
        assert (code, report["error"]) == (3, error)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-solve", "--form", "x dx", "--field", "F2(x)", "--deg", "abc"],
        ["oracle-solve", "--form", "x dx"],
        ["selftest", "--bogus"],
        ["no-such-command"],
    ],
    ids=["deg-abc", "missing-field", "unknown-option", "unknown-command"],
)
def test_command_line_errors_are_exit_3(capsys, argv):
    # exit 2 means "inconclusive within bounds", never a malformed command line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error" in json.loads(capsys.readouterr().out)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["oracle-solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_malformed_input_is_exit_3():
    code, report = _run("classify", form="((", field="F2(x)")
    assert code == 3
    assert "error" in report


def test_negative_degree_bound_is_exit_3(capsys):
    # an empty candidate set is no bound to report "absent" against
    code, report = _run("classify", form="x dx", field="F2(x)", deg=-1)
    assert code == 3
    assert "negative" in report["error"]
    assert main(["oracle-solve", "--form", "x dx", "--field", "F2(x)", "--deg", "-1"]) == 3
    assert "error" in json.loads(capsys.readouterr().out)


def test_unknown_command():
    code, report = run(JobSpec(command="nope", options={}))
    assert code == 3


def test_cartier_command():
    code, report = _run("cartier", form="x dx", field="F2(x)")
    assert code == 0
    assert "(idx 1)" in report["result"]["cartier"]
    # non-closed forms are rejected unless --raw
    code, report = _run("cartier", form="y dx", field="F2(x,y)")
    assert code == 3
    code, report = _run("cartier", form="y dx", field="F2(x,y)", raw=True)
    assert code == 0


def test_restrict_degree_eight_example(sect4_file):
    code, report = _run("restrict", form="dX^dY", ext=sect4_file, data="Z:2")
    assert code == 0
    result = report["result"]
    assert result["vanishes"] is True
    assert result["syntactic_kernel_member"] is False


@pytest.mark.parametrize("form, member", [("dx", True), ("y dx", True), ("dy", False)])
def test_restrict_reads_the_data_of_an_adapted_extension(ext_x2_file, form, member):
    # without --data the syntactic test takes the extension's own data
    code, report = _run("restrict", form=form, ext=ext_x2_file)
    assert code == 0 and report["result"]["syntactic_kernel_member"] is member
    assert report["result"]["vanishes"] is member
    _, given = _run("restrict", form=form, ext=ext_x2_file, data="x:2")
    assert given["result"] == report["result"]


def test_kernel_test_exit_codes():
    code, _ = _run(
        "kernel-test", form="dx^dy", field="F2(x,y,z)", data="x:2"
    )
    assert code == 0
    code, _ = _run(
        "kernel-test", form="dy^dz", field="F2(x,y,z)", data="x:2"
    )
    assert code == 1


def test_generator_enumeration_and_vanish(ext_file):
    # 2 linear slots + 2 admissible power patterns, times 2 instantiating forms
    code, report = _run("kf-gens", ext=ext_file, n=1, inst="y\nx y")
    assert code == 0
    assert report["result"]["count"] == 8
    code, report = _run(
        "vanish-cert", ext=ext_file, n=1, inst="y", kind="power", t=1, k="1,0"
    )
    assert code == 0
    cert = report["result"]["certificate"]
    lhs = report["result"]["restricted"]
    code2, report2 = _run("verify-cert", lhs=lhs, rhs="(form 1)", cert=cert)
    assert code2 == 0 and report2["result"]["verified"] is True
    # tampered claim is refuted (target variables are u, v here)
    code3, report3 = _run("verify-cert", lhs="u dv", rhs="(form 1)", cert=cert)
    assert code3 == 1 and report3["result"]["verified"] is False


def test_vanish_cert_reads_the_level_of_its_kind(ext_file):
    # --kind linear reads --j and --kind power reads --t/--k; level (0, e_j) is
    # the linear slot, so it is no power pattern
    code, report = _run("vanish-cert", ext=ext_file, n=1, inst="y", kind="linear", j=1)
    assert code == 0 and report["result"]["verified"] is True
    code, report = _run(
        "vanish-cert", ext=ext_file, n=1, inst="y", kind="power", t=0, k="0,1"
    )
    assert code == 3 and "error" in report


@pytest.mark.parametrize(
    "command, options, flag",
    [
        ("vanish-cert", {"kind": "linear", "j": 5}, "--j"),
        ("vanish-cert", {"kind": "linear", "j": -1}, "--j"),
        ("vanish-cert", {"kind": "linear"}, "--j"),
        ("vanish-cert", {"j": 1}, "--kind linear"),
        ("check-hyperbolic", {"j": -1}, "--j"),
        ("check-hyperbolic", {"t": 1}, "--k"),
        ("check-hyperbolic", {"t": 0, "k": "1"}, "--k"),
        ("vanish-cert", {"t": 1, "k": "1,0,0"}, "--k"),
        ("vanish-cert", {"t": 1, "k": "1,x"}, "--k"),
    ],
    ids=["j-past-slots", "j-negative", "linear-without-j", "j-without-linear",
         "hyperbolic-j-negative", "t-without-k", "k-too-short", "k-too-long",
         "k-not-integers"],
)
def test_bad_level_flags_are_named(ext_file, command, options, flag):
    # the spec has two pairs, so --j lies in 0..1 and --k has two entries
    extra = {"n": 1, "inst": "y"} if command == "vanish-cert" else {"s": "y"}
    code, report = _run(command, ext=ext_file, **extra, **options)
    assert code == 3 and flag in report["error"]


@pytest.mark.parametrize(
    "adapted",
    [[[7, 2]], [[0, 1]], [[0, 2]]],
    ids=["index-out-of-range", "wrong-exponent", "power-image-undistinguished"],
)
def test_adapted_data_must_match_the_images(tmp_path, ext_file, adapted):
    # the spec maps x -> u^4 and y -> v^2; its adapted data must say so
    doc = json.loads(open(ext_file).read())
    doc["adapted"] = adapted
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    for command, options in (
        ("validate-ext", {}),
        ("kf-gens", {"n": 1, "inst": "y"}),
        ("restrict", {"form": "dy"}),
    ):
        code, report = _run(command, ext=str(path), **options)
        assert code == 3 and "adapted" in report["error"]


def test_witt_commands(ext_file):
    code, report = _run("witt-gens", field="F2(x,y)", data="x:2", s="y,x+y,1")
    assert code == 0
    assert report["result"]["count"] == 9
    code, report = _run("check-hyperbolic", ext=ext_file, s="y", t=1, k="1,0")
    assert code == 0
    assert report["result"]["verified"] is True
    code, report = _run("check-hyperbolic", ext=ext_file, s="y", j=0)
    assert code == 0


def test_check_hyperbolic_selects_by_level(ext_file):
    # the linear slot j is level (0, e_j): --t 0 --k e_j names the same generator
    _, by_slot = _run("check-hyperbolic", ext=ext_file, s="y", j=1)
    code, by_level = _run("check-hyperbolic", ext=ext_file, s="y", t=0, k="0,1")
    assert code == 0
    assert by_level["result"] == by_slot["result"]
    code, report = _run("check-hyperbolic", ext=ext_file, s="y", t=0, k="1,1")
    assert (code, report["error"]) == (
        3, "BadExponent: level 0 needs a unit exponent vector, got (1, 1)"
    )


def test_arf_command():
    form = (
        "(quad 2 ((0 0) (rat (poly 2 (term 1 (0))) (poly 2 (term 1 (0)))))"
        " ((0 1) (rat (poly 2 (term 1 (0))) (poly 2 (term 1 (0)))))"
        " ((1 1) (rat (poly 2 (term 1 (2))) (poly 2 (term 1 (0))))))"
    )
    code, report = _run("arf", form=form, field="F2(x)")
    assert code == 0
    # [1, x^2]: Arf representative x^2 = wp(x) + x is nontrivial... check via solver
    code, report = _run(
        "arf", form=form, field="F2(x)", check_trivial=True, deg=6, dens="1,x"
    )
    assert code == 2  # x^2 is not in wp(F_2(x)) within bounds


def test_arf_check_trivial_finds_a_witness():
    # [1, x^2 + x]: the Arf representative x^2 + x is wp(x)
    form = (
        "(quad 2 ((0 0) (rat (poly 2 (term 1 (0))) (poly 2 (term 1 (0)))))"
        " ((0 1) (rat (poly 2 (term 1 (0))) (poly 2 (term 1 (0)))))"
        " ((1 1) (rat (poly 2 (term 1 (2)) (term 1 (1))) (poly 2 (term 1 (0))))))"
    )
    code, report = _run("arf", form=form, field="F2(x)", check_trivial=True, deg=2, dens="1")
    assert code == 0
    assert report["result"] == {
        "arf": "(rat (poly 2 (term 1 (2)) (term 1 (1))) (poly 2 (term 1 (0))))",
        "bounds": {"max_degree": 2, "denominators": ["1"]},
        "trivial": True,
    }


def test_kato_map_command():
    code, report = _run("kato-map", field="F2(x,y)", slots="x", tail="y")
    assert code == 0 and report["result"]["map"] == "f_1"
    code, report = _run("kato-map", field="F2(x,y)", slots="x,y")
    assert code == 0 and report["result"]["map"] == "e_2"


def test_oracle_solve_exit_codes():
    code, report = _run("oracle-solve", form="x dx", field="F2(x)", deg=6, dens="1")
    assert code == 0 and report["result"]["witness"] == "found"
    code, report = _run(
        "oracle-solve", form="y dx / x", field="F2(x,y)", deg=5, dens="1,x"
    )
    assert code == 2
    assert report["result"]["bounds"]["max_degree"] == 5


def test_classify_jobs_with_equal_bounds_build_one_system(monkeypatch):
    # each job parses its own SearchBounds; the oracle keeps the recently
    # used bounds values alive, so the second and third job find the system
    builds = []
    init = oracle.System.__init__

    def counted(self, *args):
        builds.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(oracle.System, "__init__", counted)
    oracle._spaces.cache_clear()
    for form in ("x dx", "y^2 dx", "y dx + x dy"):
        code, report = _run("classify", form=form, field="F2(x,y)", deg=3, dens="1,x")
        assert report["result"]["class_witness"] == "found"
    assert builds == [(1, True)]


ORACLE_JOBS = [
    ("classify", {"form": "x dx", "field": "F2(x,y)", "deg": 3, "dens": "1,x"}),
    ("classify", {"form": "y dx / x", "field": "F2(x,y)", "deg": 4, "dens": "1,x"}),
    ("oracle-solve", {"form": "x dx", "field": "F2(x)", "deg": 6, "dens": "1"}),
    ("oracle-solve", {"form": "y dx / x", "field": "F2(x,y)", "deg": 5, "dens": "1,x"}),
]


def test_oracle_reports_are_the_same_cold_and_warm():
    # a system found in the memo answers byte for byte as a fresh build
    cold = []
    for command, options in ORACLE_JOBS:
        oracle._spaces.cache_clear()
        cold.append(json.dumps(_run(command, **options), sort_keys=True))
    for _ in range(2):
        warm = [json.dumps(_run(command, **options), sort_keys=True)
                for command, options in ORACLE_JOBS]
        assert warm == cold


def test_selftest_sections():
    code, report = _run("selftest", sections="fields,oracle")
    assert code == 0
    statuses = {s["section"]: s["status"] for s in report["result"]["sections"]}
    assert statuses["fields"] == "pass"
    assert statuses["forms"] == "skipped"


def test_selftest_unknown_sections_are_exit_3():
    code, report = _run("selftest", sections="fields,bogus,nope")
    assert code == 3
    assert "bogus" in report["error"] and "nope" in report["error"]


@pytest.mark.parametrize("error", [AssertionError, NotClosed])
def test_selftest_names_corrupted_section(monkeypatch, error):
    from katoforms import cli as cli_mod

    def broken(rng):
        raise error("cartier identity violated")

    monkeypatch.setitem(cli_mod._SELFTEST_SECTIONS, "forms", broken)
    code, report = _run("selftest")
    assert code == 1
    statuses = {s["section"]: s["status"] for s in report["result"]["sections"]}
    assert statuses["forms"] == "fail"
    assert statuses["fields"] == "pass"
    row = next(s for s in report["result"]["sections"] if s["section"] == "forms")
    assert "cartier" in row["detail"]


def test_report_determinism(ext_file):
    job = JobSpec(
        command="kf-gens", options={"ext": ext_file, "n": 1, "inst": "y"}, seed=7
    )
    a = json.dumps(run(job)[1], sort_keys=True)
    b = json.dumps(run(job)[1], sort_keys=True)
    assert a == b


def test_main_with_job_file(tmp_path, capsys):
    job = {"command": "classify", "options": {"form": "dx", "field": "F2(x)"}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["result"]["exact"] is True
    assert code == 0


def test_main_argv_roundtrip(capsys):
    code = main(["classify", "--form", "x dx", "--field", "F2(x)"])
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "classify"
    assert code == 0


def test_main_out_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["cartier", "--form", "x dx", "--field", "F2(x)", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "cartier"


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_exit_3(tmp_path, capsys, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "report.json"
    code = main(["cartier", "--form", "x dx", "--field", "F2(x)", "--out", str(out)])
    assert code == 3
    assert "--out" in json.loads(capsys.readouterr().out)["error"]


def test_validate_ext_roundtrip(ext_file):
    code, report = _run("validate-ext", ext=ext_file)
    assert code == 0
    assert report["result"]["normalized"]["format"] == "katoforms-ext-1"


@pytest.mark.parametrize(
    "doc",
    [
        "{not json",
        {"options": {}},
        {"command": "selftest", "options": {"sections": "fields"}, "seed": True},
        {"command": "classify", "options": {"form": "x dx", "field": "F2(x)", "deg": None}},
        {"command": "classify", "options": {"form": 5, "field": "F2(x)"}},
        {"command": "vanish-cert",
         "options": {"ext": "{ext}", "n": 1, "inst": "y", "t": 1, "k": None}},
        {"command": "vanish-cert",
         "options": {"ext": "{ext}", "n": 1, "inst": "y", "kind": "bogus", "t": 1,
                     "k": "1,0"}},
        {"command": "selftest", "options": {"sections": 5}},
        {"command": "restrict", "options": {"form": "dx", "ext": "{dir}"}},
    ],
    ids=["not-json", "no-command", "seed-bool", "deg-null", "form-int", "k-null", "kind-unknown",
         "sections-int", "ext-directory"],
)
def test_malformed_job_file(tmp_path, capsys, ext_file, doc):
    # option values of the wrong type and unreadable paths are input errors
    text = doc if isinstance(doc, str) else json.dumps(doc)
    text = text.replace("{ext}", ext_file).replace("{dir}", tmp_path.as_posix())
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["--job", str(bad)]) == 3
    assert "error" in json.loads(capsys.readouterr().out)


def test_job_file_echoes_inputs(tmp_path, capsys):
    options = {"form": "x dx", "field": "F2(x)", "deg": 3, "dens": "1,x"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "classify", "options": options}))
    assert main(["--job", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == options
    path.write_text(json.dumps(
        {"command": "cartier", "options": {"form": "x dx", "field": "F2(x)", "raw": True}}
    ))
    assert main(["--job", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["raw"] is True


@pytest.mark.parametrize(
    "argv, key",
    [
        (["oracle-solve", "--form", "x dx", "--field", "F2(x)", "--deg", "0", "--dens", "1"],
         "deg"),
        (["check-hyperbolic", "--ext", "{ext}", "--s", "y", "--j", "0"], "j"),
        (["check-hyperbolic", "--ext", "{ext}", "--s", "y", "--t", "0", "--k", "0,1"], "t"),
    ],
    ids=["deg-0", "j-0", "t-0"],
)
def test_zero_valued_options_are_kept(capsys, ext_file, argv, key):
    # an integer option equal to 0 is a given value, not an unset option
    code = main([ext_file if arg == "{ext}" else arg for arg in argv])
    report = json.loads(capsys.readouterr().out)
    assert "error" not in report
    assert report["inputs"][key] == 0
    if argv[0] == "oracle-solve":
        assert code == 2 and report["result"]["bounds"]["max_degree"] == 0
    else:
        assert code == 0 and report["result"]["verified"] is True


@pytest.mark.parametrize("value, code", [("424242", 0), ("abc", 3)])
def test_seed_env_override(monkeypatch, capsys, value, code):
    monkeypatch.setenv("KATOFORMS_SEED", value)
    assert main(["selftest", "--sections", "fields"]) == code
    report = json.loads(capsys.readouterr().out)
    if code == 0:
        assert report["seed"] == 424242
    else:
        assert "KATOFORMS_SEED" in report["error"]


def _argv(command, options):
    """The command line that passes options as flags; True is a bare flag."""
    argv = [command]
    for name, value in options.items():
        argv.append("--" + name.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv


def _main_report(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _job_report(tmp_path, capsys, command, options):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": command, "options": options}))
    return _main_report(capsys, ["--job", str(path)])


@pytest.mark.parametrize(
    "command, options, name, value",
    [
        ("classify", {"form": "x dx", "field": "F2(x,y)", "deg": "3"}, "dens", "1,x"),
        ("kernel-test", {"form": "dx^dy", "field": "F2(x,y,z)"}, "data", "x:2"),
        ("witt-gens", {"field": "F2(x,y)", "data": "x:2"}, "s", "y,x+y"),
        ("kato-map", {"field": "F2(x,y)", "tail": "y"}, "slots", "x,y"),
        ("check-hyperbolic", {"ext": "{ext}", "s": "y", "t": "1"}, "k", "1,0"),
        ("selftest", {}, "sections", "fields"),
    ],
    ids=["dens", "data", "witt-s", "slots", "k", "sections"],
)
@pytest.mark.parametrize("mode", ["argv", "job"])
def test_string_options_read_at_path(
    tmp_path, capsys, ext_file, mode, command, options, name, value
):
    # an @path value is the file's text, stripped, in either mode
    options = {k: v.replace("{ext}", ext_file) for k, v in options.items()}
    path = tmp_path / f"{name}.txt"
    path.write_text(f"  {value}\n")
    reports = []
    for given in (value, f"@{path}"):
        if mode == "argv":
            reports.append(_main_report(capsys, _argv(command, {**options, name: given})))
        else:
            reports.append(_job_report(tmp_path, capsys, command, {**options, name: given}))
    (code, literal), (code_at, at_path) = reports
    assert "error" not in at_path and code_at == code == 0
    assert at_path["result"] == literal["result"]


def test_ext_is_a_path_even_when_it_starts_with_at(tmp_path, capsys, monkeypatch, ext_file):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "@x").write_text(open(ext_file).read())
    code, report = _main_report(capsys, ["validate-ext", "--ext", "@x"])
    assert code == 0 and report["result"]["normalized"]["format"] == "katoforms-ext-1"
    code, report = _job_report(tmp_path, capsys, "validate-ext", {"ext": "@x"})
    assert code == 0 and report["inputs"] == {"ext": "@x"}


@pytest.mark.parametrize("command", ["restrict", "check-hyperbolic", "kf-gens"])
def test_spec_is_a_second_name_of_ext(capsys, ext_file, command):
    options = {
        "restrict": ["--form", "dy"],
        "check-hyperbolic": ["--s", "y", "--j", "0"],
        "kf-gens": ["--n", "1", "--inst", "y"],
    }[command]
    reports = [_main_report(capsys, [command, flag, ext_file, *options])
               for flag in ("--ext", "--spec")]
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_options_a_command_does_not_define_are_neither_read_nor_checked(tmp_path, capsys):
    # "sections" belongs to selftest and "bogus" to no command; classify ignores both
    plain = {"form": "x dx", "field": "F2(x)"}
    extra = {"sections": 5, "bogus": f"@{tmp_path / 'missing.txt'}"}
    code, report = _job_report(tmp_path, capsys, "classify", {**plain, **extra})
    assert code == 0 and report["inputs"] == {**plain, **extra}
    assert report["result"] == _run("classify", **plain)[1]["result"]



@pytest.mark.parametrize(
    "command, options, error",
    [
        ("classify", {"field": "F2(x)"}, "KeyError: 'form'"),
        ("classify", {"form": "x dx"}, "KatoformsError: missing --field"),
        ("restrict", {"form": "dx"}, "KatoformsError: missing --ext"),
        ("witt-gens", {"field": "F2(x,y)", "s": "y"}, "KeyError: 'data'"),
    ],
)
def test_missing_job_options_are_named(command, options, error):
    # a job run in process has no command line to demand its options
    code, report = _run(command, **options)
    assert (code, report["error"]) == (3, error)


def _oracle_certificate():
    _, report = _run("oracle-solve", form="x dx", field="F2(x)", deg=6, dens="1")
    return report["result"]["certificate"]


# [1, x^2 + x], whose Arf representative x^2 + x is wp(x)
ARF_FORM = (
    "(quad 2 ((0 0) (rat (poly 2 (term 1 (0))) (poly 2 (term 1 (0)))))"
    " ((0 1) (rat (poly 2 (term 1 (0))) (poly 2 (term 1 (0)))))"
    " ((1 1) (rat (poly 2 (term 1 (2)) (term 1 (1))) (poly 2 (term 1 (0))))))"
)

# per command, the options it needs, then every other option it takes, all
# given as the strings a command line passes
COMMAND_OPTIONS = [
    ("classify", {"form": "x dx", "field": "F2(x,y)"}, {"deg": "3", "dens": "1,x"}),
    ("cartier", {"form": "y dx", "field": "F2(x,y)"}, {"raw": True}),
    ("restrict", {"form": "dy", "ext": "{ext}"}, {"data": "x:2"}),
    ("kernel-test", {"form": "dy^dz", "field": "F2(x,y,z)", "data": "x:2"}, {"nu": True}),
    ("kf-gens", {"ext": "{ext}", "n": "1", "inst": "y"}, {}),
    ("verify-cert", {"lhs": "x dx", "rhs": "(form 1)", "cert": "{cert}"}, {}),
    ("vanish-cert", {"ext": "{ext}", "n": "1", "inst": "y", "t": "1", "k": "1,0"},
     {"kind": "power"}),
    ("witt-gens", {"field": "F2(x,y)", "data": "x:2", "s": "y,1"}, {}),
    ("check-hyperbolic", {"ext": "{ext}", "s": "y", "j": "0"}, {}),
    ("arf", {"form": "{quad}", "field": "F2(x)"},
     {"check_trivial": True, "deg": "2", "dens": "1"}),
    ("kato-map", {"field": "F2(x,y)"}, {"slots": "x", "tail": "y"}),
    ("oracle-solve", {"form": "y dx / x", "field": "F2(x,y)"}, {"deg": "4", "dens": "1,x"}),
    ("validate-ext", {"ext": "{ext}"}, {}),
    ("selftest", {}, {"sections": "fields"}),
]


@pytest.mark.parametrize("given", ["needed", "all"])
@pytest.mark.parametrize(
    "command, needed, optional", COMMAND_OPTIONS, ids=[c[0] for c in COMMAND_OPTIONS]
)
def test_argv_and_job_runs_agree(tmp_path, capsys, ext_file, command, needed, optional, given):
    # the command line and a job document fill in the same defaults; without
    # --raw cartier refuses y dx, and kato-map refuses an empty symbol
    fill = {"{ext}": ext_file, "{quad}": ARF_FORM}
    if command == "verify-cert":
        fill["{cert}"] = _oracle_certificate()
    options = {**needed, **optional} if given == "all" else dict(needed)
    options = {k: fill.get(v, v) if isinstance(v, str) else v for k, v in options.items()}
    code, by_argv = _main_report(capsys, _argv(command, options))
    job_code, by_job = _job_report(tmp_path, capsys, command, options)
    for key in ("result", "error"):
        assert by_job.get(key) == by_argv.get(key)
    assert job_code == code and (code == 3) == ("error" in by_argv)


# every option of every command with what it takes: a string unless marked
OPTION_KINDS = {
    "classify": "form field deg:int dens",
    "cartier": "form field raw:flag",
    "restrict": "form ext data",
    "kernel-test": "form field data nu:flag",
    "kf-gens": "ext n:int inst",
    "verify-cert": "lhs rhs cert",
    "vanish-cert": "ext n:int inst kind:kind j:int t:int k",
    "witt-gens": "field data s",
    "check-hyperbolic": "form ext s j:int t:int k",
    "arf": "form field check_trivial:flag deg:int dens",
    "kato-map": "field slots tail",
    "oracle-solve": "form field deg:int dens",
    "validate-ext": "ext",
    "selftest": "sections",
}
WRONG_VALUES = {
    "str": (5, "a string"),
    "int": (1.5, "an integer or a string"),
    "flag": ("yes", "a boolean"),
    "kind": ("bogus", "one of ['linear', 'power']"),
}
OPTION_CASES = [
    (command, *(entry.split(":") + ["str"])[:2])
    for command, entries in OPTION_KINDS.items()
    for entry in entries.split()
]


@pytest.mark.parametrize(
    "command, name, kind", OPTION_CASES, ids=[f"{c}-{n}" for c, n, _ in OPTION_CASES]
)
def test_job_options_of_the_wrong_type_are_named(tmp_path, capsys, command, name, kind):
    value, wanted = WRONG_VALUES[kind]
    code, report = _job_report(tmp_path, capsys, command, {name: value})
    assert code == 3
    assert report == {
        "format": "katoforms-report-1",
        "error": f"option {name!r} of {command!r} must be {wanted}, got {value!r}",
    }


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify-cert", "--lhs", "x dx", "--rhs", "(form 1)", "--cert", "@{parens}"],
         "ParseError: expected (cert ...)"),
        (["classify", "--field", "F2(x,y)", "--form", "(" * 400 + "x" + ")" * 400],
         "ParseError: expression nested deeper than 100 levels"),
        (["classify", "--field", "F2(x,y)", "--form=" + "-" * 2000 + "x"],
         "ParseError: expression nested deeper than 100 levels"),
        (["--job", "{brackets}"],
         "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        (["validate-ext", "--ext", "{brackets}"],
         "ParseError: invalid JSON: maximum recursion depth exceeded while decoding a JSON "
         "array from a unicode string"),
    ],
    ids=["cert-parentheses", "form-parentheses", "form-minus", "job-brackets", "ext-brackets"],
)
def test_deeply_nested_input_is_exit_3(tmp_path, capsys, argv, error):
    # input nested past the interpreter's recursion limit is an input error,
    # not a RecursionError traceback
    parens, brackets = tmp_path / "parens", tmp_path / "brackets"
    parens.write_text("(" * 3000 + ")" * 3000)
    brackets.write_text("[" * 100000 + "]" * 100000)
    argv = [a.format(parens=parens, brackets=brackets) if "{" in a else a for a in argv]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)["error"] == error
