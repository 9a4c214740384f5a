"""Scenario parsing, check execution, report formats, and exit codes."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

import qcverify
from qcverify import FieldSpec, FPGradedModule, GradedPiece, Mat, NonHomogeneousError
from qcverify import glued_scheme, graded_modules, localization_cech, matlis
from qcverify.localization_cech import CechComplexWindow, SectionsModule
from qcverify.matlis import DualizedModule
from qcverify.verify_cli import (
    BUILTIN_SCENARIOS,
    VERDICTS,
    ParseError,
    UnknownName,
    _CHECK_FORMS,
    emit_report,
    main,
    parse_scenario,
    run_scenario,
)

HEAD = """\
[ring]
variables = x, y
field = Q

[options]
window = -2:2

[scheme]
overlap = x, y
"""


def run_text(text, **kw):
    return run_scenario(parse_scenario(text, **kw))


# --- parsing ------------------------------------------------------------------


def test_all_builtins_parse():
    assert set(BUILTIN_SCENARIOS) == {
        "double-origin-flat",
        "sections-star",
        "h1-punctured",
        "matlis-bidual",
        "lemma21-free",
        "affine-control",
    }
    for name, text in BUILTIN_SCENARIOS.items():
        s = parse_scenario(text, name=name)
        assert s.checks, name
        for cname, verdict in s.expects:
            assert verdict in VERDICTS


def test_lemma21_builtin_covers_the_free_grid():
    s = parse_scenario(BUILTIN_SCENARIOS["lemma21-free"])
    lemma_checks = [c for c in s.checks if c.kind == "lemma21"]
    assert len(lemma_checks) == 29  # 7 shifts x 4 ranks, plus the skyscraper
    assert len(s.expects) == 29


def test_predefined_structure_module():
    s = parse_scenario(HEAD)
    assert "O" in s.modules
    assert s.window == (-2, 2)
    assert s.checks == [] and s.expects == []


def test_default_window():
    text = HEAD.replace("[options]\nwindow = -2:2\n\n", "")
    assert parse_scenario(text).window == (-6, 6)


def test_override_beats_file_settings():
    s = parse_scenario(HEAD, window=(-1, 1))
    assert s.window == (-1, 1)


def test_empty_scenario_rejected():
    with pytest.raises(ParseError):
        parse_scenario("")


def test_missing_ring_rejected():
    with pytest.raises(ParseError):
        parse_scenario("[scheme]\noverlap = x\n")


def test_duplicate_module_rejected():
    text = HEAD + "[module M]\ngenerators = 0\n\n[module M]\ngenerators = 1\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "duplicate" in str(exc.value)


def test_module_named_o_collides_with_builtin():
    with pytest.raises(ParseError):
        parse_scenario(HEAD + "[module O]\ngenerators = 0\n")


def test_nonhomogeneous_relation_carries_line_number():
    text = HEAD + "[module M]\ngenerators = 0, 0\nrelation = x; y^2\n"
    with pytest.raises(NonHomogeneousError):
        parse_scenario(text)


def test_unknown_map_endpoint():
    text = HEAD + "[map f: M -> O]\nx\n"
    with pytest.raises(UnknownName) as exc:
        parse_scenario(text)
    assert exc.value.name == "M"


def test_map_wrong_line_count():
    text = HEAD + "[module I]\ngenerators = 1, 1\nrelation = y; -x\n\n[map f: I -> O]\nx\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "one line per source generator" in str(exc.value)


def test_map_degree_mismatch():
    text = HEAD + "[map f: O -> O]\nx\n"
    with pytest.raises(NonHomogeneousError):
        parse_scenario(text)


def test_map_must_kill_relations():
    # k0 -> O sending the generator to 1 cannot kill x*g
    text = HEAD + "[module k0]\ngenerators = 0\nrelation = x\nrelation = y\n\n[map f: k0 -> O]\n1\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "f" in str(exc.value)


def test_zero_overlap_denominator_rejected():
    text = HEAD.replace("overlap = x, y", "overlap = x, 0")
    with pytest.raises(ParseError):
        parse_scenario(text)


def test_bad_field_spec():
    with pytest.raises(ParseError):
        parse_scenario(HEAD.replace("field = Q", "field = R"))
    with pytest.raises(ParseError):
        parse_scenario(HEAD.replace("field = Q", "field = Fp:6"))


def test_bad_window():
    with pytest.raises(ParseError):
        parse_scenario(HEAD.replace("window = -2:2", "window = 2"))
    with pytest.raises(ParseError):
        parse_scenario(HEAD.replace("window = -2:2", "window = 3:-3"))


def test_a_reversed_window_override_is_rejected():
    # as in a file or --window; a reversed window would also give a
    # default start cap below 1
    with pytest.raises(ParseError, match="lo > hi"):
        parse_scenario(BUILTIN_SCENARIOS["lemma21-free"], window=(2, -2))


@pytest.mark.parametrize("text, bad", [
    (HEAD.replace("[options]", "[options extra]").replace("window = -2:2", "window = nonsense"),
     "[options extra]"),
    (HEAD + "[scheme again]\noverlap = q\n", "[scheme again]"),
    (HEAD.replace("[ring]", "[ring k]"), "[ring k]"),
], ids=["options", "second-scheme", "ring"])
def test_a_unique_section_header_with_extra_words_is_rejected(text, bad):
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert exc.value.line == text.splitlines().index(bad) + 1
    assert "takes no name" in str(exc.value)


def test_expect_must_reference_a_check():
    text = HEAD + "[check h1 O]\n\n[expect]\nh1 P = table-computed\n"
    with pytest.raises(UnknownName):
        parse_scenario(text)


def test_expect_verdict_must_be_known():
    text = HEAD + "[check h1 O]\n\n[expect]\nh1 O = plausible\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert "unknown verdict" in str(exc.value)


def test_duplicate_check_rejected():
    text = HEAD + "[check h1 O]\n[check h1 O]\n"
    with pytest.raises(ParseError):
        parse_scenario(text)


def test_unknown_check_form():
    with pytest.raises(ParseError):
        parse_scenario(HEAD + "[check euler O]\n")
    with pytest.raises(ParseError):
        parse_scenario(HEAD + "[check sections O over Z]\n")


NAMES = HEAD + """
[module C]
generators = 0
relation = y

[map f: O -> O]
1

[map q: O -> C]
1

[sheaf s]
patch = O
"""


@pytest.mark.parametrize("check, error, message", [
    ("", ParseError, "[check] needs a check form"),
    ("euler O", ParseError, "unknown check form 'euler'"),
    ("sections s", ParseError, "expected: sections SHEAF over X|U|V|W"),
    ("sections s at W", ParseError, "expected: sections SHEAF over X|U|V|W"),
    # the shape is checked before any name
    ("sections t over Z", ParseError, "expected: sections SHEAF over X|U|V|W"),
    ("sections O over W", UnknownName, "unknown name 'O'"),
    ("h1", ParseError, "expected: h1 MODULE"),
    ("h1 O O", ParseError, "expected: h1 MODULE"),
    ("h1 s", UnknownName, "unknown name 's'"),
    ("obstruction", ParseError, "expected: obstruction SHEAF"),
    ("obstruction O", UnknownName, "unknown name 'O'"),
    ("star-sequence f q over", ParseError, "expected: star-sequence F G over X|U|V|W"),
    ("star-sequence f q over W V", ParseError, "expected: star-sequence F G over X|U|V|W"),
    ("star-sequence z q over Z", ParseError, "expected: star-sequence F G over X|U|V|W"),
    # names resolve left to right, and before the maps must compose
    ("star-sequence y z over W", UnknownName, "unknown name 'y'"),
    ("star-sequence q z over W", UnknownName, "unknown name 'z'"),
    ("star-sequence q f over W", ParseError, "maps 'q' and 'f' do not compose"),
    ("bidual f", ParseError, "expected: bidual F G"),
    ("bidual f s", UnknownName, "unknown name 's'"),
    ("bidual q f", ParseError, "maps 'q' and 'f' do not compose"),
    ("lemma21", ParseError, "expected: lemma21 MODULE"),
    ("lemma21 s", UnknownName, "unknown name 's'"),
    ("nonaffine-witness O O", ParseError, "expected: nonaffine-witness [MODULE]"),
    ("nonaffine-witness s", UnknownName, "unknown name 's'"),
])
def test_malformed_checks_name_their_fault(check, error, message):
    text = NAMES + f"[check {check}]\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert type(exc.value) is error
    assert exc.value.message == message
    assert exc.value.line == len(text.splitlines())


def test_well_formed_checks_resolve_their_arguments():
    checks = ["sections s over X", "h1 C", "obstruction s", "star-sequence f q over V",
              "bidual f q", "lemma21 C", "nonaffine-witness", "nonaffine-witness C"]
    s = parse_scenario(NAMES + "".join(f"[check {c}]\n" for c in checks))
    assert [(c.kind, c.args, c.name) for c in s.checks] == [
        ("sections", ("s", "X"), checks[0]),
        ("h1", ("C",), checks[1]),
        ("obstruction", ("s",), checks[2]),
        ("star-sequence", ("f", "q", "V"), checks[3]),
        ("bidual", ("f", "q"), checks[4]),
        ("lemma21", ("C",), checks[5]),
        ("nonaffine-witness", (None,), checks[6]),
        ("nonaffine-witness", ("C",), checks[7]),
    ]


def test_readme_lists_exactly_the_check_forms():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    paragraph = text[text.index("Check forms:"):].split("\n\n", 1)[0]
    listed = paragraph.split("(", 1)[0].split("`")[1::2]
    assert listed == [grammar for grammar, _ in _CHECK_FORMS.values()]


@pytest.mark.parametrize("text, repeated", [
    (HEAD.replace("overlap = x, y", "overlap = x, y\noverlap = x"), "overlap = x"),
    (HEAD.replace("field = Q", "field = Q\nvariables = x"), "variables = x"),
    (HEAD.replace("field = Q", "field = Q\nfield = Fp:7"), "field = Fp:7"),
    (HEAD.replace("window = -2:2", "window = -2:2\nwindow = -1:1"), "window = -1:1"),
    (HEAD + "[options]\nwindow = -1:1\n", "[options]"),
    (HEAD + "[module M]\ngenerators = 0\ngenerators = 1\n", "generators = 1"),
    (HEAD + "[sheaf s]\npatch = O\npatch = O\n", "patch = O"),
    (HEAD + "[sheaf s]\npatch = O\ndirect-image = O\n", "direct-image = O"),
], ids=["scheme", "ring-variables", "ring-field", "options-window", "options-section",
        "module-generators", "sheaf-patch", "sheaf-patch-and-direct-image"])
def test_a_repeated_key_is_rejected_at_its_second_line(text, repeated):
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    lines = text.splitlines()
    assert exc.value.line == len(lines) - lines[::-1].index(repeated)


# --- running ------------------------------------------------------------------


def test_h1_punctured_table_content():
    rep = run_text(BUILTIN_SCENARIOS["h1-punctured"], name="h1-punctured")
    assert rep.exit_code() == 0
    obj = rep.to_obj()
    h1_checks = [c for c in obj["checks"] if c["name"].startswith("h1")]
    assert h1_checks
    table = h1_checks[0]["tables"]["h1"]
    assert table["-2"] == 1 and table["-3"] == 2 and table["-4"] == 3
    assert table["0"] == 0 and table["-1"] == 0
    assert obj["window"] == [-6, 6]
    assert obj["version"] == "0.1.0"


def test_witness_flags_present():
    rep = run_text(BUILTIN_SCENARIOS["h1-punctured"], name="h1-punctured")
    wit = [c for c in rep.checks if c.name.startswith("nonaffine")][0]
    assert wit.verdict == "witness-found"
    assert "degree:-2" in wit.flags
    assert "representative:x^-1*y^-1" in wit.flags
    assert "components:D(x*y)" in wit.flags


def test_star_sequence_verdicts():
    rep = run_text(BUILTIN_SCENARIOS["sections-star"], name="sections-star")
    verdicts = {c.name: c.verdict for c in rep.checks}
    by_open = {name.split()[-1]: v for name, v in verdicts.items()}
    assert by_open["U"] == "exact"
    assert by_open["W"] == "left-exact-only"
    assert rep.exit_code() == 0


def test_all_verdicts_stay_in_the_closed_set():
    for name in ("h1-punctured", "sections-star", "matlis-bidual", "affine-control"):
        rep = run_text(BUILTIN_SCENARIOS[name], name=name)
        for c in rep.checks:
            assert c.verdict in VERDICTS, (name, c.name, c.verdict)


def test_json_output_is_byte_identical_across_runs():
    a = emit_report(run_text(BUILTIN_SCENARIOS["sections-star"], name="s"), "json")
    b = emit_report(run_text(BUILTIN_SCENARIOS["sections-star"], name="s"), "json")
    assert a == b
    assert "time" not in a and "seconds" not in a


def test_table_format_lists_tables_and_verdicts():
    rep = run_text(BUILTIN_SCENARIOS["h1-punctured"], name="h1-punctured")
    text = emit_report(rep, "table")
    assert "scenario: h1-punctured" in text
    assert "window: -6..6" in text
    assert "verdict: table-computed" in text
    assert "h1:" in text
    assert "  -2: 1" in text


def test_unknown_format_rejected():
    rep = run_text(HEAD)
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")


def test_field_override_is_applied():
    s = parse_scenario(BUILTIN_SCENARIOS["h1-punctured"], name="n",
                       field=__import__("qcverify").FieldSpec.prime(7),
                       window=(-3, 1))
    rep = run_scenario(s)
    h1 = [c for c in rep.checks if c.name.startswith("h1")][0]
    assert h1.tables["h1"] == {"-3": 2, "-2": 1, "-1": 0, "0": 0, "1": 0}


# --- exit codes -----------------------------------------------------------------


def test_exit_one_on_expect_mismatch():
    text = HEAD + "[check h1 O]\n\n[expect]\nh1 O = exact\n"
    assert run_text(text).exit_code() == 1


def test_exit_two_on_inconclusive():
    text = """\
[ring]
variables = x, y

[options]
window = -2:2

[scheme]
overlap = x

[module M]
generators = 1

[sheaf F]
direct-image = M

[check sections F over V]
"""
    rep = run_text(text)
    assert rep.checks[0].verdict == "inconclusive"
    assert any(f.startswith("cap-exhausted") for f in rep.checks[0].flags)
    assert rep.exit_code() == 2


def test_inconclusive_beats_mismatch():
    text = """\
[ring]
variables = x, y

[options]
window = -2:2

[scheme]
overlap = x

[module M]
generators = 1

[sheaf F]
direct-image = M

[check sections F over V]
[check h1 O]

[expect]
h1 O = exact
"""
    assert run_text(text).exit_code() == 2


def test_check_error_verdict_on_domain_failure():
    # a generator far above the window overflows the obstruction buffer;
    # the run reports the BufferTooSmall message as it is
    text = HEAD + "[module H]\ngenerators = 8\n\n[sheaf F]\npatch = H\n\n[check obstruction F]\n"
    rep = run_text(text)
    assert rep.checks[0].verdict == "check-error"
    assert rep.checks[0].flags == [
        "error: generator degree 8 outside the buffered window [-12, 2]"]
    assert rep.exit_code() == 0  # no expectations, so nothing mismatched


def test_obstruction_of_the_zero_module_is_a_zero_table():
    # with no generators there is no buffer to check and nothing to span
    text = HEAD.replace("window = -2:2", "window = -6:6") + """
[module Z]
generators =

[sheaf patched]
patch = Z

[sheaf pushed]
direct-image = Z

[check obstruction patched]
[check obstruction pushed]
"""
    for check in run_text(text).checks:
        assert check.verdict == "no-obstruction-in-window"
        assert check.flags == ["cap:14", "stabilized", "kernels-certified"]
        assert check.tables == {"codim": {str(d): 0 for d in range(-6, 7)}}


# --- the command line -------------------------------------------------------------


def test_main_writes_report_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["builtin", "affine-control", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["scenario"] == "affine-control"
    verdicts = {c["name"]: c["verdict"] for c in obj["checks"]}
    assert verdicts["obstruction pushed"] == "no-obstruction-in-window"
    assert verdicts["nonaffine-witness"] == "no-witness-in-window"


def test_main_runs_scenario_files(tmp_path, capsys):
    f = tmp_path / "tiny.qcv"
    f.write_text(HEAD + "[check h1 O]\n\n[expect]\nh1 O = table-computed\n")
    assert main(["run", str(f)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["scenario"] == "tiny"


def test_main_window_and_format_flags(tmp_path):
    out = tmp_path / "r.txt"
    code = main(["builtin", "affine-control", "--window=-2:2",
                 "--format", "table", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "window: -2..2" in text


def test_python_dash_m_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcverify.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qcverify",
         "builtin", "affine-control", "--window=-1:1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "affine-control" in proc.stdout


def test_python_dash_m_verify_cli_fails_and_names_the_entry_point():
    # the module is not an entry point; running it must not look like success
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcverify.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qcverify.verify_cli",
         "builtin", "affine-control", "--window=-1:1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1
    assert "python -m qcverify" in proc.stderr
    assert proc.stdout == ""


def test_main_unknown_builtin(capsys):
    assert main(["builtin", "nope"]) == 3
    assert "unknown builtin" in capsys.readouterr().err


def test_main_missing_file(capsys):
    assert main(["run", "/no/such/file.qcv"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_main_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.qcv"
    f.write_text("[ring]\nvariables = x, y\n\n[scheme]\noverlap = x\n\n[module M]\ngenerators = 0\nrelation = x + y^2\n")
    assert main(["run", str(f)]) == 3
    assert "qcv:" in capsys.readouterr().err


@pytest.mark.parametrize("text, bad", [
    (HEAD.replace("overlap = x, y", "overlap = x, z"), "overlap = x, z"),
    (HEAD + "[module M]\ngenerators = 0\nrelation = z\n", "relation = z"),
    (HEAD + "[map f: O -> O]\nw\n", "w"),
], ids=["overlap", "relation", "map"])
def test_main_rejects_an_unknown_variable(tmp_path, capsys, text, bad):
    f = tmp_path / "var.qcv"
    f.write_text(text)
    assert main(["run", str(f)]) == 3
    err = capsys.readouterr().err
    lineno = text.splitlines().index(bad) + 1
    assert f"line {lineno}:" in err and f"unknown variable {bad[-1]!r}" in err


@pytest.mark.parametrize("line, message", [
    ("variables = x, x", "variables must be distinct"),
    ("variables =", "no variables listed"),
    # names the polynomial tokenizer cannot read back as one variable
    ("variables = 1, 2", "variable name '1' is not an identifier"),
    ("variables = x y, z", "variable name 'x y' is not an identifier"),
    ("variables = x*y, z", "variable name 'x*y' is not an identifier"),
    ("variables = -x, y", "variable name '-x' is not an identifier"),
    ("variables = a;b, y", "variable name 'a;b' is not an identifier"),
    ("variables = x^2, y", "variable name 'x^2' is not an identifier"),
    ("variables = x, \u03be", "variable name '\u03be' is not an identifier"),
], ids=["repeated", "empty", "digits", "space", "product", "sign", "semicolon",
        "power", "non-ascii"])
def test_main_rejects_bad_variables_with_a_line(tmp_path, capsys, line, message):
    f = tmp_path / "vars.qcv"
    f.write_text(HEAD.replace("variables = x, y", line) + "[check h1 O]\n")
    assert main(["run", str(f)]) == 3
    assert f"line 2: {message}" in capsys.readouterr().err


def test_identifier_variable_names_parse():
    # the punctured plane in other names: H^1 of O starts in degree -2
    for names in (("x_1", "X2"), ("_t", "x_1")):
        text = (HEAD.replace("variables = x, y", "variables = " + ", ".join(names))
                .replace("overlap = x, y", "overlap = " + ", ".join(names))
                + "[check h1 O]\n")
        rep = run_text(text)
        assert rep.checks[0].tables["h1"] == {"-2": 1, "-1": 0, "0": 0, "1": 0, "2": 0}


def test_main_rejects_bad_den_cap(capsys):
    assert main(["builtin", "affine-control", "--den-cap", "0"]) == 3
    assert capsys.readouterr().err == "qcv: --den-cap must be positive\n"


@pytest.mark.parametrize("start", [0, -3])
def test_a_start_cap_below_one_is_a_parse_error(start):
    # refused while parsing, not as a traceback when the checks run
    with pytest.raises(ParseError, match="^--den-cap must be positive$"):
        parse_scenario(BUILTIN_SCENARIOS["affine-control"], start=start)


@pytest.mark.parametrize("field_line, flags", [
    ("field = Fp:7", []),
    ("field = Q", ["--field", "Fp:7"]),
], ids=["in-file", "override"])
def test_main_rejects_a_denominator_that_vanishes_mod_p(tmp_path, capsys, field_line, flags):
    f = tmp_path / "den.qcv"
    f.write_text(HEAD.replace("field = Q", field_line)
                 + "[module M]\ngenerators = 0\nrelation = x + 3/14*y\n")
    assert main(["run", str(f), *flags]) == 3
    err = capsys.readouterr().err
    assert "line 12" in err and "denominator 14" in err


def test_main_exit_codes_propagate(tmp_path):
    f = tmp_path / "mismatch.qcv"
    f.write_text(HEAD + "[check h1 O]\n\n[expect]\nh1 O = exact\n")
    assert main(["run", str(f), "--out", str(tmp_path / "o.json")]) == 1


# --- report bytes and work ------------------------------------------------------

# sha256 of each built-in's JSON report at window -2:2, recorded from the
# program before the Cech caches were merged; reports must not change by a byte
GOLDEN_DIGESTS = {
    "affine-control": "fb9a6b3877831d3e856627caa74a4aa7e552773d9c94613208169bcf4631fecd",
    "double-origin-flat": "b3be84842f9a1a07c9408ffd024c276bcbdcdef23b534e4123e871a69d5c933b",
    "h1-punctured": "d9dccfb46034b66c379d672391a252953256f0099f01bd5cf6a6f678a7526e67",
    "lemma21-free": "782e0e8d99204d5f99268068ff62ea3054da013cbed96989a95f5fde49adabfb",
    "matlis-bidual": "39a25668cc1e67ed41b18be946e689bfe0cf7de1e6c8853357e7060c61266330",
    "sections-star": "7853d888c29b266a69288731ea1d7f7ac3ebd63241fceebd4052fde82784fc62",
}


def report_digest(rep) -> str:
    return hashlib.sha256(emit_report(rep, "json").encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_builtin_report_bytes_are_unchanged(name):
    rep = run_text(BUILTIN_SCENARIOS[name], name=name, window=(-2, 2))
    assert report_digest(rep) == GOLDEN_DIGESTS[name]


# the same at each built-in's own window -6:6, recorded from the program
# before matrix entries became plain ints
GOLDEN_DIGESTS_FULL_WINDOW = {
    "affine-control": "9776c64deffff91f55e9e61363d1683a0c3ce9bb5d5bfe35b9e939afa05548d9",
    "double-origin-flat": "577d5d3deab3f1a21ba782f6b95a2e42ca14b76ff3e1e7bdf0d8aca7ce91e4d4",
    "h1-punctured": "f33fc46a44831140550906393c3c2d45a643c7ef55498033f96f877c97480aa2",
    "lemma21-free": "21290ca72d4588f4151c43bca5a818a674bbb26a62699e2e19b87f21e9ff376e",
    "matlis-bidual": "48282653866927f2e45b2e570417392279641a35f6c47b74f9c7441a0ae60717",
    "sections-star": "c3868eade5d744b5892f8d5be603fca203e005c638e0f4fa9d00cbdbf994fca5",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS_FULL_WINDOW))
def test_builtin_report_bytes_at_the_full_window(name):
    rep = run_text(BUILTIN_SCENARIOS[name], name=name)
    assert report_digest(rep) == GOLDEN_DIGESTS_FULL_WINDOW[name]


# lemma21-free at -10:10, recorded from the program before a twist's
# defect was read from its source's: its twists read source degrees from
# -16 to 13, far past the windows above
LEMMA21_FREE_WIDE_DIGEST = "d16318f101ba1570f822729da08914199f6851fd2c4838518684b34ed6a32071"


def test_lemma21_free_report_bytes_at_a_wide_window():
    rep = run_text(BUILTIN_SCENARIOS["lemma21-free"], name="lemma21-free", window=(-10, 10))
    assert report_digest(rep) == LEMMA21_FREE_WIDE_DIGEST


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_an_explicit_default_cap_policy_changes_no_byte(name):
    # 6 is the default start cap at -2:2, so naming it must not change the
    # report; sheaves fix their start cap, so their W-sections stay shared
    text = BUILTIN_SCENARIOS[name]
    default = run_text(text, name=name, window=(-2, 2))
    explicit = run_text(text, name=name, window=(-2, 2), start=6)
    assert emit_report(explicit, "json") == emit_report(default, "json")


# H^1 of O on D(x) u D(y) in three-space is infinite dimensional in every
# degree: both checks give up, naming the lowest degree of the window, since
# the H^1 table is read in ascending degree order before the witness scans
# down from the top
H1_EXHAUSTED = """\
[ring]
variables = x, y, z

[options]
window = -2:2

[scheme]
overlap = x, y

[check h1 O]

[check nonaffine-witness]
"""
H1_EXHAUSTED_DIGEST = "7b740d46a5478162f76bcdcd3ea50b9350acae2bd7cc74bf3881353c285f40d2"


def test_an_inconclusive_h1_report_is_unchanged():
    rep = run_text(H1_EXHAUSTED, name="h1x")
    message = ("cap-exhausted: H1 of O in degree -2: dimensions [36, 64, 100, 144, 196, 256] "
               "did not stabilize at caps [6, 8, 10, 12, 14, 16]")
    assert [(c.verdict, c.flags) for c in rep.checks] == [("inconclusive", [message])] * 2
    assert rep.exit_code() == 2
    assert report_digest(rep) == H1_EXHAUSTED_DIGEST


FAR_OUT = """\
[ring]
variables = {variables}

[options]
window = -1:1

[scheme]
overlap = {overlap}

[module M]
generators = 0
relation = {relation}

[check h1 M]
"""


@pytest.mark.parametrize("variables,overlap,relation,flags", [
    # R/(x^N) certifies x-torsion power N, so its localization asks for degree N
    ("x, y", "x, y", "x^99999999999999999999", []),
    # the affine cover escalates from the start cap, so it asks for degree ~cap
    ("x, y", "x", "x^2", ["--den-cap", "99999999999"]),
    # degrees 301 and 601 of R/(x^300): the walk up to 301 is over the label
    # budget, 301 alone is not, and 601 alone is
    ("x, y, z", "x, y, z", "x^300", []),
])
def test_a_degree_far_out_ends_inconclusive_at_once(tmp_path, capsys, variables, overlap,
                                                    relation, flags):
    f = tmp_path / "far.qcv"
    f.write_text(FAR_OUT.format(variables=variables, overlap=overlap, relation=relation))
    start = time.perf_counter()
    assert main(["run", str(f), *flags]) == 2
    assert time.perf_counter() - start < 5
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "inconclusive"
    assert check["flags"][0].startswith("cap-exhausted: M: degree ")


@pytest.mark.parametrize("extra,message", [
    # checking that f kills the relation reads M in degree 10^20
    ("[map f: M -> M]\n1\n", "map 'f': M: degree "),
    # the generator's image is read in O in degree 10^20
    ("[module G]\ngenerators = 99999999999999999999\n[map f: G -> O]\nx^99999999999999999999\n",
     "map 'f': O: degree "),
])
def test_a_map_read_far_out_is_an_input_error(tmp_path, capsys, extra, message):
    f = tmp_path / "far-map.qcv"
    f.write_text(FAR_OUT.format(variables="x, y", overlap="x, y",
                                relation="x^99999999999999999999") + extra)
    assert main(["run", str(f)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("overlap,extra,flags", [
    # the affine cover escalates up to degree ~1200 of R/(x^2)
    ("x", "", ["--den-cap", "1200"]),
    # the generator's image is read in O in degree 1200: 1201 free labels
    ("x, y", "[module G]\ngenerators = 1200\n[map f: G -> O]\nx^1200\n", []),
])
def test_a_high_degree_with_few_labels_is_answered(tmp_path, capsys, overlap, extra, flags):
    f = tmp_path / "high.qcv"
    f.write_text(FAR_OUT.format(variables="x, y", overlap=overlap, relation="x^2") + extra)
    assert main(["run", str(f), *flags]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert (check["verdict"], check["tables"]["h1"]) == ("table-computed", {"-1": 0, "0": 0, "1": 0})


def test_star_sequence_over_x_under_den_cap(tmp_path, capsys):
    f = tmp_path / "star-x.qcv"
    f.write_text(HEAD.replace("window = -2:2", "window = -3:3") + """
[module A]
generators = 1

[module C]
generators = 0
relation = y

[map mult-y: A -> O]
y

[map quot: O -> C]
1

[check star-sequence mult-y quot over X]

[expect]
star-sequence mult-y quot over X = exact
""")
    assert main(["run", str(f), "--den-cap", "8"]) == 0
    verdicts = {c["name"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert verdicts == {"star-sequence mult-y quot over X": "exact"}


# proven caps (a free module on the cover by the variables is built at the
# start cap alone) give the report bytes that escalation gives
@pytest.mark.parametrize("window, digests", [
    ((-2, 2), GOLDEN_DIGESTS),
    ((-6, 6), GOLDEN_DIGESTS_FULL_WINDOW),
], ids=["-2:2", "-6:6"])
@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_escalated_caps_give_the_same_report_bytes(monkeypatch, name, window, digests):
    monkeypatch.setattr(localization_cech, "_proven_cap_floor", lambda module, cover: None)
    rep = run_text(BUILTIN_SCENARIOS[name], name=name, window=window)
    assert report_digest(rep) == digests[name]


def test_witness_on_a_shifted_generator_is_found():
    # the generator sits in degree 1, so its labels print as numerator / f^cap
    rep = run_text(HEAD + "[module A]\ngenerators = 1\n\n[check nonaffine-witness A]\n")
    (check,) = rep.checks
    assert check.verdict == "witness-found"
    assert "degree:-1" in check.flags
    assert "representative:(1*[(0, (5, 5))]) / (x*y)^6" in check.flags


def _caps_per_module(complexes_built):
    per_module = {}
    for m, _, cap in complexes_built:
        per_module.setdefault(m.name, []).append(cap)
    return per_module


def test_lemma21_free_builds_one_complex_per_free_module(complexes_built):
    # The 28 free modules R(-a)^r are twists of four presentations: O, and
    # R^2, R^3, R^4 on generators in degree -3 (free_m3_r2 ...).  A twist
    # by s builds nothing its source has built: its degree d at cap c is
    # the source's degree d - s at cap c.  The floor of R(-e)^r is e - 1, so
    # window degree d of a module sits at max(1, e - 1 - d), which is cap
    # max(1, -1 - k) at k = d - e for O and max(1, -4 - j) at j = d - e - 3
    # for the others; O's own degrees d - e, read by the defect, sit at the
    # same caps.  So each source is built at the caps 1 to 4 once, and the
    # skyscraper R/(x, y), fine-graded with certified torsion and a twist of
    # nothing, at its floor caps 3, 2, 1
    rep = run_text(BUILTIN_SCENARIOS["lemma21-free"], name="lemma21-free", window=(-2, 2))
    assert rep.exit_code() == 0
    per_module = _caps_per_module(complexes_built)
    assert per_module.pop("sky") == [3, 2, 1]
    lemma = parse_scenario(BUILTIN_SCENARIOS["lemma21-free"]).modules
    want = {}
    for m in lemma.values():
        if m.name != "sky":
            source = m.source or m
            caps = want.setdefault(source.name, set())
            caps.update(max(1, m.gen_degrees[0] - 1 - d) for d in range(-2, 3))
    assert want == dict.fromkeys(["O", "free_m3_r2", "free_m3_r3", "free_m3_r4"], {1, 2, 3, 4})
    assert {name: sorted(caps) for name, caps in per_module.items()} == {
        name: sorted(caps) for name, caps in want.items()}
    assert len(complexes_built) == 19


def test_lemma21_free_localizes_each_source_degree_once(monkeypatch):
    # every localization is one of a source's, at (cover member, cap,
    # degree - s), and none is made twice: 11 degrees of each of the four
    # sources (k = -5..5 for O, j = -8..2 for the others, see above) and the
    # skyscraper's 5, each at the three members x, y and x*y of its Cech
    # complex, 3 * (4 * 11 + 5) = 147
    calls = []
    real = localization_cech.localize_piece

    def spy(module, f, d, cap):
        source = module.source or module
        calls.append((source, str(f), d - module.shift, cap))
        return real(module, f, d, cap)

    monkeypatch.setattr(localization_cech, "localize_piece", spy)
    rep = run_text(BUILTIN_SCENARIOS["lemma21-free"], name="lemma21-free", window=(-2, 2))
    assert rep.exit_code() == 0
    assert len(calls) == len(set(calls)) == 147
    assert len({source for source, *_ in calls}) == 5


def test_lemma21_free_compares_each_source_degree_once(monkeypatch):
    # the defect of a twist in degree d is its source's in degree d - s,
    # kept on Gamma(W, O): the comparison is made once for each of the 11
    # source degrees of the four sources (see above) and the skyscraper's
    # 5, 4 * 11 + 5 = 49, where taking every module's window apart makes 145
    calls = []
    real = glued_scheme.tensor_relations

    def spy(module, n, d):
        calls.append((module.source or module, d - module.shift))
        return real(module, n, d)

    monkeypatch.setattr(glued_scheme, "tensor_relations", spy)
    rep = run_text(BUILTIN_SCENARIOS["lemma21-free"], name="lemma21-free", window=(-2, 2))
    assert rep.exit_code() == 0
    assert len(calls) == len(set(calls)) == 49


def test_scenarios_parsed_apart_share_nothing(complexes_built):
    # a twist shares only within its run: a second parse of the same text
    # builds the same complexes again, on modules of its own
    runs = []
    for _ in range(2):
        run_text(BUILTIN_SCENARIOS["lemma21-free"], name="lemma21-free", window=(-2, 2))
        runs.append(list(complexes_built))
        complexes_built.clear()
    first, second = runs
    assert [(m.name, cap) for m, _, cap in first] == [(m.name, cap) for m, _, cap in second]
    assert not {id(m) for m, _, _ in first} & {id(m) for m, _, _ in second}


@pytest.mark.parametrize("check, caps", [
    ("sections ideal over W", {"I": [3, 1, 2], "sections(I)": [3, 2, 1]}),
    ("sections ideal over X", {"I": [3, 2, 1]}),
    ("obstruction ideal", {"I": [3, 2, 1], "O": [3, 2, 1]}),
])
def test_double_origin_flat_proves_every_cap(complexes_built, check, caps):
    # the ideal's sections sit at their floor caps max(1, 1 - d) alone, and
    # so do their own sections (the V side of the gluing check) and the
    # rows of the obstruction table
    text = BUILTIN_SCENARIOS["double-origin-flat"]
    text = text[:text.index("[check")] + f"[check {check}]\n"
    rep = run_text(text, window=(-2, 2))
    assert rep.checks[0].verdict in ("table-computed", "obstructed")
    assert _caps_per_module(complexes_built) == caps


def test_a_v_side_that_disagrees_is_a_gluing_mismatch(complexes_built, monkeypatch):
    # the V side of a direct image, Gamma(W, Gamma(W, I)~), is built at
    # its floor caps; one degree of it made one larger must still stop the check
    real = SectionsModule._piece

    def piece(self, d):
        got = real(self, d)
        if isinstance(self.base, SectionsModule) and d == 0:
            return GradedPiece(got.field, got.labels + (("sec", got.dim),))
        return got

    monkeypatch.setattr(SectionsModule, "_piece", piece)
    text = BUILTIN_SCENARIOS["double-origin-flat"]
    text = text[:text.index("[check")] + "[check sections ideal over W]\n"
    (check,) = run_text(text, window=(-2, 2)).checks
    assert check.verdict == "check-error"
    assert check.flags == [
        "error: W-sections disagree in degree 0: 1 from patch U, 2 from patch V"]
    assert _caps_per_module(complexes_built) == {"I": [3, 1, 2], "sections(I)": [3, 2, 1]}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtins_agree_over_q_and_a_large_prime(name):
    # every built-in's tables are characteristic-free: Q and F_65537 must
    # give the same checks, tables, flags and verdicts
    text = BUILTIN_SCENARIOS[name]
    over_q = run_text(text, name=name, window=(-2, 2)).to_obj()
    over_p = run_text(text, name=name, window=(-2, 2), field=FieldSpec.prime(65537)).to_obj()
    assert over_p == over_q


# entries other than 0 and 1: non-monomial relations, a fraction, and a
# coefficient 7 that vanishes in F_7 (there N = R/(3xy) has certified torsion)
NON_UNIT = HEAD.replace("window = -2:2", "window = -3:3") + """
[module M]
generators = 0, 1
relation = 2*x^2 - 3*x*y + 5*y^2; 7*x - 2*y

[module N]
generators = 0
relation = 7*x^2 + 3*x*y - 14*y^2

[module A]
generators = 1

[module C]
generators = 0
relation = 3/2*x + y

[map f: A -> O]
3*x + 2*y

[map g: O -> C]
1

[sheaf F]
direct-image = M

[sheaf G]
patch = M

[check sections F over W]
[check sections G over X]
[check h1 M]
[check obstruction F]
[check star-sequence f g over W]
[check bidual f g]
[check h1 N]
[check lemma21 M]
[check nonaffine-witness M]
"""

# recorded from the program before matrix entries became plain ints
NON_UNIT_DIGESTS = {
    "Q": "4c0bf81b038aa5a26234f30e0ca1d11aeec416065b553e166d36bc6e07103e14",
    "Fp:65537": "4c0bf81b038aa5a26234f30e0ca1d11aeec416065b553e166d36bc6e07103e14",
    "Fp:7": "2de17d5c4bf9e8b9ed529f1f5c30edd60ea10f7797f5b300c5f004e2b8760020",
}


@pytest.mark.parametrize("field", sorted(NON_UNIT_DIGESTS))
def test_non_unit_report_bytes_are_unchanged(field):
    text = NON_UNIT.replace("field = Q", f"field = {field}")
    rep = run_text(text, name="non-unit")
    assert rep.exit_code() == 0
    assert report_digest(rep) == NON_UNIT_DIGESTS[field]


# the Koszul presentation of the ideal (x, y, z) pushed forward to
# three-space with a doubled origin: sections of sections and an
# obstruction table in three variables
KOSZUL_3 = """\
[ring]
variables = x, y, z
field = Q

[options]
window = -2:2

[scheme]
overlap = x, y, z

[module I]
generators = 1, 1, 1
relation = y; -x; 0
relation = z; 0; -x
relation = 0; z; -y

[sheaf ideal]
direct-image = I

[check sections ideal over W]
[check sections ideal over X]
[check obstruction ideal]
"""

# recorded from the program before sections of sections and the obstruction
# table were built at proven caps
KOSZUL_3_DIGEST = "b490ab091300bd498d11177df92b6af4e65109bdfe103b49abd44d63d7e56998"


# the same at the window -4:4, recorded from the program before each
# proven degree was built at its own floor cap
KOSZUL_3_DIGEST_4 = "8989f759e20df9ad33af25cc52eadc70ab70b6e2009fdc44aa0a96609ef75c36"


def test_three_variable_report_bytes_are_unchanged():
    rep = run_text(KOSZUL_3)
    assert [c.verdict for c in rep.checks] == ["table-computed", "table-computed", "obstructed"]
    assert report_digest(rep) == KOSZUL_3_DIGEST


def test_three_variable_input_at_a_wider_window_reads_only_its_floors():
    # at -4:4 every degree of I, of Gamma(W, I), of the outer sections and
    # of O is proven, so each is built at max(1, floor - d) alone: the
    # lowest degree -4 at cap 5 rather than the start cap 10.  I is then
    # realized up to degree 14 and O up to 10 (76 and 33 at the start cap),
    # and the report keeps its bytes: the localizations of I and of
    # Gamma(W, I) are proven(0), so no kernel chain reads either module
    # above the numerator degrees of its complexes
    s = parse_scenario(KOSZUL_3, window=(-4, 4))
    rep = run_scenario(s)
    assert [c.verdict for c in rep.checks] == ["table-computed", "table-computed", "obstructed"]
    assert report_digest(rep) == KOSZUL_3_DIGEST_4
    assert {name: max(m._realizations) for name, m in s.modules.items()} == {"O": 10, "I": 14}


def _live(cls) -> int:
    return sum(type(o) is cls for o in gc.get_objects())


@pytest.mark.parametrize("text", [
    HEAD + """
[module F]
generators = 0, 1

[module sky]
generators = 0
relation = x
relation = y

[check lemma21 F]
[check lemma21 sky]
[check h1 F]
""",
    BUILTIN_SCENARIOS["double-origin-flat"],
    BUILTIN_SCENARIOS["matlis-bidual"],
    HEAD + """
[map h: O -> O]
1

[check star-sequence h h over U]
[check star-sequence h h over W]
[check bidual h h]
""",
], ids=["lemma21-h1", "double-origin-flat", "matlis-bidual", "self-composed-map"])
def test_finished_checks_are_freed_without_the_cyclic_collector(text):
    # sections modules, Cech complexes and Matlis duals sit in no reference
    # cycle and in no strong cache, so they go as soon as the run drops
    # them, not at the next collection; a map composed with itself keeps
    # its sequence reports without holding itself
    s = parse_scenario(text, window=(-1, 1))
    gc.collect()
    kinds = (SectionsModule, CechComplexWindow, DualizedModule)
    before = [_live(k) for k in kinds]
    gc.disable()
    try:
        run_scenario(s)
        after = [_live(k) for k in kinds]
    finally:
        gc.enable()
    assert after == before


@pytest.mark.parametrize("name", ["lemma21-free", "double-origin-flat"])
def test_fp_modules_are_freed_without_the_cyclic_collector(name):
    # a finitely presented module holds no bound method of its own, so
    # the parsed modules and those the checks build go with the run
    gc.collect()
    before = _live(FPGradedModule)
    gc.disable()
    try:
        run_scenario(parse_scenario(BUILTIN_SCENARIOS[name], window=(-1, 1)))
        after = _live(FPGradedModule)
    finally:
        gc.enable()
    assert after == before


def test_witness_reuses_the_h1_complexes(complexes_built):
    run_text(HEAD + "[check h1 O]\n")
    h1_only = len(complexes_built)
    complexes_built.clear()
    rep = run_text(HEAD + "[check nonaffine-witness]\n")
    assert rep.checks[0].verdict == "witness-found"
    # H^1 of O sits at its floor cap 1 in every degree; the witness reuses
    # that complex and reads its representative at the start cap 6
    assert h1_only == 1
    assert [cap for _, _, cap in complexes_built] == [1, 6]


# one module M reached through a named sheaf, a module sheaf, H^1 and the
# lemma21 defect; O through lemma21 and the star sequence over W
SHARED_SECTIONS = HEAD + """
[module A]
generators = 1

[module M]
generators = 0, 1
relation = x*y; -x

[map f: A -> M]
y; 0

[map g: M -> O]
1
y

[sheaf S]
patch = M

[check sections S over W]
[check sections S over X]
[check h1 M]
[check lemma21 M]
[check star-sequence f g over W]
"""


# O through H^1 and through the obstruction scan of another sheaf
O_AND_OBSTRUCTION = HEAD + """
[module A]
generators = 1

[sheaf P]
direct-image = A

[check h1 O]
[check obstruction P]
"""


# two bidual checks on sequences through O, after a star sequence over W:
# the double duals are the sheaves' own modules, so every W-section the
# biduals read is one the star sequence or an earlier bidual built
TWO_BIDUALS = HEAD + """
[module A]
generators = 1

[module A2]
generators = 2

[module C]
generators = 0
relation = y

[module C2]
generators = 0
relation = x^2 + y^2

[map f: A -> O]
y

[map g: O -> C]
1

[map f2: A2 -> O]
x^2 + y^2

[map g2: O -> C2]
1

[check star-sequence f g over W]
[check bidual f g]
[check bidual f2 g2]
"""


@pytest.mark.parametrize("text, code", [
    (BUILTIN_SCENARIOS["double-origin-flat"], 0),
    (SHARED_SECTIONS, 0),
    # H^1 of the punctured plane starts in degree -2, so at -1:1 the
    # witness check finds none and misses its expectation
    (BUILTIN_SCENARIOS["h1-punctured"], 1),
    (O_AND_OBSTRUCTION, 0),
    (TWO_BIDUALS, 0),
], ids=["double-origin-flat", "one-module-many-checks", "h1-punctured",
        "o-and-obstruction", "two-biduals-share-o"])
def test_no_cech_complex_is_built_twice(complexes_built, text, code):
    rep = run_text(text, name="d", window=(-1, 1))
    assert rep.exit_code() == code
    assert all(c.verdict not in ("check-error", "inconclusive") for c in rep.checks)
    # keyed by module name: a second module object standing in for a named
    # module (a second O) rebuilds the same complexes
    keys = [(m.name, id(c), cap) for m, c, cap in complexes_built]
    assert keys and len(keys) == len(set(keys))


# --- twists: a module that differs from an earlier one by a degree shift -----

# (cover, generator degrees of M, relation lines, s): T is M's relations on
# every generator degree plus s.  A free module, a fine-graded monomial
# quotient, a Koszul-class presentation (no x- or y-torsion, not
# fine-graded) and, on a cover with the member x + y, heuristic torsion
TWIST_CASES = {
    "free": ("x, y", "0, 1", [], 1),
    "monomial": ("x, y", "0", ["x^2", "x*y"], 1),
    "koszul": ("x, y", "0", ["x^2 + y^2"], -1),
    "heuristic": ("x, x + y", "0", ["x^2*y"], 1),
}

TWIST_FORMS = ("sections S{} over W", "sections S{} over X", "h1 {}", "lemma21 {}",
               "obstruction S{}", "nonaffine-witness {}")


def twist_text(cover, gens, relations, s, t_relations=None):
    """M and T with a direct-image sheaf each, and every check form on
    both, T's before M's: each builds Cech degrees that the other reads."""
    t_gens = ", ".join(str(int(e) + s) for e in gens.split(","))
    text = HEAD.replace("window = -2:2", "window = -3:3").replace("overlap = x, y",
                                                                   f"overlap = {cover}")
    for name, g, rels in (("M", gens, relations), ("T", t_gens, t_relations or relations)):
        text += f"\n[module {name}]\ngenerators = {g}\n"
        text += "".join(f"relation = {r}\n" for r in rels)
        text += f"\n[sheaf S{name}]\ndirect-image = {name}\n"
    for form in TWIST_FORMS:
        text += f"[check {form.format('T')}]\n[check {form.format('M')}]\n"
    return text


def unshared(text, **kw):
    """The scenario with every twist replaced by a module of the same
    presentation that shares nothing."""
    s = parse_scenario(text, **kw)
    for name, m in s.modules.items():
        if m.source is not None:
            s.modules[name] = FPGradedModule(m.ring, m.gen_degrees,
                                             [entries for entries, _ in m.relations], name=name)
    return s


FIELDS = [None, FieldSpec.prime(65537)]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F65537"])
@pytest.mark.parametrize("case", sorted(TWIST_CASES))
def test_a_twist_reads_its_sources_tables_shifted(case, field):
    # Gamma(W, M(-s))_d is Gamma(W, M)_(d-s), and so are H^1, the defect
    # and the obstruction codims: every table of T is M's moved by s on the
    # degrees both windows hold
    cover, gens, relations, s = TWIST_CASES[case]
    scenario = parse_scenario(twist_text(cover, gens, relations, s), field=field)
    mods = scenario.modules
    assert (mods["T"].source, mods["T"].shift) == (mods["M"], s)
    checks = {c.name: c for c in run_scenario(scenario).checks}
    for form in TWIST_FORMS:
        t_check, m_check = checks[form.format("T")], checks[form.format("M")]
        assert t_check.verdict not in ("check-error", "inconclusive"), t_check.flags
        assert t_check.tables.keys() == m_check.tables.keys()
        for name, table in t_check.tables.items():
            for d in range(-3, 4):
                if -3 <= d - s <= 3:
                    assert table[str(d)] == m_check.tables[name][str(d - s)], (form, name, d)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F65537"])
@pytest.mark.parametrize("case", sorted(TWIST_CASES))
def test_a_twist_that_shares_reports_the_bytes_of_one_that_does_not(case, field):
    text = twist_text(*TWIST_CASES[case])
    for fmt in ("json", "table"):
        shared = emit_report(run_scenario(parse_scenario(text, field=field)), fmt)
        assert shared == emit_report(run_scenario(unshared(text, field=field)), fmt)


def test_a_near_twist_is_not_shared(complexes_built):
    # one coefficient differs, so T is a presentation of its own: it gets
    # complexes of its own and no source
    cover, gens, relations, s = TWIST_CASES["koszul"]
    text = twist_text(cover, gens, relations, s, t_relations=["x^2 + 2*y^2"])
    scenario = parse_scenario(text)
    assert scenario.modules["T"].source is None
    assert scenario.modules["T"].shift == 0
    rep = run_scenario(scenario)
    assert {m.name for m, _, _ in complexes_built} >= {"M", "T"}
    assert emit_report(rep) == emit_report(run_text(text))


# M = R/(x^3) and its twist T = M(-3), the source's checks first, then
# their defects, in both orders: T's degrees 1, 2 are M's -2, -1
TWIST_OF_CUBE = HEAD + """
[module M]
generators = 0
relation = x^3

[module T]
generators = 3
relation = x^3

[check h1 M]
[check h1 T]
[check nonaffine-witness T]
[check lemma21 M]
[check lemma21 T]
"""


def _bad_shape(real):
    def mono_act(self, mono, d):
        got = real(self, mono, d)
        return Mat.zeros(got.field, got.nrows + 1, got.ncols)
    return mono_act


@pytest.mark.parametrize("patch, flag", [
    # past the label budget, T fails in its own degree 16, not as M in degree 13
    ((graded_modules, "_MAX_LABELS", 12), "cap-exhausted: T: degree 16 has over 12 free labels"),
    # escalation that cannot stabilize: T's own message and degree
    ((localization_cech, "_MAX_ESCALATIONS", 1),
     "cap-exhausted: H1 of T in degree -2: dimensions [0, 0] did not stabilize at caps [6, 8]"),
    ((FPGradedModule, "_mono_act", _bad_shape(FPGradedModule._mono_act)),
     "error: action matrix shape mismatch for T, x^(3, 0), degree 4"),
], ids=["labels", "escalation", "shape"])
def test_a_twist_names_itself_and_its_degree_in_a_failure(monkeypatch, patch, flag):
    monkeypatch.setattr(*patch)
    twist_first = TWIST_OF_CUBE.replace("[check lemma21 M]\n[check lemma21 T]",
                                        "[check lemma21 T]\n[check lemma21 M]")
    for text in (TWIST_OF_CUBE, twist_first):
        rep = run_text(text)
        assert rep.checks[1].flags == [flag]
        assert emit_report(rep) == emit_report(run_scenario(unshared(text)))


def test_matlis_bidual_builds_four_complexes(complexes_built):
    # A and O are free on the all-variable cover and C = R/(y) is a
    # fine-graded monomial quotient, so each is read at its floor caps
    # alone over the window -2:2: 1 and 2 for A and C, 1 for O.  A = O(-1)
    # is a twist of O and builds nothing O has built: its caps 1 and 2 are
    # O's complexes at caps 1 and 2, so O's cap 1 is built once for both
    # and O's cap 2 takes the place of A's
    rep = run_scenario(parse_scenario(BUILTIN_SCENARIOS["matlis-bidual"], window=(-2, 2)))
    assert rep.exit_code() == 0
    built = sorted((m.name, cap) for m, _, cap in complexes_built)
    assert built == [("C", 1), ("C", 2), ("O", 1), ("O", 2)]


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_no_builtin_builds_a_complex_on_a_double_dual(complexes_built, name):
    run_scenario(parse_scenario(BUILTIN_SCENARIOS[name], window=(-2, 2)))
    assert complexes_built
    assert not [m.name for m, _, _ in complexes_built
                if isinstance(m, DualizedModule) and isinstance(m.base, DualizedModule)]


def _rand_poly(rng, degree):
    """A form in x, y with every coefficient drawn from [-3, 3] without 0,
    as in the random-fp benchmark."""
    return " + ".join(f"{rng.choice((-3, -2, -1, 1, 2, 3))}*x^{i}*y^{degree - i}"
                      for i in range(degree + 1))


def random_sequences_text(seed, field):
    """Two sequences A -p-> O -> O/(p), p random of degree 1 and 2; the
    first case asks for the bidual before the star sequence over W, the
    second after it."""
    rng = random.Random(seed)
    out = [HEAD.replace("field = Q", f"field = {field}")]
    checks = []
    for k in range(2):
        p = _rand_poly(rng, k + 1)
        out.append(f"""
[module A{k}]
generators = {k + 1}

[module C{k}]
generators = 0
relation = {p}

[map f{k}: A{k} -> O]
{p}

[map g{k}: O -> C{k}]
1
""")
        pair = [f"bidual f{k} g{k}", f"star-sequence f{k} g{k} over W"]
        checks += pair if k == 0 else pair[::-1]
    out += [f"[check {c}]" for c in checks]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("field", ["Q", "Fp:7", "Fp:65537"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bidual_over_v_matches_the_star_sequence_over_w(field, seed):
    # A++ -> O++ -> C++ over V is Gamma(W, A) -> Gamma(W, O) -> Gamma(W, C),
    # and the bidual reads the star sequence's own report over W; the
    # independent computation of that table is test_matlis's
    # reference_bidual_over_v
    rep = run_text(random_sequences_text(seed, field))
    by_name = {c.name: c for c in rep.checks}
    for k in range(2):
        bidual = by_name[f"bidual f{k} g{k}"]
        star = by_name[f"star-sequence f{k} g{k} over W"]
        assert bidual.verdict in ("exact", "left-exact-only", "not-exact")
        for part in ("kernel", "homology", "cokernel"):
            assert bidual.tables[f"bidual-v-{part}"] == star.tables[part], (k, part)
        assert bidual.verdict == star.verdict


# sections-star with the bidual of its sequence, after the star sequences
# and before them
STAR_AND_BIDUAL = BUILTIN_SCENARIOS["sections-star"].replace(
    "[expect]", "[check bidual mult-y quot]\n\n[expect]")
BIDUAL_FIRST = BUILTIN_SCENARIOS["sections-star"].replace(
    "[check star-sequence mult-y quot over U]",
    "[check bidual mult-y quot]\n[check star-sequence mult-y quot over U]")


def test_bidual_reads_the_star_sequence_tables(monkeypatch):
    # the star sequences over U and W and the bidual's base and V-tables
    # are one pair of reports: only the dual sequence over U is added
    calls = []
    real = glued_scheme.exactness_tables

    def spy(f, g, window):
        calls.append((f.name, g.name))
        return real(f, g, window)

    monkeypatch.setattr(glued_scheme, "exactness_tables", spy)
    monkeypatch.setattr(matlis, "exactness_tables", spy)
    rep = run_text(STAR_AND_BIDUAL)
    assert rep.exit_code() == 0
    assert [c.verdict for c in rep.checks] == ["exact", "left-exact-only", "left-exact-only"]
    assert len(calls) == 3


def test_bidual_first_reports_the_bytes_of_bidual_last():
    last = run_text(STAR_AND_BIDUAL)
    first = run_text(BIDUAL_FIRST)
    assert first.checks[0].name == "bidual mult-y quot"
    reordered = first._replace(checks=first.checks[1:] + first.checks[:1])
    for fmt in ("json", "table"):
        assert emit_report(reordered, fmt) == emit_report(last, fmt)


@pytest.mark.parametrize("seed", [1, 2])
def test_shared_sequence_reports_give_the_bytes_of_checks_run_alone(seed):
    # each check in a scenario of its own shares no map and no report
    text = random_sequences_text(seed, "Fp:65537").replace(
        "[check bidual f0 g0]",
        "[check star-sequence f0 g0 over U]\n[check bidual f0 g0]")
    head, *checks = text.split("[check ")
    rep = run_text(text)
    alone = [run_text(head + "[check " + c).checks[0] for c in checks]
    assert len(alone) == len(rep.checks) == 5
    for fmt in ("json", "table"):
        assert emit_report(rep._replace(checks=alone), fmt) == emit_report(rep, fmt)
