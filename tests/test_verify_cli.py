"""Scenario parsing, check execution, report formats, and exit codes."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import qcverify
from qcverify import CapPolicy, FieldSpec, FPGradedModule, NonHomogeneousError
from qcverify import localization_cech
from qcverify.localization_cech import CechComplexWindow, SectionsModule
from qcverify.matlis import DualizedModule
from qcverify.verify_cli import (
    BUILTIN_SCENARIOS,
    VERDICTS,
    ParseError,
    UnknownName,
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
    # a generator far above the window overflows the obstruction buffer
    text = HEAD + "[module H]\ngenerators = 8\n\n[sheaf F]\npatch = H\n\n[check obstruction F]\n"
    rep = run_text(text)
    assert rep.checks[0].verdict == "check-error"
    assert any(f.startswith("error:") for f in rep.checks[0].flags)
    assert rep.exit_code() == 0  # no expectations, so nothing mismatched


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


def test_main_rejects_bad_den_cap(capsys):
    assert main(["builtin", "affine-control", "--den-cap", "0"]) == 3


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


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_an_explicit_default_cap_policy_changes_no_byte(name):
    # 6 is the default start cap at -2:2, so naming it must not change the
    # report; sheaves fix their policy, so their W-sections stay shared
    text = BUILTIN_SCENARIOS[name]
    default = run_text(text, name=name, window=(-2, 2))
    explicit = run_text(text, name=name, window=(-2, 2), policy=CapPolicy(start=6))
    assert emit_report(explicit, "json") == emit_report(default, "json")


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


def test_lemma21_free_builds_one_complex_per_free_module(complexes_built):
    # 28 free modules and O each get one complex at the start cap; the
    # skyscraper has relations, so its cap escalates over three complexes
    rep = run_text(BUILTIN_SCENARIOS["lemma21-free"], name="lemma21-free", window=(-2, 2))
    assert rep.exit_code() == 0
    per_module = {}
    for m, _, cap in complexes_built:
        per_module.setdefault(m.name, []).append(cap)
    assert len(per_module) == 30
    assert per_module.pop("sky") == [6, 8, 10]
    assert all(caps == [6] for caps in per_module.values())
    assert len(complexes_built) == 32


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
], ids=["lemma21-h1", "double-origin-flat", "matlis-bidual"])
def test_finished_checks_are_freed_without_the_cyclic_collector(text):
    # sections modules, Cech complexes and Matlis duals sit in no reference
    # cycle and in no strong cache, so they go as soon as the run drops
    # them, not at the next collection
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
    assert 0 < len(complexes_built) <= h1_only


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


def test_matlis_bidual_builds_five_complexes(complexes_built):
    # A and O are free on the all-variable cover, so one proven cap each;
    # C = R/(y) escalates through three caps
    rep = run_scenario(parse_scenario(BUILTIN_SCENARIOS["matlis-bidual"], window=(-2, 2)))
    assert rep.exit_code() == 0
    names = sorted(m.name for m, _, _ in complexes_built)
    assert names == ["A", "C", "C", "C", "O"]


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
    # A++ -> O++ -> C++ over V is Gamma(W, A) -> Gamma(W, O) -> Gamma(W, C)
    rep = run_text(random_sequences_text(seed, field))
    by_name = {c.name: c for c in rep.checks}
    for k in range(2):
        bidual = by_name[f"bidual f{k} g{k}"]
        star = by_name[f"star-sequence f{k} g{k} over W"]
        assert bidual.verdict in ("exact", "left-exact-only", "not-exact")
        for part in ("kernel", "homology", "cokernel"):
            assert bidual.tables[f"bidual-v-{part}"] == star.tables[part], (k, part)
        assert bidual.verdict == star.verdict
