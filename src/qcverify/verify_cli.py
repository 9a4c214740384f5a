"""Scenario files, built-in scenarios, reports, and the qcv command line.

A scenario is a small line-oriented text file describing a graded setup
and a list of checks to run over a degree window:

    [ring]
    variables = x, y
    field = Q                  # or Fp:65537

    [options]
    window = -6:6              # optional, default -6:6

    [scheme]
    overlap = x, y             # W = D(x) u D(y); one entry gives an affine W

    [module I]
    generators = 1, 1          # generator degrees
    relation = y; -x           # one line per relation column, one entry
                               # per generator ("0" for a zero entry)

    [map inc: I -> O]          # one line per source generator, each a
    x                          # semicolon-separated coefficient list,
    y                          # one polynomial per target generator

    [sheaf ideal]
    direct-image = I           # pushforward of ~I from the patch U
                               # (or: patch = I for identity gluing)

    [check sections ideal over W]
    [check obstruction ideal]

    [expect]
    sections ideal over W = table-computed
    obstruction ideal = obstructed

The module O (free, rank one, generator in degree 0) is predefined.  A
module with the relation columns of an earlier one (O included) on its
generator degrees plus one constant s is built as that module's twist
(FPGradedModule.twist) and shares its work; its reports are unchanged.

The settings sections [ring], [options] and [scheme] may stand anywhere,
each at most once; _SETTINGS reads them first, in that order.  The other
sections are read in file order, each by its reader in _SECTIONS, so a
name must be defined above its first use; [expect] lines may stand
anywhere.  The check forms are declared, grammar and handler, in
_CHECK_FORMS.

Every check ends in a verdict from a closed set (see VERDICTS); cap
exhaustion becomes the verdict "inconclusive" and domain failures become
"check-error" rather than crashing the run.  Reports serialize
deterministically: two runs with identical inputs emit byte-identical
output, so no timing data appears in either format.

Exit codes: 0 all verdicts matched the [expect] section (vacuously true
without one), 1 at least one mismatch, 2 at least one inconclusive
check, 3 input error.  Inconclusive beats mismatch.
"""

import argparse
import json
import os
import sys
from functools import partial
from typing import NamedTuple

from . import __version__
from .exact_linalg import FieldSpec, Mat
from .graded_modules import (
    FPGradedModule,
    HomogPoly,
    NonHomogeneousError,
    PolyRing,
    RelationNotKilled,
    _VARIABLE_NAME,
    free_module,
    map_from_gen_images,
)
from .localization_cech import (
    DEFAULT_WINDOW,
    CapExhausted,
    OpenSubset,
    SectionsModule,
    kernels_flag,
    sections_window,
)
from .glued_scheme import (
    OPENS,
    DoubleGluedScheme,
    GluingMismatch,
    QcohSheafOnX,
    SheafMap,
    direct_image_from_U,
    flat_quotient_obstruction,
    flat_sections_defect,
    sequence_report,
    sheaf_sections,
    witness_nonaffine,
)
from .matlis import bidual_pipeline

__all__ = [
    "VERDICTS",
    "ParseError",
    "UnknownName",
    "Scenario",
    "parse_scenario",
    "CheckResult",
    "Report",
    "run_scenario",
    "emit_report",
    "BUILTIN_SCENARIOS",
    "main",
]

# the closed verdict vocabulary; every check result uses exactly one
VERDICTS = frozenset(
    {
        "obstructed",
        "no-obstruction-in-window",
        "exact",
        "left-exact-only",
        "not-exact",
        "witness-found",
        "no-witness-in-window",
        "zero-defect",
        "defect-found",
        "table-computed",
        "inconclusive",
        "check-error",
    }
)

_OPEN = "|".join(OPENS)  # the grammar word for a choice of open


class ParseError(ValueError):
    """A scenario file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.message = message


class UnknownName(ParseError):
    """A check or expectation refers to an undefined name."""

    def __init__(self, name: str, line: int | None = None):
        super().__init__(f"unknown name {name!r}", line)
        self.name = name


class _CheckSpec(NamedTuple):
    kind: str
    args: tuple
    name: str  # canonical text, also the JSON check name


class Scenario(NamedTuple):
    """A parsed and validated scenario, ready to run."""

    name: str
    window: tuple
    start: int | None  # the start cap; None is window width + 2
    overlap: OpenSubset
    modules: dict
    maps: dict
    sheaves: dict
    checks: list
    expects: list  # (check name, expected verdict) in file order


def _parse_field_spec(text: str, line: int | None = None) -> FieldSpec:
    t = text.strip()
    if t in ("Q", "q"):
        return FieldSpec.rationals()
    if t.lower().startswith("fp:"):
        try:
            return FieldSpec.prime(int(t[3:]))
        except ValueError as e:
            raise ParseError(f"bad prime field spec {text!r}: {e}", line)
    raise ParseError(f"unknown field {text!r}: expected Q or Fp:P", line)


def _parse_window(text: str, line: int | None = None) -> tuple:
    t = text.strip()
    if ":" not in t:
        raise ParseError(f"bad window {text!r}: expected LO:HI", line)
    lo_s, hi_s = t.split(":", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError(f"bad window {text!r}: expected integers LO:HI", line)
    if lo > hi:
        raise ParseError(f"bad window {text!r}: lo > hi", line)
    return (lo, hi)


def _parse_variables(text: str, line: int) -> tuple:
    variables = tuple(t.strip() for t in text.split(",") if t.strip())
    if not variables:
        raise ParseError("no variables listed", line)
    if len(set(variables)) != len(variables):
        raise ParseError("variables must be distinct", line)
    for var in variables:
        if not _VARIABLE_NAME.fullmatch(var):
            raise ParseError(
                f"variable name {var!r} is not an identifier ({_VARIABLE_NAME.pattern})", line)
    return variables


def _parse_overlap(ring: PolyRing, text: str, line: int) -> OpenSubset:
    denoms = []
    for part in text.split(","):
        p = _poly(ring, part, line)
        if p is None:
            raise ParseError("overlap denominators must be nonzero", line)
        denoms.append(p)
    return OpenSubset(ring, denoms)


# The settings sections, read in this order wherever they stand in the file:
# the key each must set and the fault if it does not (None for a section
# that may be left out), and the parser of each key's value, which takes the
# value and its line; the scheme's parser takes the ring first
_SETTINGS = {
    "ring": ("variables", "[ring] must list variables",
             {"variables": _parse_variables, "field": _parse_field_spec}),
    "options": (None, None, {"window": _parse_window}),
    "scheme": ("overlap", "[scheme] must set overlap", {"overlap": _parse_overlap}),
}


def _lines(text: str):
    """(lineno, content) with comments and blanks stripped."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def _entries(body, section: str, keys, repeatable=()):
    """(key, lineno, value) for each line of a section body; a key outside
    keys, or a second line for a key outside repeatable, is an error."""
    seen = set()
    for lineno, line in body:
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        k, v = (t.strip() for t in line.split("=", 1))
        if k not in keys:
            raise ParseError(f"unknown [{section}] key {k!r}", lineno)
        if k in seen and k not in repeatable:
            raise ParseError(f"repeated [{section}] key {k!r}", lineno)
        seen.add(k)
        yield k, lineno, v


def _poly(ring: PolyRing, text: str, lineno: int) -> HomogPoly | None:
    """Parse one polynomial entry; '0' (or a zero result) means None."""
    try:
        p = HomogPoly.parse(ring, text)
    except NonHomogeneousError as e:
        raise NonHomogeneousError(f"line {lineno}: {e}", line=lineno) from e
    except ValueError as e:
        raise ParseError(f"bad polynomial {text!r}: {e}", lineno)
    return None if p.is_zero() else p


class _Names:
    """The modules, maps, sheaves and checks a scenario has defined so far,
    with a reader for each named section kind; a name is defined above its
    first use."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.modules: dict = {"O": free_module(ring, (0,), name="O")}
        # (generator degrees minus their least, relation columns) -> the first
        # module with that presentation, of which a later one is a twist
        self.presentations: dict = {((0,), ()): self.modules["O"]}
        self.maps: dict = {}
        self.sheaves: dict = {}
        self.checks: dict = {}  # canonical name -> _CheckSpec, in file order
        self.expect_lines: list = []

    @staticmethod
    def _new(kind: str, space: dict, name: str, line: int) -> str:
        """The name of a new [kind] section, which space must not hold yet."""
        if not name:
            raise ParseError(f"[{kind}] needs a name", line)
        if name in space:
            raise ParseError(f"duplicate {kind} name {name!r}", line)
        return name

    def _row(self, text: str, line: int, n: int, fault: str) -> list:
        """The n polynomials of a ';'-separated row (None for a zero); fault
        is the message, formatted with the count found and n, if not n."""
        entries = [_poly(self.ring, part, line) for part in text.split(";")]
        if len(entries) != n:
            raise ParseError(fault.format(len(entries), n), line)
        return entries

    def _module(self, rest, sec_line, body):
        mname = self._new("module", self.modules, rest, sec_line)
        gen_degrees = None
        relation_rows: list = []
        for k, lineno, v in _entries(body, "module", ("generators", "relation"),
                                     repeatable=("relation",)):
            if k == "relation":
                relation_rows.append((lineno, v))
                continue
            try:
                gen_degrees = tuple(int(t) for t in v.split(",") if t.strip())
            except ValueError:
                raise ParseError("generator degrees must be integers", lineno)
        if gen_degrees is None:
            raise ParseError(f"module {mname!r} lists no generators", sec_line)
        relations = tuple(
            tuple(self._row(row, lineno, len(gen_degrees),
                            "relation has {} entries, module has {} generators"))
            for lineno, row in relation_rows)
        low = min(gen_degrees, default=0)
        key = (tuple(e - low for e in gen_degrees), relations)
        source = self.presentations.get(key)
        if source is not None:
            self.modules[mname] = source.twist(low - source.min_degree, name=mname)
            return
        try:
            self.modules[mname] = self.presentations[key] = FPGradedModule(
                self.ring, gen_degrees, relations, name=mname
            )
        except NonHomogeneousError as e:
            raise NonHomogeneousError(f"module {mname!r}: {e}", line=sec_line) from e

    def _map(self, rest, sec_line, body):
        mapname, colon, arrow = rest.partition(":")
        src_name, to, tgt_name = (t.strip() for t in arrow.partition("->"))
        if not (colon and to and mapname.strip() and src_name and tgt_name):
            raise ParseError("expected [map NAME: SRC -> TGT]", sec_line)
        mapname = self._new("map", self.maps, mapname.strip(), sec_line)
        for end in (src_name, tgt_name):
            if end not in self.modules:
                raise UnknownName(end, sec_line)
        src, tgt = self.modules[src_name], self.modules[tgt_name]
        if len(body) != src.ngens:
            raise ParseError(
                f"map {mapname!r} needs one line per source generator "
                f"({src.ngens}), got {len(body)}",
                sec_line,
            )
        images = []
        try:
            for i, (lineno, line) in enumerate(body):
                col = None
                for j, p in enumerate(self._row(
                        line, lineno, tgt.ngens,
                        "image line has {} entries, target has {} generators")):
                    if p is None:
                        continue
                    want = src.gen_degrees[i] - tgt.gen_degrees[j]
                    if p.degree != want:
                        raise NonHomogeneousError(
                            f"line {lineno}: entry {j} has degree {p.degree}, "
                            f"needs {want} to preserve degrees",
                            line=lineno,
                        )
                    term = tgt.poly_act(p, tgt.gen_degrees[j]) @ tgt.gen_element(j)
                    col = term if col is None else col + term
                if col is None:
                    col = Mat.zeros(
                        self.ring.field, tgt.piece(src.gen_degrees[i]).dim, 1
                    )
                images.append(col)
            gmap = map_from_gen_images(src, tgt, images)
        except (RelationNotKilled, CapExhausted) as e:
            raise ParseError(f"map {mapname!r}: {e}", sec_line)
        gmap.name = mapname
        self.maps[mapname] = gmap

    def _sheaf(self, rest, sec_line, body):
        sname = self._new("sheaf", self.sheaves, rest, sec_line)
        spec = None
        for k, lineno, v in _entries(body, "sheaf", ("patch", "direct-image")):
            if spec is not None:
                raise ParseError(
                    f"sheaf {sname!r} sets both 'patch' and 'direct-image'", lineno
                )
            if v not in self.modules:
                raise UnknownName(v, lineno)
            spec = ("identity" if k == "patch" else "direct-image", v)
        if spec is None:
            raise ParseError(
                f"sheaf {sname!r} needs 'patch = M' or 'direct-image = M'",
                sec_line,
            )
        self.sheaves[sname] = spec

    def _check(self, rest, lineno, body):
        """Match a check line to its form's grammar: the shape first, then the
        names left to right, then that the maps F and G compose, and last that
        no earlier check has its name."""
        toks = rest.split()
        if not toks:
            raise ParseError("[check] needs a check form", lineno)
        if toks[0] not in _CHECK_FORMS:
            raise ParseError(f"unknown check form {toks[0]!r}", lineno)
        grammar = _CHECK_FORMS[toks[0]][0]
        slots = grammar.split()
        words = list(toks)
        if slots[-1].startswith("[") and len(words) == len(slots) - 1:
            words.append(None)
        spaces = {"SHEAF": self.sheaves, "MODULE": self.modules, "F": self.maps, "G": self.maps}
        if len(words) != len(slots) or not all(
            (w in OPENS) if g == _OPEN else (g.strip("[]") in spaces or w == g)
            for g, w in zip(slots, words)
        ):
            raise ParseError(f"expected: {grammar}", lineno)
        args = []
        for g, w in zip(slots, words):
            space = spaces.get(g.strip("[]"))
            if space is not None and w is not None and w not in space:
                raise UnknownName(w, lineno)
            if space is not None or g == _OPEN:
                args.append(w)
        named = dict(zip(slots, words))
        if "F" in named and self.maps[named["F"]].target is not self.maps[named["G"]].source:
            raise ParseError(
                f"maps {named['F']!r} and {named['G']!r} do not compose", lineno
            )
        spec = _CheckSpec(toks[0], tuple(args), " ".join(toks))
        if spec.name in self.checks:
            raise ParseError(f"duplicate check {spec.name!r}", lineno)
        self.checks[spec.name] = spec

    def _expect(self, rest, sec_line, body):
        self.expect_lines.extend(body)

    def expects(self) -> list:
        """(check name, verdict) for each [expect] line, wherever it stands."""
        expects = []
        for lineno, line in self.expect_lines:
            if "=" not in line:
                raise ParseError("expected '<check name> = <verdict>'", lineno)
            cname, verdict = (t.strip() for t in line.rsplit("=", 1))
            cname = " ".join(cname.split())
            if cname not in self.checks:
                raise UnknownName(cname, lineno)
            if verdict not in VERDICTS:
                raise ParseError(f"unknown verdict {verdict!r}", lineno)
            expects.append((cname, verdict))
        return expects


# Every other section kind, once, with its reader, which takes the header's
# text after the kind, the header's line and the body's lines.
_SECTIONS = {
    "module": _Names._module,
    "map": _Names._map,
    "sheaf": _Names._sheaf,
    "check": _Names._check,
    "expect": _Names._expect,
}


def parse_scenario(text: str, name: str = "scenario",
                   field: FieldSpec | None = None,
                   window: tuple | None = None,
                   start: int | None = None) -> Scenario:
    """Parse and fully validate a scenario; the keyword arguments are
    command-line overrides applied on top of the file's own settings."""
    if start is not None and start < 1:
        raise ParseError("--den-cap must be positive")
    # first pass: group lines into sections
    sections: list = []  # (lineno, header, [(lineno, line), ...])
    current = None
    for lineno, line in _lines(text):
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            header = line[1:-1].strip()
            if not header:
                raise ParseError("empty section header", lineno)
            kind, *extra = header.split()
            if extra and kind in _SETTINGS:
                raise ParseError(f"[{kind}] takes no name, got [{header}]", lineno)
            current = (lineno, header, [])
            sections.append(current)
        else:
            if current is None:
                raise ParseError("content before the first section", lineno)
            current[2].append((lineno, line))
    if not sections:
        raise ParseError("empty scenario: no sections found")

    got = {"field": FieldSpec.rationals(), "window": DEFAULT_WINDOW}
    for kind, (required, missing, parsers) in _SETTINGS.items():
        if kind == "scheme":
            # the overrides apply once [ring] and [options] are read, and
            # the scheme's denominators are polynomials in the ring
            if window is not None and window[0] > window[1]:
                raise ParseError(f"bad window {tuple(window)!r}: lo > hi")
            ring = PolyRing(field if field is not None else got["field"], got["variables"])
            parsers = {k: partial(parse, ring) for k, parse in parsers.items()}
        found = [s for s in sections if s[1] == kind]
        if len(found) > 1:
            raise ParseError(f"duplicate [{kind}] section", found[1][0])
        if required and not found:
            raise ParseError(f"missing [{kind}] section")
        for sec_line, _, body in found:
            for k, lineno, v in _entries(body, kind, parsers):
                got[k] = parsers[k](v, lineno)
            if required and required not in got:
                raise ParseError(missing, sec_line)

    names = _Names(ring)
    for sec_line, header, body in sections:
        kind, *rest = header.split(None, 1)
        if kind in _SETTINGS:
            continue
        if kind not in _SECTIONS:
            raise ParseError(f"unknown section [{header}]", sec_line)
        _SECTIONS[kind](names, rest[0] if rest else "", sec_line, body)

    return Scenario(
        name=name,
        window=tuple(window) if window is not None else got["window"],
        start=start,
        overlap=got["overlap"],
        modules=names.modules,
        maps=names.maps,
        sheaves=names.sheaves,
        checks=list(names.checks.values()),
        expects=names.expects(),
    )


class CheckResult:
    # mutable, unlike the other records: bench/test_bench.py assigns a
    # verdict that contradicts [expect]
    __slots__ = ("name", "tables", "flags", "verdict")

    def __init__(self, name: str, tables: dict, flags: list, verdict: str):
        self.name = name
        self.tables = tables  # table name -> {str(degree): int}, degrees ascending
        self.flags = flags
        self.verdict = verdict


class Report(NamedTuple):
    scenario: str
    window: tuple
    checks: list
    version: str = __version__
    expects: tuple = ()

    def to_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "window": [self.window[0], self.window[1]],
            "checks": [
                {"name": c.name, "tables": c.tables, "flags": c.flags, "verdict": c.verdict}
                for c in self.checks
            ],
            "version": self.version,
        }

    def mismatches(self) -> list:
        got = {c.name: c.verdict for c in self.checks}
        return [(n, v, got.get(n)) for n, v in self.expects
                if got.get(n) != v]

    def exit_code(self) -> int:
        if any(c.verdict == "inconclusive" for c in self.checks):
            return 2
        return 1 if self.mismatches() else 0


def _exactness(rep, prefix: str = "") -> dict:
    return {prefix + part: getattr(rep, part) for part in ("kernel", "homology", "cokernel")}


class _Runner:
    """Materializes scheme/sheaf/map objects once per scenario run."""

    def __init__(self, s: Scenario):
        self.s = s
        self.scheme = DoubleGluedScheme(s.overlap)
        self._sheaves: dict = {}
        self._module_sheaves: dict = {}
        self._maps: dict = {}
        # Gamma(W, O) and Gamma(W, M) of every module M that another twists,
        # held for the whole run: lemma21 and obstruction read Gamma(W, O),
        # and through sections_window every other check on O, on M or on a
        # twist of either reads their complexes, a twist's degree d being
        # its source's d - s; no piece or complex is built before its first
        # use
        sources = dict.fromkeys([s.modules["O"]] + [m.source for m in s.modules.values()
                                                    if m.source is not None])
        self.sections_o, *self._held = [sections_window(m, s.overlap, s.window, s.start)
                                           for m in sources]

    def _table(self, dims) -> dict:
        lo, hi = self.s.window
        return {str(d): int(dims[d]) for d in range(lo, hi + 1)}

    def sheaf(self, name: str) -> QcohSheafOnX:
        got = self._sheaves.get(name)
        if got is None:
            gluing, modname = self.s.sheaves[name]
            mod = self.s.modules[modname]
            if gluing == "identity":
                got = QcohSheafOnX.glued(self.scheme, mod, name=name,
                                         window=self.s.window, start=self.s.start)
            else:
                got = direct_image_from_U(self.scheme, mod, window=self.s.window,
                                          start=self.s.start, name=name)
            self._sheaves[name] = got
        return got

    def module_sheaf(self, mod: FPGradedModule) -> QcohSheafOnX:
        """Identity-glued sheaf of a scenario module, shared across checks so
        sheaf maps stay composable."""
        got = self._module_sheaves.get(mod)
        if got is None:
            got = QcohSheafOnX.glued(self.scheme, mod, name=mod.name,
                                     window=self.s.window, start=self.s.start)
            self._module_sheaves[mod] = got
        return got

    def sheaf_map(self, mapname: str) -> SheafMap:
        """One SheafMap per map name, shared across checks as the sheaves
        are, so its W-sections map and its sequence reports are built once."""
        got = self._maps.get(mapname)
        if got is None:
            u = self.s.maps[mapname]
            got = self._maps[mapname] = SheafMap.glued(
                self.module_sheaf(u.source), self.module_sheaf(u.target), u, name=mapname)
        return got

    def run_check(self, spec: _CheckSpec) -> CheckResult:
        try:
            dims, flags, verdict = _CHECK_FORMS[spec.kind][1](self, *spec.args)
            tables = {name: self._table(table) for name, table in dims.items()}
        except CapExhausted as e:
            return CheckResult(spec.name, {}, [f"cap-exhausted: {e}"], "inconclusive")
        except (GluingMismatch, ValueError, ArithmeticError) as e:
            return CheckResult(spec.name, {}, [f"error: {e}"], "check-error")
        return CheckResult(spec.name, tables, flags, verdict)

    # each handler returns (table name -> {degree: dim}, flags, verdict)

    def _sections(self, sheaf_name, open_name):
        lo, hi = self.s.window
        sh = self.sheaf(sheaf_name)
        mod = sheaf_sections(sh, open_name)
        dims = {d: mod.piece(d).dim for d in range(lo, hi + 1)}
        flags = []
        if open_name == "W":
            flags.append(
                "both-sides-compared" if sh.gluing == "direct-image"
                else "identity-gluing"
            )
        if isinstance(mod, SectionsModule):
            flags.append(kernels_flag(mod.h0(d)[2] for d in range(lo, hi + 1)))
        return {"sections": dims}, flags, "table-computed"

    def _h1_dims(self, modname):
        """The module's sections and its H^1 table, read in ascending
        degree order: a cap-exhausted message names the lowest degree
        that does not stabilize."""
        s = self.s
        sw = sections_window(s.modules[modname], s.overlap, s.window, s.start)
        lo, hi = s.window
        return sw, {d: sw.h1(d)[1] for d in range(lo, hi + 1)}

    def _h1(self, modname):
        sw, dims = self._h1_dims(modname)
        flags = [kernels_flag(sw.h1(d)[2] for d in dims)]
        return {"h1": dims}, flags, "table-computed"

    def _obstruction(self, sheaf_name):
        cert = flat_quotient_obstruction(self.sheaf(sheaf_name), self.sections_o)
        flags = list(cert.flags)
        degs = cert.obstructed_degrees
        if degs:
            flags.append("obstructed-at:" + ",".join(str(d) for d in degs))
        return {"codim": cert.codims}, flags, cert.verdict

    def _star_sequence(self, f_name, g_name, open_name):
        rep = sequence_report(self.sheaf_map(f_name), self.sheaf_map(g_name), open_name)
        return _exactness(rep), list(rep.flags), rep.verdict

    def _bidual(self, f_name, g_name):
        rep = bidual_pipeline(self.sheaf_map(f_name), self.sheaf_map(g_name))
        pu, bv = rep.plus_over_U, rep.bidual_over_V
        tables = {**_exactness(pu, "plus-u-"), **_exactness(bv, "bidual-v-")}
        return tables, [f"plus-over-u:{pu.verdict}"] + list(bv.flags), rep.verdict

    def _lemma21(self, modname):
        tbl = flat_sections_defect(self.s.modules[modname], self.sections_o)
        tables = {"kernel": tbl.kernel, "cokernel": tbl.cokernel,
                  "defect": tbl.defect}
        return tables, list(tbl.flags), "zero-defect" if tbl.total == 0 else "defect-found"

    def _nonaffine_witness(self, modname):
        sw, dims = self._h1_dims(modname or "O")
        wit = witness_nonaffine(sw)
        if wit is None:
            return {"h1": dims}, [], "no-witness-in-window"
        flags = [
            f"degree:{wit.degree}",
            f"representative:{wit.representative}",
            "components:" + ",".join(wit.components),
            f"cap:{wit.cap}",
        ]
        return {"h1": dims}, flags, "witness-found"


# Every check form, once: its keyword, its grammar and its handler.  In a
# grammar SHEAF, MODULE and F, G are names of sheaves, modules and maps
# (F and G must compose), X|U|V|W is one of OPENS, [MODULE] is an optional
# last argument, and any other word is a literal.
_CHECK_FORMS = {
    "sections": ("sections SHEAF over X|U|V|W", _Runner._sections),
    "h1": ("h1 MODULE", _Runner._h1),
    "obstruction": ("obstruction SHEAF", _Runner._obstruction),
    "star-sequence": ("star-sequence F G over X|U|V|W", _Runner._star_sequence),
    "bidual": ("bidual F G", _Runner._bidual),
    "lemma21": ("lemma21 MODULE", _Runner._lemma21),
    "nonaffine-witness": ("nonaffine-witness [MODULE]", _Runner._nonaffine_witness),
}


def run_scenario(s: Scenario) -> Report:
    """Run every check; failures become verdicts, never exceptions."""
    runner = _Runner(s)
    results = [runner.run_check(spec) for spec in s.checks]
    return Report(
        scenario=s.name, window=s.window, checks=results, expects=tuple(s.expects)
    )


def emit_report(report: Report, format: str = "json") -> str:
    """Serialize a report; output is byte-identical across identical runs."""
    if format == "json":
        return json.dumps(report.to_obj(), indent=2) + "\n"
    if format != "table":
        raise ValueError(f"unknown format {format!r}")
    out = [
        f"scenario: {report.scenario}",
        f"window: {report.window[0]}..{report.window[1]}",
        f"version: {report.version}",
    ]
    for c in report.checks:
        out.append("")
        out.append(f"[check {c.name}]")
        out.append(f"verdict: {c.verdict}")
        if c.flags:
            out.append("flags: " + ", ".join(c.flags))
        for tname, table in c.tables.items():
            out.append(f"{tname}:")
            if table:
                width = max(len(k) for k in table)
                for k, v in table.items():
                    out.append(f"  {k.rjust(width)}: {v}")
    out.append("")
    return "\n".join(out)


def _lemma21_builtin_text() -> str:
    head = [
        "# every free module passes the tensor-sections comparison with zero",
        "# defect; the origin skyscraper fails it in degree 0",
        "[ring]",
        "variables = x, y",
        "field = Q",
        "",
        "[options]",
        "window = -6:6",
        "",
        "[scheme]",
        "overlap = x, y",
        "",
    ]
    mods, checks, expects = [], [], []
    for a in range(-3, 4):
        for r in range(1, 5):
            name = f"free_{'m' if a < 0 else 'p'}{abs(a)}_r{r}"
            mods += [f"[module {name}]",
                     "generators = " + ", ".join(str(a) for _ in range(r)), ""]
            checks.append(f"[check lemma21 {name}]")
            expects.append(f"lemma21 {name} = zero-defect")
    mods += ["[module sky]", "generators = 0", "relation = x", "relation = y", ""]
    checks.append("[check lemma21 sky]")
    expects.append("lemma21 sky = defect-found")
    return "\n".join(head + mods + checks + ["", "[expect]"] + expects) + "\n"


BUILTIN_SCENARIOS = {
    "double-origin-flat": """\
# the ideal (x, y) pushed forward to the plane with doubled origin:
# its sections over the overlap fill up to the full polynomial ring,
# and the degree-0 section 1 is not reachable from global multiples
[ring]
variables = x, y
field = Q

[options]
window = -6:6

[scheme]
overlap = x, y

[module I]
generators = 1, 1
relation = y; -x

[sheaf ideal]
direct-image = I

[check sections ideal over W]
[check sections ideal over X]
[check obstruction ideal]

[expect]
sections ideal over W = table-computed
sections ideal over X = table-computed
obstruction ideal = obstructed
""",
    "sections-star": """\
# multiplication by y on the doubled plane: exact on a patch, only left
# exact on the overlap, where the quotient's sections become Laurent
[ring]
variables = x, y
field = Q

[options]
window = -6:6

[scheme]
overlap = x, y

[module A]
generators = 1

[module C]
generators = 0
relation = y

[map mult-y: A -> O]
y

[map quot: O -> C]
1

[check star-sequence mult-y quot over U]
[check star-sequence mult-y quot over W]

[expect]
star-sequence mult-y quot over U = exact
star-sequence mult-y quot over W = left-exact-only
""",
    "h1-punctured": """\
# first cohomology of the punctured plane, with an explicit cocycle
# witnessing that the overlap is not affine
[ring]
variables = x, y
field = Q

[options]
window = -6:6

[scheme]
overlap = x, y

[check h1 O]
[check nonaffine-witness]

[expect]
h1 O = table-computed
nonaffine-witness = witness-found
""",
    "matlis-bidual": """\
# dualizing the multiplication-by-y sequence twice: still exact over the
# patch, but sections over the other patch lose surjectivity
[ring]
variables = x, y
field = Q

[options]
window = -6:6

[scheme]
overlap = x, y

[module A]
generators = 1

[module C]
generators = 0
relation = y

[map mult-y: A -> O]
y

[map quot: O -> C]
1

[check bidual mult-y quot]

[expect]
bidual mult-y quot = left-exact-only
""",
    "lemma21-free": _lemma21_builtin_text(),
    "affine-control": """\
# control run with an affine overlap D(x): no obstruction and no
# cohomological witness can appear
[ring]
variables = x, y
field = Q

[options]
window = -6:6

[scheme]
overlap = x

[module xI]
generators = 1

[sheaf pushed]
direct-image = xI

[check obstruction pushed]
[check nonaffine-witness]

[expect]
obstruction pushed = no-obstruction-in-window
nonaffine-witness = no-witness-in-window
""",
}


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcv",
        description="exact degreewise checks for sheaves on the doubled plane",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--window", default=None, metavar="LO:HI",
                       help="degree window, e.g. --window=-6:6")
        p.add_argument("--den-cap", default=None, type=int, metavar="N",
                       help="starting denominator cap for localizations")
        p.add_argument("--field", default=None, metavar="Q|Fp:P",
                       help="ground field override")
        p.add_argument("--format", default="json", choices=("json", "table"))
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead of stdout")

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("file", help="scenario file path")
    add_common(run_p)

    b_p = sub.add_parser("builtin", help="run a built-in scenario")
    b_p.add_argument("name", help=", ".join(sorted(BUILTIN_SCENARIOS)))
    add_common(b_p)
    return ap


def main(argv=None) -> int:
    ap = _build_arg_parser()
    args = ap.parse_args(argv)

    try:
        window = _parse_window(args.window) if args.window else None
        field = _parse_field_spec(args.field) if args.field else None

        if args.command == "run":
            try:
                with open(args.file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                print(f"qcv: cannot read {args.file!r}: {e}", file=sys.stderr)
                return 3
            name = os.path.splitext(os.path.basename(args.file))[0]
        else:
            if args.name not in BUILTIN_SCENARIOS:
                print(
                    f"qcv: unknown builtin {args.name!r}; available: "
                    + ", ".join(sorted(BUILTIN_SCENARIOS)),
                    file=sys.stderr,
                )
                return 3
            text = BUILTIN_SCENARIOS[args.name]
            name = args.name

        scenario = parse_scenario(text, name=name, field=field, window=window,
                                  start=args.den_cap)
    except (ParseError, NonHomogeneousError) as e:
        print(f"qcv: {e}", file=sys.stderr)
        return 3

    report = run_scenario(scenario)
    rendered = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            print(f"qcv: cannot write {args.out!r}: {e}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(rendered)
    # the report schema has no slot for expectation results, so name the
    # offending checks on stderr where scripts will not see them
    for name, want, got in report.mismatches():
        print(f"qcv: expect mismatch: {name} = {got if got is not None else '(no such check)'}"
              f" (expected {want})", file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit("qcv: run python -m qcverify (or qcv) instead")
