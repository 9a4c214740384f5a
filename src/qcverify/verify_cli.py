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

The module O (free, rank one, generator in degree 0) is predefined.
Check forms: `sections SHEAF over X|U|V|W`, `h1 MODULE`,
`obstruction SHEAF`, `star-sequence F G over OPEN`, `bidual F G`,
`lemma21 MODULE`, `nonaffine-witness [MODULE]`.

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
from dataclasses import dataclass, field as dc_field

from . import __version__
from .exact_linalg import FieldSpec, Mat
from .graded_modules import (
    FPGradedModule,
    GradedModuleMap,
    HomogPoly,
    NonHomogeneousError,
    PolyRing,
    RelationNotKilled,
    free_module,
    map_from_gen_images,
)
from .localization_cech import (
    DEFAULT_WINDOW,
    CapExhausted,
    CapPolicy,
    OpenSubset,
    SectionsModule,
    h1_window,
    sections_window,
)
from .glued_scheme import (
    BufferTooSmall,
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

OPENS = ("X", "U", "V", "W")


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


@dataclass
class _MapEntry:
    name: str
    src: str
    tgt: str
    gmap: GradedModuleMap


@dataclass
class _CheckSpec:
    kind: str
    args: tuple
    name: str  # canonical text, also the JSON check name


@dataclass
class Scenario:
    """A parsed and validated scenario, ready to run."""

    name: str
    field: FieldSpec
    ring: PolyRing
    window: tuple
    policy: CapPolicy | None
    overlap: OpenSubset
    modules: dict
    maps: dict
    sheaves: dict
    checks: list
    expects: list  # (check name, expected verdict) in file order


def _parse_field_spec(text: str) -> FieldSpec:
    t = text.strip()
    if t in ("Q", "q"):
        return FieldSpec.rationals()
    if t.lower().startswith("fp:"):
        try:
            return FieldSpec.prime(int(t[3:]))
        except ValueError as e:
            raise ParseError(f"bad prime field spec {text!r}: {e}")
    raise ParseError(f"unknown field {text!r}: expected Q or Fp:P")


def _parse_window(text: str) -> tuple:
    t = text.strip()
    if ":" not in t:
        raise ParseError(f"bad window {text!r}: expected LO:HI")
    lo_s, hi_s = t.split(":", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError(f"bad window {text!r}: expected integers LO:HI")
    if lo > hi:
        raise ParseError(f"bad window {text!r}: lo > hi")
    return (lo, hi)


def _lines(text: str):
    """(lineno, content) with comments and blanks stripped."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def _split_kv(line: str, lineno: int) -> tuple:
    if "=" not in line:
        raise ParseError(f"expected 'key = value', got {line!r}", lineno)
    k, v = line.split("=", 1)
    return k.strip(), v.strip()


def _poly(ring: PolyRing, text: str, lineno: int) -> HomogPoly | None:
    """Parse one polynomial entry; '0' (or a zero result) means None."""
    try:
        p = HomogPoly.parse(ring, text)
    except NonHomogeneousError as e:
        raise NonHomogeneousError(f"line {lineno}: {e}", line=lineno) from e
    except ValueError as e:
        raise ParseError(f"bad polynomial {text!r}: {e}", lineno)
    return None if p.is_zero() else p


def parse_scenario(text: str, name: str = "scenario",
                   field: FieldSpec | None = None,
                   window: tuple | None = None,
                   policy: CapPolicy | None = None) -> Scenario:
    """Parse and fully validate a scenario; the keyword arguments are
    command-line overrides applied on top of the file's own settings."""
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
            current = (lineno, header, [])
            sections.append(current)
        else:
            if current is None:
                raise ParseError("content before the first section", lineno)
            current[2].append((lineno, line))
    if not sections:
        raise ParseError("empty scenario: no sections found")

    # ring first: everything else needs it
    ring_secs = [s for s in sections if s[1] == "ring"]
    if not ring_secs:
        raise ParseError("missing [ring] section")
    if len(ring_secs) > 1:
        raise ParseError("duplicate [ring] section", ring_secs[1][0])
    variables = None
    file_field = FieldSpec.rationals()
    for lineno, line in ring_secs[0][2]:
        k, v = _split_kv(line, lineno)
        if k == "variables":
            variables = tuple(t.strip() for t in v.split(",") if t.strip())
            if not variables:
                raise ParseError("no variables listed", lineno)
        elif k == "field":
            try:
                file_field = _parse_field_spec(v)
            except ParseError as e:
                raise ParseError(e.message, lineno)
        else:
            raise ParseError(f"unknown [ring] key {k!r}", lineno)
    if variables is None:
        raise ParseError("[ring] must list variables", ring_secs[0][0])
    the_field = field if field is not None else file_field
    ring = PolyRing(the_field, variables)

    file_window = DEFAULT_WINDOW
    for sec_line, header, body in sections:
        if header != "options":
            continue
        for lineno, line in body:
            k, v = _split_kv(line, lineno)
            if k == "window":
                try:
                    file_window = _parse_window(v)
                except ParseError as e:
                    raise ParseError(e.message, lineno)
            else:
                raise ParseError(f"unknown [options] key {k!r}", lineno)
    the_window = tuple(window) if window is not None else file_window

    scheme_secs = [s for s in sections if s[1] == "scheme"]
    if not scheme_secs:
        raise ParseError("missing [scheme] section")
    if len(scheme_secs) > 1:
        raise ParseError("duplicate [scheme] section", scheme_secs[1][0])
    overlap = None
    for lineno, line in scheme_secs[0][2]:
        k, v = _split_kv(line, lineno)
        if k != "overlap":
            raise ParseError(f"unknown [scheme] key {k!r}", lineno)
        denoms = []
        for part in v.split(","):
            p = _poly(ring, part, lineno)
            if p is None:
                raise ParseError("overlap denominators must be nonzero", lineno)
            denoms.append(p)
        overlap = OpenSubset(ring, denoms)
    if overlap is None:
        raise ParseError("[scheme] must set overlap", scheme_secs[0][0])

    modules: dict = {"O": free_module(ring, (0,), name="O")}
    maps: dict = {}
    sheaves: dict = {}
    checks: list = []
    expect_lines: list = []

    for sec_line, header, body in sections:
        parts = header.split(None, 1)
        kind = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if kind in ("ring", "options", "scheme"):
            continue

        if kind == "module":
            if not rest:
                raise ParseError("[module] needs a name", sec_line)
            mname = rest
            if mname in modules:
                raise ParseError(f"duplicate module name {mname!r}", sec_line)
            gen_degrees = None
            relation_rows: list = []
            for lineno, line in body:
                k, v = _split_kv(line, lineno)
                if k == "generators":
                    try:
                        gen_degrees = tuple(int(t) for t in v.split(",") if t.strip())
                    except ValueError:
                        raise ParseError("generator degrees must be integers", lineno)
                elif k == "relation":
                    relation_rows.append((lineno, v))
                else:
                    raise ParseError(f"unknown [module] key {k!r}", lineno)
            if gen_degrees is None:
                raise ParseError(f"module {mname!r} lists no generators", sec_line)
            relations = []
            for lineno, row in relation_rows:
                entries = [_poly(ring, part, lineno) for part in row.split(";")]
                if len(entries) != len(gen_degrees):
                    raise ParseError(
                        f"relation has {len(entries)} entries, module has "
                        f"{len(gen_degrees)} generators",
                        lineno,
                    )
                relations.append(tuple(entries))
            try:
                modules[mname] = FPGradedModule(
                    ring, gen_degrees, tuple(relations), name=mname
                )
            except NonHomogeneousError as e:
                raise NonHomogeneousError(f"module {mname!r}: {e}", line=sec_line) from e

        elif kind == "map":
            if ":" not in rest:
                raise ParseError("expected [map NAME: SRC -> TGT]", sec_line)
            mapname, arrow = rest.split(":", 1)
            mapname = mapname.strip()
            if "->" not in arrow:
                raise ParseError("expected [map NAME: SRC -> TGT]", sec_line)
            src_name, tgt_name = (t.strip() for t in arrow.split("->", 1))
            if not mapname or not src_name or not tgt_name:
                raise ParseError("expected [map NAME: SRC -> TGT]", sec_line)
            if mapname in maps:
                raise ParseError(f"duplicate map name {mapname!r}", sec_line)
            if src_name not in modules:
                raise UnknownName(src_name, sec_line)
            if tgt_name not in modules:
                raise UnknownName(tgt_name, sec_line)
            src, tgt = modules[src_name], modules[tgt_name]
            if len(body) != src.ngens:
                raise ParseError(
                    f"map {mapname!r} needs one line per source generator "
                    f"({src.ngens}), got {len(body)}",
                    sec_line,
                )
            images = []
            for i, (lineno, line) in enumerate(body):
                entries = [_poly(ring, part, lineno) for part in line.split(";")]
                if len(entries) != tgt.ngens:
                    raise ParseError(
                        f"image line has {len(entries)} entries, target has "
                        f"{tgt.ngens} generators",
                        lineno,
                    )
                col = None
                for j, p in enumerate(entries):
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
                        ring.field, tgt.piece(src.gen_degrees[i]).dim, 1
                    )
                images.append(col)
            try:
                gmap = map_from_gen_images(src, tgt, images)
            except RelationNotKilled as e:
                raise ParseError(f"map {mapname!r}: {e}", sec_line)
            gmap.name = mapname
            maps[mapname] = _MapEntry(mapname, src_name, tgt_name, gmap)

        elif kind == "sheaf":
            if not rest:
                raise ParseError("[sheaf] needs a name", sec_line)
            sname = rest
            if sname in sheaves:
                raise ParseError(f"duplicate sheaf name {sname!r}", sec_line)
            spec = None
            for lineno, line in body:
                k, v = _split_kv(line, lineno)
                if k not in ("patch", "direct-image"):
                    raise ParseError(f"unknown [sheaf] key {k!r}", lineno)
                if v not in modules:
                    raise UnknownName(v, lineno)
                gluing = "identity" if k == "patch" else "direct-image"
                spec = (gluing, v)
            if spec is None:
                raise ParseError(
                    f"sheaf {sname!r} needs 'patch = M' or 'direct-image = M'",
                    sec_line,
                )
            sheaves[sname] = spec

        elif kind == "check":
            spec = _parse_check(rest, sec_line, modules, maps, sheaves)
            if any(c.name == spec.name for c in checks):
                raise ParseError(f"duplicate check {spec.name!r}", sec_line)
            checks.append(spec)

        elif kind == "expect":
            expect_lines.extend(body)

        else:
            raise ParseError(f"unknown section [{header}]", sec_line)

    expects = []
    check_names = {c.name for c in checks}
    for lineno, line in expect_lines:
        if "=" not in line:
            raise ParseError("expected '<check name> = <verdict>'", lineno)
        cname, verdict = (t.strip() for t in line.rsplit("=", 1))
        cname = " ".join(cname.split())
        if cname not in check_names:
            raise UnknownName(cname, lineno)
        if verdict not in VERDICTS:
            raise ParseError(f"unknown verdict {verdict!r}", lineno)
        expects.append((cname, verdict))

    return Scenario(
        name=name,
        field=the_field,
        ring=ring,
        window=the_window,
        policy=policy,
        overlap=overlap,
        modules=modules,
        maps=maps,
        sheaves=sheaves,
        checks=checks,
        expects=expects,
    )


def _parse_check(rest: str, lineno: int, modules, maps, sheaves) -> _CheckSpec:
    toks = rest.split()
    if not toks:
        raise ParseError("[check] needs a check form", lineno)
    canonical = " ".join(toks)
    kind = toks[0]

    if kind == "sections":
        if len(toks) != 4 or toks[2] != "over" or toks[3] not in OPENS:
            raise ParseError("expected: sections SHEAF over X|U|V|W", lineno)
        if toks[1] not in sheaves:
            raise UnknownName(toks[1], lineno)
        return _CheckSpec("sections", (toks[1], toks[3]), canonical)
    if kind == "h1":
        if len(toks) != 2:
            raise ParseError("expected: h1 MODULE", lineno)
        if toks[1] not in modules:
            raise UnknownName(toks[1], lineno)
        return _CheckSpec("h1", (toks[1],), canonical)
    if kind == "obstruction":
        if len(toks) != 2:
            raise ParseError("expected: obstruction SHEAF", lineno)
        if toks[1] not in sheaves:
            raise UnknownName(toks[1], lineno)
        return _CheckSpec("obstruction", (toks[1],), canonical)
    if kind == "star-sequence":
        if len(toks) != 5 or toks[3] != "over" or toks[4] not in OPENS:
            raise ParseError("expected: star-sequence F G over X|U|V|W", lineno)
        for t in (toks[1], toks[2]):
            if t not in maps:
                raise UnknownName(t, lineno)
        if maps[toks[1]].tgt != maps[toks[2]].src:
            raise ParseError(
                f"maps {toks[1]!r} and {toks[2]!r} do not compose", lineno
            )
        return _CheckSpec("star-sequence", (toks[1], toks[2], toks[4]), canonical)
    if kind == "bidual":
        if len(toks) != 3:
            raise ParseError("expected: bidual F G", lineno)
        for t in (toks[1], toks[2]):
            if t not in maps:
                raise UnknownName(t, lineno)
        if maps[toks[1]].tgt != maps[toks[2]].src:
            raise ParseError(
                f"maps {toks[1]!r} and {toks[2]!r} do not compose", lineno
            )
        return _CheckSpec("bidual", (toks[1], toks[2]), canonical)
    if kind == "lemma21":
        if len(toks) != 2:
            raise ParseError("expected: lemma21 MODULE", lineno)
        if toks[1] not in modules:
            raise UnknownName(toks[1], lineno)
        return _CheckSpec("lemma21", (toks[1],), canonical)
    if kind == "nonaffine-witness":
        if len(toks) == 1:
            return _CheckSpec("nonaffine-witness", (None,), canonical)
        if len(toks) == 2:
            if toks[1] not in modules:
                raise UnknownName(toks[1], lineno)
            return _CheckSpec("nonaffine-witness", (toks[1],), canonical)
        raise ParseError("expected: nonaffine-witness [MODULE]", lineno)
    raise ParseError(f"unknown check form {kind!r}", lineno)


@dataclass
class CheckResult:
    name: str
    tables: dict  # table name -> {str(degree): int}, degrees ascending
    flags: list
    verdict: str


@dataclass
class Report:
    scenario: str
    window: tuple
    checks: list
    version: str = __version__
    expects: list = dc_field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "window": [self.window[0], self.window[1]],
            "checks": [
                {
                    "name": c.name,
                    "tables": c.tables,
                    "flags": list(c.flags),
                    "verdict": c.verdict,
                }
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


class _Runner:
    """Materializes scheme/sheaf/map objects once per scenario run."""

    def __init__(self, s: Scenario):
        self.s = s
        self.scheme = DoubleGluedScheme(s.ring, s.overlap)
        self._sheaves: dict = {}
        self._module_sheaves: dict = {}
        # Gamma(W, O), held for the whole run: lemma21 reads it, and through
        # sections_window every other check on O shares its complexes;
        # its pieces are still built on first use
        self.sections_o = sections_window(s.modules["O"], s.overlap,
                                          s.window, s.policy)

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
                                         window=self.s.window, policy=self.s.policy)
            else:
                got = direct_image_from_U(self.scheme, mod, window=self.s.window,
                                          policy=self.s.policy, name=name)
            self._sheaves[name] = got
        return got

    def module_sheaf(self, modname: str) -> QcohSheafOnX:
        """Identity-glued sheaf of a named module, shared across checks so
        sheaf maps stay composable."""
        got = self._module_sheaves.get(modname)
        if got is None:
            got = QcohSheafOnX.glued(
                self.scheme, self.s.modules[modname], name=modname,
                window=self.s.window, policy=self.s.policy,
            )
            self._module_sheaves[modname] = got
        return got

    def sheaf_map(self, mapname: str) -> SheafMap:
        e = self.s.maps[mapname]
        return SheafMap.glued(
            self.module_sheaf(e.src), self.module_sheaf(e.tgt), e.gmap, name=mapname
        )

    def run_check(self, spec: _CheckSpec) -> CheckResult:
        try:
            return self._dispatch(spec)
        except CapExhausted as e:
            return CheckResult(spec.name, {}, [f"cap-exhausted: {e}"], "inconclusive")
        except (GluingMismatch, BufferTooSmall, NonHomogeneousError,
                RelationNotKilled, ValueError, ArithmeticError) as e:
            return CheckResult(spec.name, {}, [f"error: {e}"], "check-error")

    def _dispatch(self, spec: _CheckSpec) -> CheckResult:
        s = self.s
        lo, hi = s.window
        if spec.kind == "sections":
            sheaf_name, open_name = spec.args
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
                ok = all(mod.certified(d) for d in range(lo, hi + 1))
                flags.append("kernels-certified" if ok else "kernels-heuristic")
            return CheckResult(
                spec.name, {"sections": self._table(dims)}, flags, "table-computed"
            )

        if spec.kind == "h1":
            (modname,) = spec.args
            res = h1_window(s.modules[modname], s.overlap, s.window, s.policy)
            ok = all(res.certified[d] for d in range(lo, hi + 1))
            flags = ["kernels-certified" if ok else "kernels-heuristic"]
            return CheckResult(
                spec.name, {"h1": self._table(res.dims)}, flags, "table-computed"
            )

        if spec.kind == "obstruction":
            (sheaf_name,) = spec.args
            cert = flat_quotient_obstruction(self.sheaf(sheaf_name))
            flags = list(cert.flags)
            degs = cert.obstructed_degrees
            if degs:
                flags.append("obstructed-at:" + ",".join(str(d) for d in degs))
            verdict = "obstructed" if degs else "no-obstruction-in-window"
            return CheckResult(
                spec.name, {"codim": self._table(cert.codims)}, flags, verdict
            )

        if spec.kind == "star-sequence":
            f_name, g_name, open_name = spec.args
            rep = sequence_report(self.sheaf_map(f_name), self.sheaf_map(g_name), open_name)
            tables = {
                "kernel": self._table(rep.kernel),
                "homology": self._table(rep.homology),
                "cokernel": self._table(rep.cokernel),
            }
            return CheckResult(spec.name, tables, list(rep.flags), rep.verdict)

        if spec.kind == "bidual":
            f_name, g_name = spec.args
            rep = bidual_pipeline(self.sheaf_map(f_name), self.sheaf_map(g_name))
            pu, bv = rep.plus_over_U, rep.bidual_over_V
            tables = {
                "plus-u-kernel": self._table(pu.kernel),
                "plus-u-homology": self._table(pu.homology),
                "plus-u-cokernel": self._table(pu.cokernel),
                "bidual-v-kernel": self._table(bv.kernel),
                "bidual-v-homology": self._table(bv.homology),
                "bidual-v-cokernel": self._table(bv.cokernel),
            }
            flags = [f"plus-over-u:{pu.verdict}"] + list(bv.flags)
            return CheckResult(spec.name, tables, flags, rep.verdict)

        if spec.kind == "lemma21":
            (modname,) = spec.args
            tbl = flat_sections_defect(s.modules[modname], s.overlap,
                                       window=s.window, policy=s.policy,
                                       sections_o=self.sections_o)
            tables = {
                "kernel": self._table(tbl.kernel),
                "cokernel": self._table(tbl.cokernel),
                "defect": self._table(tbl.defect),
            }
            verdict = "zero-defect" if tbl.total == 0 else "defect-found"
            return CheckResult(spec.name, tables, list(tbl.flags), verdict)

        if spec.kind == "nonaffine-witness":
            (modname,) = spec.args
            res = h1_window(s.modules[modname or "O"], s.overlap, s.window, s.policy)
            wit = witness_nonaffine(s.overlap, s.window, policy=s.policy, h1=res)
            tables = {"h1": self._table(res.dims)}
            if wit is None:
                return CheckResult(spec.name, tables, [], "no-witness-in-window")
            flags = [
                f"degree:{wit.degree}",
                f"representative:{wit.representative}",
                "components:" + ",".join(wit.components),
                f"cap:{wit.cap}",
            ]
            return CheckResult(spec.name, tables, flags, "witness-found")

        raise ValueError(f"unhandled check kind {spec.kind!r}")


def run_scenario(s: Scenario) -> Report:
    """Run every check; failures become verdicts, never exceptions."""
    runner = _Runner(s)
    results = [runner.run_check(spec) for spec in s.checks]
    return Report(
        scenario=s.name, window=s.window, checks=results, expects=list(s.expects)
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
        policy = None
        if args.den_cap is not None:
            if args.den_cap < 1:
                raise ParseError("--den-cap must be positive")
            policy = CapPolicy(start=args.den_cap)

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
                                  policy=policy)
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
    sys.exit(main())
