"""Workload definitions: each builds one scenario text from a seed.

Every workload names the layers it stresses in ``why``; later changes cite
a workload by its name and this reason.  The program only ever sees the
generated scenario text, through ``parse_scenario``.
"""

import random
from dataclasses import dataclass
from typing import Callable

FP_FIELD = "Fp:65537"
RANDOM_CASES = 8
SMOKE_RANDOM_CASES = 2
COEFFS = (-3, -2, -1, 1, 2, 3)

# (generator degrees, relation degrees) of the random presentations.  The
# shapes are fixed so that every seed asks for a similar amount of work;
# the seed draws the coefficients and the sequence's p.
RANDOM_SHAPES = (
    ((0,), (2,)),
    ((0,), (1, 2)),
    ((1,), (2,)),
    ((0, 0), (1,)),
    ((0, 1), (2,)),
    ((0, 0), (1, 1)),
    ((0, 1), (2, 2)),
    ((1, 1), (2,)),
)


def _monomial(a: int, b: int) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", b)) if e]
    return "*".join(parts) or "1"


def _rand_poly(rng: random.Random, degree: int) -> str:
    """A homogeneous polynomial in x, y whose every monomial has a nonzero
    coefficient in [-3, 3], so no variable divides it and, in degree >= 1,
    it is never a monomial."""
    terms = [f"{rng.choice(COEFFS)}*{_monomial(i, degree - i)}" for i in range(degree, -1, -1)]
    return " + ".join(terms).replace("+ -", "- ")


def random_fp_text(seed: int, window: tuple, cases: int = RANDOM_CASES) -> str:
    rng = random.Random(seed)
    lo, hi = window
    out = [
        "[ring]", "variables = x, y", f"field = {FP_FIELD}", "",
        "[options]", f"window = {lo}:{hi}", "",
        "[scheme]", "overlap = x, y", "",
    ]
    checks, expects = [], []
    for k in range(cases):
        gens, rel_degs = RANDOM_SHAPES[k % len(RANDOM_SHAPES)]
        out += [f"[module M{k}]", "generators = " + ", ".join(map(str, gens))]
        for c in rel_degs:
            out.append("relation = " + "; ".join(_rand_poly(rng, c - e) for e in gens))
        pdeg = 1 + k % 2
        p = _rand_poly(rng, pdeg)
        out += [
            "", f"[sheaf S{k}]", f"patch = M{k}", "",
            f"[module A{k}]", f"generators = {pdeg}", "",
            f"[module C{k}]", "generators = 0", f"relation = {p}", "",
            f"[map f{k}: A{k} -> O]", p, "",
            f"[map g{k}: O -> C{k}]", "1", "",
        ]
        seq = f"f{k} g{k}"
        checks += [
            f"sections S{k} over W", f"sections S{k} over X", f"h1 M{k}",
            f"lemma21 M{k}", f"star-sequence {seq} over U",
            f"star-sequence {seq} over W", f"bidual {seq}",
        ]
        # U is affine, so the sequence of sections over U is exact
        expects.append(f"star-sequence {seq} over U = exact")
    out += [f"[check {c}]" for c in checks]
    out += ["", "[expect]"] + expects
    return "\n".join(out) + "\n"


def _builtin(name: str):
    def text(seed: int, window: tuple, smoke: bool) -> str:
        from qcverify import BUILTIN_SCENARIOS

        return BUILTIN_SCENARIOS[name]
    return text


def _random_fp(seed: int, window: tuple, smoke: bool) -> str:
    return random_fp_text(seed, window, SMOKE_RANDOM_CASES if smoke else RANDOM_CASES)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario text built from a seed, at a window
    passed to parse_scenario (the `qcv --window` override)."""

    name: str
    why: str
    make_text: Callable  # (seed, window, smoke) -> scenario text
    window: tuple
    smoke_window: tuple
    seeded: bool  # whether the seed changes the input

    def window_for(self, smoke: bool) -> tuple:
        return self.smoke_window if smoke else self.window

    def scenario_text(self, seed: int, smoke: bool) -> str:
        return self.make_text(seed, self.window_for(smoke), smoke)


# The windows are below the built-ins' own -6:6 so that one cold run takes
# about 4-5 s on a 2-core machine and a 30 s run holds several of them
# (lemma21-free alone takes about 40 s at -6:6).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "defect-grid",
            "the slowest built-in (lemma21-free): Mat products, power_act and GC, "
            "no heavy localizations; memory and GC changes show here",
            _builtin("lemma21-free"), (-2, 2), (-1, 1), seeded=False,
        ),
        Workload(
            "overlap-window",
            "the headline counterexample (double-origin-flat), window as size knob: "
            "large very sparse rref in localize_piece and Cech degrees, no tensors",
            _builtin("double-origin-flat"), (-4, 4), (-1, 1), seeded=False,
        ),
        Workload(
            "random-fp",
            "seeded presentations over F_65537 with non-monomial relations: prime-field "
            "arithmetic, entries other than 0/+-1, heuristic torsion, matlis",
            _random_fp, (-2, 2), (-1, 1), seeded=True,
        ),
    )
}

DEFAULT_SEED = 1

# sha256 of emit_report(..., "json"), recorded from the unchanged program:
# (workload, smoke) -> digest.  Seeded workloads record the default seed.
DIGESTS = {
    ("defect-grid", False): "b9308991371a837c943a0e0ee81cc6a2cd1ed637a0f6f4a261480f97918ec25f",
    ("overlap-window", False): "a80737f192c72ca368c3ddf18a09f7d4cacf296c91da36bf4d0210bfb2f15edf",
    ("random-fp", False): "ddc6aefbd9f7e62e8d60b110ad824450e22be99aef34f086564e31122e58615c",
    ("defect-grid", True): "9c08b4bae823f1238ce0ca2ea634d8b87bb4d15dd6dd085fa188e0266e88c300",
    ("overlap-window", True): "f3bb2afc9f595a896b3bc95bc182392d8b0bcd1456db286c9ec4db7a7c010d5d",
    ("random-fp", True): "b369aa14988b96e1bfbc3e9f00360014b2158b4ac4b12ecf444034d55db660fd",
}

# counts that must repeat exactly for the same code and seed, recorded from
# a traced run of the unchanged program: (workload, smoke) -> counts
RECORDED_COUNTS = {
    ("defect-grid", False): {
        "exact_linalg.rref.calls": 918,
        "exact_linalg.rref.cells": 1358836,
        "exact_linalg.rref.nnz": 27188,
        "exact_linalg.matmul.calls": 15059,
        "localization_cech.localize_piece.calls": 1636,
        "localization_cech.complexes_built": 90,
        "gc.collections": 1674,
    },
    ("overlap-window", False): {
        "exact_linalg.rref.calls": 1505,
        "exact_linalg.rref.cells": 2482703,
        "exact_linalg.rref.nnz": 46295,
        "exact_linalg.matmul.calls": 3760,
        "localization_cech.localize_piece.calls": 606,
        "localization_cech.complexes_built": 12,
        "gc.collections": 998,
    },
    ("random-fp", False): {
        "exact_linalg.rref.calls": 6638,
        "exact_linalg.rref.cells": 994680,
        "exact_linalg.rref.nnz": 77515,
        "exact_linalg.matmul.calls": 15990,
        "localization_cech.localize_piece.calls": 3276,
        "localization_cech.complexes_built": 198,
        "gc.collections": 1577,
    },
}


def recorded(table: dict, name: str, seed: int, smoke: bool):
    """The entry of DIGESTS or RECORDED_COUNTS that applies to a run, or
    None; a seeded workload has entries for DEFAULT_SEED only."""
    if WORKLOADS[name].seeded and seed != DEFAULT_SEED:
        return None
    return table.get((name, smoke))
