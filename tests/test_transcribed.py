"""Every number the package transcribes, other than 0, 1 and 2, is listed.

The test tokenizes each module of ``src/modpoints``.  A top-level name
(a function, a class or an assigned name) whose body holds a number other
than 0, 1 or 2 needs an entry in ``TRANSCRIBED`` under (module, name) that
says what its numbers are:

- ``claim``: a value the paper states, or a datum of its setting (eight
  points, the slice weights), taken as given rather than computed;
- ``formula``: a coefficient or exponent of a closed form from the
  literature;
- ``parameter``: a choice of an algorithm or of the interface, with no
  mathematical content.

The expected values of the rows of ``checks.SUITES`` are the claims that
the suites check, so their numbers are skipped.  An entry whose name no
longer holds such a number fails as stale, so the list shrinks as values
are derived instead of transcribed.
"""

import ast
import io
import tokenize
from pathlib import Path

import modpoints
from modpoints import checks

PACKAGE = Path(modpoints.__file__).parent
KINDS = ("claim", "formula", "parameter")
SMALL = (0, 1, 2)

TRANSCRIBED = {
    # betti: the Betti-number side of the paper
    ("betti", "COMPLEX_DIMENSION"): ("claim", "the moduli space has complex dimension 5"),
    ("betti", "STRATIFICATION_BOUND_BASE"): ("claim", "a stratum's codimension is at least 7 - r"),
    ("betti", "TRUNCATION_ORDER"): ("parameter", "the series are compared modulo t^6"),
    ("betti", "semistable_series"): ("claim", "8 points, truncation t^6, invariants of c^4 by default"),
    ("betti", "normalizer_invariants_series"): ("claim", "the normalizer's invariants are free on c^4"),
    ("betti", "slice_normal_weights"): ("claim", "the weights of degree-8 binary forms"),
    ("betti", "kirwan_betti"): ("claim", "the semistable series of 8 points"),
    ("betti", "IH_BB_ORDERED"): ("claim", "the ordered Baily-Borel IH table (1,8,29,29,8,1)"),
    # blowup: the normal slice and its blow-up
    ("blowup", "scan_stabilizers"): ("claim", "the denominator bound e must be free of the prime 5"),
    ("blowup", "antidiag_resultants"): ("claim", "the antidiagonal action by l^2, l^14 with l^16 = 1"),
    # checks: computations of the suites, outside their expected values
    ("checks", "_stated_verdict"): ("claim", "stability changes where 4 of the 8 points coincide"),
    ("checks", "_odd_degrees"): ("parameter", "the odd degrees 5, 7, 9 and 11 checked"),
    ("checks", "_antidiagonal_locus"): ("formula", "Res_mu(mu t0 + t1, mu^8 - 1) for the 8th roots mu"),
    ("checks", "_semistable_series"): ("claim", "the semistable series of 8 points"),
    ("checks", "_DISCREPANCY_INPUTS"): ("claim", "the inputs of the three stated discrepancies"),
    ("checks", "SUITES"): ("claim", "the degree 8 of the stability rows' computations"),
    # cli: the interface
    ("cli", "MAX_TABLE_DEGREE"): ("parameter", "the largest degree `stability --table` accepts"),
    ("cli", "_perp"): ("parameter", "`fq perp` reads its vector in base 16"),
    ("cli", "main"): ("parameter", "exit code 3 when a computation raised"),
    # fqspace: the quadratic space (F_2)^6
    ("fqspace", "DIMENSION"): ("claim", "the quadratic space has dimension 6"),
    ("fqspace", "_PAD"): ("parameter", "a bytes.translate table has 256 entries"),
    ("fqspace", "_Q"): ("claim", "the form x1 x2 + x3 x4 + x5 x6 read off bits 0 to 5"),
    ("fqspace", "_a7_path"): ("claim", "the A7 Dynkin diagram has 7 nodes"),
    ("fqspace", "coxeter_generators"): ("formula", "the Coxeter exponent m = 3 of adjacent A7 nodes"),
    # picard: the divisor-class ledger
    ("picard", "CANONICAL"): ("claim", "the canonical classes the paper states"),
    ("picard", "RELATIONS"): ("claim", "H = 28 L and the other relations the paper states"),
    ("picard", "MAPS"): ("claim", "the pullback coefficients the paper states"),
    ("picard", "verify_blowup_identities"): ("claim", "the coefficients -2/7 and 3/4 of the identities"),
    ("picard", "normal_bundle_boundary"): ("formula", "adjunction on P^1 x P^1 gives (-3, -3)"),
    ("picard", "_plane_pair_top_intersection"): ("formula", "the top power (a h1 + b h2)^4 on P^2 x P^2"),
    ("picard", "k_equivalence_obstruction"): ("claim", "the prime 5"),
    # poly: algorithm parameters and one classical formula
    ("poly", "EXPONENT_LIMIT"): ("parameter", "exponents stay below 2^15 in a packed monomial"),
    ("poly", "FIELD"): ("parameter", "17 bits per variable in a packed monomial"),
    ("poly", "HEURISTIC_BITS"): ("parameter", "the 2^14-bit guard of the squarefree test's integer images"),
    ("poly", "_levels"): ("parameter", "2^bits >= 2B + 2 bounds the balanced residues"),
    ("poly", "_heuristic_gcd"): ("parameter", "the heuristic gcd grows its point by 73794/27011"),
    ("poly", "discriminant_quartic"): ("formula", "the discriminant of a depressed quartic"),
    ("stability", "luna_slice_basis"): ("claim", "the slice monomials x0^8, x0^7 x1, x0^6 x1^2, mirrored"),
}


def _top_level_spans(tree):
    """(first line, last line, name) of each top-level statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]
            name = ", ".join(names) or f"line {node.lineno}"
            first = node.lineno
        yield first, node.end_lineno, name


def _expected_values(tree):
    """The (start, end) positions of the expected value of each ``Check`` row."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check":
            value = node.args[3]
            spans.append(((value.lineno, value.col_offset), (value.end_lineno, value.end_col_offset)))
    return spans


def _transcribed(path):
    """{name: numbers} for the top-level names of the module at ``path`` that
    hold a number other than 0, 1 or 2, outside the expected values of checks."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    spans = list(_top_level_spans(tree))
    skipped = _expected_values(tree) if path.stem == "checks" else ()
    found = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.NUMBER or ast.literal_eval(token.string) in SMALL:
            continue
        row, column = token.start
        position = (row, len(token.line[:column].encode("utf-8")))  # ast counts bytes
        if any(start <= position < end for start, end in skipped):
            continue
        name = next(name for first, last, name in spans if first <= row <= last)
        found.setdefault(name, []).append(token.string)
    return found


def _package_numbers():
    return {
        (path.stem, name): numbers
        for path in sorted(PACKAGE.glob("*.py"))
        for name, numbers in _transcribed(path).items()
    }


def test_every_transcribed_number_is_listed():
    missing = {key: numbers for key, numbers in _package_numbers().items() if key not in TRANSCRIBED}
    assert not missing, f"add these to TRANSCRIBED as a claim, a formula or a parameter: {missing}"


def test_no_entry_is_stale():
    stale = sorted(set(TRANSCRIBED) - set(_package_numbers()))
    assert not stale, f"these names hold no number other than 0, 1 or 2 any more: {stale}"


def test_each_entry_says_what_its_numbers_are():
    for key, (kind, what) in TRANSCRIBED.items():
        assert kind in KINDS and what, key


def test_the_expected_value_of_every_check_is_skipped():
    tree = ast.parse((PACKAGE / "checks.py").read_text(encoding="utf-8"))
    assert len(_expected_values(tree)) == sum(map(len, checks.SUITES.values()))
    # 40320 and 1152 are stated only as expected values
    numbers = _package_numbers()[("checks", "SUITES")]
    assert "40320" not in numbers and "1152" not in numbers
