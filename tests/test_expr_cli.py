"""Expression grammar, canonical printing, CLI surface and reports."""

import hashlib
import json
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilschober
from nilschober.algebra import AlgebraError
from nilschober.cli import main, parse_pair
from nilschober.cubes import CubeError
from nilschober.expr import ExprError, eval_string, format_element, parse
from nilschober.fiber import FiberContainmentError, FiberError, total_fiber
from nilschober.linalg import LinAlgError
from nilschober.oracle import OracleError
from nilschober.render import render_level
from nilschober.report import (
    ReportError,
    build_report,
    from_json,
    report_ok,
    to_json,
    validate_report,
)
from nilschober.shuffles import ShuffleError


def test_public_api_is_pinned():
    """The names the package exports; a change to the public API edits
    this list."""
    public = sorted(
        name
        for name, value in vars(nilschober).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert public == [
        "AlgebraElement", "BCVertex", "Composition", "CubeSpec", "FiberReport",
        "FunctorWord", "IntermediateCube", "NilCoxeterModule", "PairCase",
        "TruncatedPolyModule", "bc_vertex", "build_bifactorization",
        "check_adjunction", "check_bicartesian", "check_far_commutativity",
        "check_recursiveness", "classify_pair", "enumerate_shuffles",
        "flip_action_check", "flip_iso", "initial_cube", "mirror_pair",
        "module_decompose", "oracle_matches_diagram", "psi", "psi_inv",
        "realized_total_fiber", "refines", "take_fiber_along", "total_fiber",
    ]


def test_eval_relation_examples():
    assert format_element(eval_string("s1*X1", (2,))) == "X2*s1 + h"
    assert format_element(eval_string("s1*s1", (2,))) == "0"
    assert format_element(eval_string("s1*s2*s1 - s2*s1*s2", (3,))) == "0"


def test_precedence_and_parens():
    # canonical order sorts by (h-power, dots, permutation)
    assert format_element(eval_string("X1 + X2*s1", (2,))) == "X2*s1 + X1"
    assert format_element(eval_string("(X1 + X2)*s1", (2,))) == "X2*s1 + X1*s1"
    assert format_element(eval_string("2*h*1", (2,))) == "2*h"
    assert format_element(eval_string("-s1 + s1", (2,))) == "0"


def test_parse_errors_carry_positions():
    with pytest.raises(ExprError) as err:
        parse("s1 * + X1")
    assert err.value.position == 5
    with pytest.raises(ExprError) as err:
        parse("s")
    assert err.value.position == 0
    with pytest.raises(ExprError) as err:
        parse("(X1")
    with pytest.raises(ExprError) as err:
        parse("X1)")


def test_eval_range_and_block_checks():
    with pytest.raises(ExprError):
        eval_string("s3", (2,))
    for word in ("s4", "X0", "X4"):
        with pytest.raises(ExprError):
            eval_string(word, (3,))
    # s1 crosses the block boundary of (1, 1)
    with pytest.raises(ExprError):
        eval_string("s1", (1, 1))
    assert format_element(eval_string("s1", (2, 1))) == "s1"


def test_print_parse_roundtrip():
    for text in ["s1*X1", "X1*X1*s1 + 2*h", "s1*s2 - s2*s1", "h*h + 1"]:
        canonical = format_element(eval_string(text, (3,)))
        if canonical == "0":
            continue
        again = format_element(eval_string(canonical, (3,)))
        assert again == canonical


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="sX12h*+-() ", max_size=18))
def test_parser_totality(text):
    """Arbitrary input either parses and evaluates or raises ExprError."""
    try:
        eval_string(text, (3,))
    except ExprError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.sampled_from(["1", "h", "s1", "s2", "X1", "X2", "X3", "2"]),
    lambda inner: st.tuples(inner, st.sampled_from("*+-"), inner).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    ),
    max_leaves=8,
))
def test_grammar_valid_expressions_evaluate(text):
    eval_string(text, (3,))


def test_parse_pair():
    assert parse_pair("2,3;2,3") == ((2, 3), (2, 3))
    from nilschober.compositions import CompositionError

    with pytest.raises(CompositionError):
        parse_pair("2,3")
    with pytest.raises(CompositionError):
        parse_pair("2,3;1,1,3")
    with pytest.raises(CompositionError):
        parse_pair("2,3;2,4")


def test_cli_eval_and_shuffles(capsys):
    assert main(["eval", "--tau", "2", "s1*X1"]) == 0
    assert capsys.readouterr().out.strip() == "X2*s1 + h"
    assert main(["shuffles", "--sigma", "5", "--tau", "2,3", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert main(["shuffles", "--sigma", "2,3", "--tau", "2,3", "--list"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3,4,5"
    assert main(
        ["shuffles", "--sigma", "6,3", "--tau", "3,1,2,2,1", "--count"]
    ) == 0
    assert capsys.readouterr().out.strip() == "180"


def test_cli_usage_errors(capsys):
    assert main(["eval", "--tau", "2", "s9"]) == 2
    capsys.readouterr()
    assert main(["shuffles", "--sigma", "2,3", "--tau", "3,2", "--count"]) == 2
    capsys.readouterr()
    assert main(["check", "--n", "99"]) == 2
    capsys.readouterr()


def test_cli_check_and_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--n", "3", "--json", str(out), "--max-oracle", "3"])
    capsys.readouterr()
    assert code == 0
    doc = from_json(out.read_text())
    assert doc["n_total"] == 3
    assert len(doc["pairs"]) == 4
    assert report_ok(doc)
    assert to_json(doc) == out.read_text()


def test_cli_check_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["check", "--n", "4", "--json", str(a), "--max-oracle", "2"])
    main(["check", "--n", "4", "--json", str(b), "--max-oracle", "2"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_check_single_pair(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code = main([
        "check", "--n", "5", "--pair", "2,3;2,3", "--json", str(out),
        "--max-oracle", "2",
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    (entry,) = doc["pairs"]
    levels = {t["level"]: t for t in entry["level_tables"]}
    def ranks(level):
        return {
            tuple(e["index_bits"]): e["rank"] for e in levels[level]["entries"]
        }
    assert ranks(3) == {
        (0, 0, 0): 10, (1, 0, 0): 12, (0, 1, 0): 18, (1, 1, 0): 24,
        (0, 0, 1): 1, (1, 0, 1): 6, (0, 1, 1): 3, (1, 1, 1): 12,
    }
    assert ranks(2) == {(0, 0): 9, (1, 0): 6, (0, 1): 15, (1, 1): 12}
    assert ranks(1) == {(0,): 3, (1,): 3}
    assert ranks(0) == {(): 0}


def test_cli_render_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["render", "--pair", "2,3;2,3", "--level", "1",
                 "--out", str(out1)]) == 0
    assert main(["render", "--pair", "2,3;2,3", "--level", "1",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == ["B1_0.svg", "B1_1.svg"]
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # each B^1 vertex holds three diagrams
    assert (out1 / "B1_0.svg").read_text().count("<text") == 3
    # both vertices hold the same three diagrams; pin their exact bytes
    digest = "89a819c887af3461c165808bed29b336f537feea017084737defb25988bef352"
    for name in files1:
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest


def test_cli_render_bottom_vertex(tmp_path, capsys):
    assert main(["render", "--pair", "2,3;2,3", "--level", "3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    svg = (tmp_path / "B3_001.svg").read_text()
    assert svg.count("<text") == 1  # single identity diagram
    assert "1,2,3,4,5" in svg
    # identity renders with vertical strands only: x1 == x2 on every line
    import re

    for m in re.finditer(r'<line x1="([0-9.]+)" y1="[0-9.]+" x2="([0-9.]+)"', svg):
        assert m.group(1) == m.group(2)


@pytest.mark.parametrize("pair, digest", [
    (((1, 2), (2, 1)), "7870193e2e42ab9cd8f8f23836c56c29284e2022ba21d4b6bbb51a84e7a6e47c"),
    (((2, 3), (3, 2)), "eee1f7fdcc4c6ecbbaaf292be83ecc5b5678a0a45dd7ab9350099fbe3df29687"),
    (((1, 4), (2, 3)), "8b64b8aa308618722aa3258e9c0e70e8ff8630bb4edb1f285dfd0a641ba873c0"),
])
def test_render_mirrored_pair_bytes(tmp_path, pair, digest):
    """Every level of a mirrored (a < c) pair renders to pinned bytes: one
    SHA-256 over each written file's name, a 0 byte and its bytes, level
    by level and in the order render_level returns the files."""
    h = hashlib.sha256()
    for level in range(len(total_fiber(pair).order) + 1):
        for path in render_level(pair, level, tmp_path / str(level)):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


def test_cli_oracle_example(capsys):
    assert main(["oracle", "--example", "nh3-square"]) == 0
    out = capsys.readouterr().out
    assert "bicartesian square" in out and "ok" in out
    assert main(["oracle", "--example", "bogus"]) == 2
    capsys.readouterr()


def test_report_validation_rejects_corruption():
    doc = build_report(2, max_oracle=0)
    validate_report(doc)
    bad = json.loads(to_json(doc))
    bad["pairs"][0]["verdict"] = "Maybe"
    with pytest.raises(ReportError):
        validate_report(bad)
    bad2 = json.loads(to_json(doc))
    bad2["schema_version"] = 99
    with pytest.raises(ReportError):
        validate_report(bad2)
    bad3 = json.loads(to_json(doc))
    bad3["pairs"][0]["level_tables"][0]["entries"][0]["rank"] = -1
    with pytest.raises(ReportError):
        validate_report(bad3)


@pytest.mark.parametrize("where", ["level table", "level entry"])
def test_report_validation_rejects_non_objects(where):
    doc = json.loads(to_json(build_report(2, max_oracle=0)))
    tables = doc["pairs"][0]["level_tables"]
    if where == "level table":
        tables[0] = 5
    else:
        tables[0]["entries"][0] = [1]
    with pytest.raises(ReportError, match=f"bad {where}"):
        from_json(json.dumps(doc))


def test_from_json_rejects_malformed_cases():
    """A case tag or parameters other than `classify_pair` of the entry's
    pair is a ReportError; every case of a real report passes."""
    doc = json.loads(to_json(build_report(4, max_oracle=0)))
    validate_report(doc)
    corrupt = [("tag", tag) for tag in ("Nonsense", "", None, 3)]
    corrupt += [("params", p) for p in ({"a": "x"}, {"zz": [1]}, {"c": True}, [])]
    for key, value in corrupt:
        bad = json.loads(json.dumps(doc))
        bad["pairs"][0]["case"][key] = value
        with pytest.raises(ReportError, match="bad case field"):
            from_json(json.dumps(bad))


def test_from_json_rejects_a_case_of_another_pair():
    """A well-formed case that belongs to a different pair, or a mirrored
    flag that disagrees with it, is a ReportError."""
    doc = json.loads(to_json(build_report(4, max_oracle=0)))
    first, other = doc["pairs"][0], doc["pairs"][-1]
    assert first["case"] != other["case"]
    bad = json.loads(json.dumps(doc))
    bad["pairs"][0]["case"] = other["case"]
    with pytest.raises(ReportError, match="bad case field"):
        from_json(json.dumps(bad))
    bad = json.loads(json.dumps(doc))
    bad["pairs"][0]["mirrored"] = not first["mirrored"]
    with pytest.raises(ReportError, match="bad mirrored flag"):
        from_json(json.dumps(bad))


@pytest.mark.parametrize("ab", [[0, 3], [-1, 4], [3, 0]])
def test_from_json_rejects_nonpositive_pair_parts(ab):
    """A pair part below 1 is a ReportError, not a CompositionError."""
    doc = json.loads(to_json(build_report(3, max_oracle=0)))
    doc["pairs"][0]["pair"]["ab"] = ab
    with pytest.raises(ReportError, match="bad pair field"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda tables: tables.insert(0, json.loads(json.dumps(tables[0]))),
        lambda tables: tables.reverse(),
        lambda tables: tables.pop(),
        lambda tables: tables.pop(0),
    ],
    ids=["duplicated", "reversed", "truncated bottom", "truncated top"],
)
def test_from_json_rejects_misordered_level_tables(corrupt):
    """The level tables run from the Beck-Chevalley cube's axis count
    down to 0, once each."""
    doc = json.loads(to_json(build_report(4, max_oracle=0)))
    corrupt(doc["pairs"][0]["level_tables"])
    with pytest.raises(ReportError, match="level tables must run from 3 down to 0"):
        from_json(json.dumps(doc))


def test_from_json_rejects_a_repeated_pair():
    doc = json.loads(to_json(build_report(3, max_oracle=0)))
    doc["pairs"].append(json.loads(json.dumps(doc["pairs"][1])))
    with pytest.raises(ReportError, match=r"pair \(\(1, 2\), \(2, 1\)\) listed twice"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda e: e.update(
                verdict="FlipEquivalence",
                residual_permutations=[[1, 2, 3], [1, 2, 3]],
            ),
            "residual must be sorted without repeats",
        ),
        (
            lambda e: e.update(residual_permutations=[[2, 1, 3], [1, 2, 3]]),
            "residual must be sorted without repeats",
        ),
        (
            lambda e: e.update(verdict="FlipEquivalence"),
            "verdict FlipEquivalence contradicts the residual",
        ),
        (
            lambda e: e["level_tables"][-1]["entries"][0].update(rank=5),
            "level 0 rank must equal the residual's length",
        ),
        (
            lambda e: e["failures"].append("adjunction fails at (3,) <= (1, 2)"),
            "failures must be listed exactly when a check fails",
        ),
        (
            lambda e: e["checks"].update(recursiveness=False),
            "failures must be listed exactly when a check fails",
        ),
    ],
    ids=[
        "repeated residual", "unsorted residual", "verdict of another residual",
        "level-0 rank", "failure under true checks", "false check, no failure",
    ],
)
def test_from_json_rejects_self_contradicting_entries(corrupt, message):
    """The first entry of the n = 3 report, ((1, 2), (1, 2)), vanishes with
    an empty residual and no failures; each corruption contradicts that."""
    doc = json.loads(to_json(build_report(3, max_oracle=0)))
    entry = doc["pairs"][0]
    assert entry["pair"] == {"ab": [1, 2], "cd": [1, 2]}
    assert entry["verdict"] == "Vanishes" and entry["residual_permutations"] == []
    assert entry["failures"] == []
    corrupt(entry)
    with pytest.raises(ReportError, match=message):
        from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "n, level, index, corrupt, message",
    [
        (3, 2, [1, 0], lambda r: 99, r"level 1 rank at \[1\] .* level 2 along layer"),
        (4, 2, [0, 1], lambda r: 99, r"level 2 rank at \[0, 1\] .* level 3 along"),
        (4, 1, [0], lambda r: r + 1, r"level 1 rank at \[0\] .* level 2 along zeta"),
        (4, 3, [0, 0, 0], lambda r: r + 1, r"level 2 rank at \[0, 0\] .* level 3"),
    ],
    ids=[
        "rank 99 in the top level-2 table", "rank 99 in a lower level-2 table",
        "level-1 rank off by one", "top-table edit",
    ],
)
def test_from_json_rejects_level_tables_that_are_not_finite_differences(
    n, level, index, corrupt, message
):
    """Each lower level table of the first entry must equal upper(..0..) -
    upper(..1..) along the axis its collapse removes; one changed rank
    breaks that at the level it sits in or at the level below.  The first
    case is the n = 3 document with rank 99 at one index of its level-2
    table, which passed before the finite-difference check."""
    doc = json.loads(to_json(build_report(n, max_oracle=0)))
    table = next(t for t in doc["pairs"][0]["level_tables"] if t["level"] == level)
    cell = next(c for c in table["entries"] if c["index_bits"] == index)
    cell["rank"] = corrupt(cell["rank"])
    with pytest.raises(ReportError, match=message):
        from_json(json.dumps(doc))


def test_bad_pair_filter_is_rejected_before_the_global_sweep(monkeypatch):
    import nilschober.report as report_mod

    def sweep(*args):
        raise AssertionError("the global sweep ran")

    monkeypatch.setattr(report_mod, "_global_checks", sweep)
    with pytest.raises(ReportError, match="is not a pair for n=4"):
        build_report(4, pair_filter=((1, 2), (2, 1)), max_oracle=6)


def _level_2_entries(doc):
    return next(t for t in doc["pairs"][0]["level_tables"] if t["level"] == 2)[
        "entries"
    ]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entries: entries.clear(),
        lambda entries: entries.pop(),
        lambda entries: entries.__setitem__(0, dict(entries[1])),
        lambda entries: entries.append(dict(entries[0])),
    ],
    ids=["empty", "missing index", "duplicated index", "extra entry"],
)
def test_from_json_rejects_incomplete_level_tables(corrupt):
    """A level-k table must hold each of the 2^k indices exactly once."""
    doc = json.loads(to_json(build_report(4, max_oracle=0)))
    corrupt(_level_2_entries(doc))
    with pytest.raises(ReportError, match="level 2 table"):
        from_json(json.dumps(doc))


def _set_ab(doc, value):
    doc["pairs"][0]["pair"]["ab"] = value


def _set_residual(doc, value):
    doc["pairs"][0]["residual_permutations"] = value


def _set_level_1(doc, key, value):
    table = next(t for t in doc["pairs"][0]["level_tables"] if t["level"] == 1)
    if key == "level":
        table["level"] = value
    else:
        table["entries"][0][key] = value


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: _set_ab(doc, ["1", 2]),
        lambda doc: _set_residual(doc, [[[1], 2, 3]]),
        lambda doc: _set_level_1(doc, "rank", True),
        lambda doc: _set_ab(doc, [True, 2]),
        lambda doc: _set_level_1(doc, "index_bits", [True]),
        lambda doc: _set_level_1(doc, "level", True),
        lambda doc: doc.update(timing={"total_s": True}),
    ],
    ids=[
        "string part", "nested residual", "bool rank", "bool part",
        "bool index bit", "bool level", "bool timing",
    ],
)
def test_from_json_rejects_non_integers(corrupt):
    """Every malformed number is a ReportError: no TypeError escapes, and a
    JSON boolean is not an integer."""
    doc = json.loads(to_json(build_report(3, max_oracle=0)))
    corrupt(doc)
    with pytest.raises(ReportError):
        from_json(json.dumps(doc))


CHECK_DIGESTS = {
    ("--n", "2"): "a7b830e887c1b0a64ef63273109901a2a9e6efa583482b548d8bd52b45590ea9",
    ("--n", "3"): "29256a390289309bbcc43800805757314db2c7e121e94d1e4c331f8910e4b489",
    ("--n", "4"): "677810e3cf2ca1e56db5bd2f5307ef171f573ef24828b293717ca36049bd0e64",
    ("--n", "5"): "f0c622fb5e075300f4b119dfd7899a6af8e9481ea1a087b6345af012a1d60abf",
    ("--n", "6"): "f1cfdc1b9f8073cb95404a3c80c4c87adedac2527b2aa76ce4f6e0ce51727f96",
    ("--n", "5", "--max-oracle", "5"): (
        "f0c622fb5e075300f4b119dfd7899a6af8e9481ea1a087b6345af012a1d60abf"
    ),
    ("--n", "6", "--max-oracle", "6"): (
        "f1cfdc1b9f8073cb95404a3c80c4c87adedac2527b2aa76ce4f6e0ce51727f96"
    ),
}


@pytest.mark.parametrize("args", list(CHECK_DIGESTS), ids=" ".join)
def test_cli_check_json_digests(args, capsys):
    """The default reports keep their bytes."""
    assert main(["check", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[args]


def test_cli_bad_output_paths_are_usage_errors(monkeypatch, tmp_path, capsys):
    """A --json path whose directory is missing exits 2 before the sweep
    runs; so does a render directory under a regular file."""
    import nilschober.cli as cli_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("build_report ran")

    monkeypatch.setattr(cli_mod, "build_report", no_sweep)
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        assert main(["check", "--n", "4", "--json", str(target)]) == 2
        assert str(target) in capsys.readouterr().err
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out in (afile / "sub", afile):
        assert main(["render", "--pair", "1,1;1,1", "--level", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "internal error" not in err


def test_report_timing_flag():
    doc = build_report(2, max_oracle=0, with_timing=True)
    assert isinstance(doc["timing"]["total_s"], float)
    doc2 = build_report(2, max_oracle=0)
    assert doc2["timing"] is None


def test_cli_axiom_failure_exit_code(monkeypatch, tmp_path, capsys):
    import nilschober.report as report_mod

    monkeypatch.setattr(report_mod, "check_recursiveness", lambda *args: False)
    code = main(["check", "--n", "2", "--json", str(tmp_path / "r.json"),
                 "--max-oracle", "0"])
    capsys.readouterr()
    assert code == 1


def test_cli_forged_verdict_is_an_internal_error(monkeypatch, tmp_path, capsys):
    """A verdict that its own residual contradicts fails report validation:
    an internal error, not an axiom failure."""
    import nilschober.report as report_mod

    real = report_mod.total_fiber

    def forged(pair):
        rep = real(pair)
        rep.verdict = "Other"
        return rep

    monkeypatch.setattr(report_mod, "total_fiber", forged)
    code = main(["check", "--n", "2", "--json", str(tmp_path / "r.json"),
                 "--max-oracle", "0"])
    assert code == 3
    assert "verdict Other contradicts the residual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [
        CubeError, FiberError, OracleError, LinAlgError,
        AlgebraError, ShuffleError, KeyError,
    ],
)
def test_cli_internal_error_exit_code(monkeypatch, tmp_path, capsys, error):
    import nilschober.report as report_mod

    def broken(pair):
        raise error("invariant violated")

    monkeypatch.setattr(report_mod, "total_fiber", broken)
    code = main(["check", "--n", "2", "--json", str(tmp_path / "r.json"),
                 "--max-oracle", "0"])
    err = capsys.readouterr().err
    assert code == 3
    what = "invariant violated"
    if not issubclass(error, ValueError):
        what = f"{error.__name__}: {what!r}"
    assert f"nilschober: internal error: {what}" in err


def test_cli_exit_codes(monkeypatch, tmp_path, capsys):
    """0 all checks pass, 1 axiom failure, 2 usage error, 3 internal error."""
    import nilschober.fiber as fiber_mod

    check = ["check", "--n", "2", "--json", str(tmp_path / "r.json"),
             "--max-oracle", "0"]
    assert main(check) == 0
    assert main(["render", "--pair", "1,1;1,1", "--level", "9",
                 "--out", str(tmp_path)]) == 2
    assert main(["check", "--n", "3", "--pair", "1,1;1,1"]) == 2
    real = fiber_mod._top_vertex  # the 2-strand cube has only the layer axis

    def other(spec, beta, layer):
        outer, inner = real(spec, beta, layer)
        if layer:  # the lower vertex {21}: a wrong residual, the identity
            return outer, frozenset({bytes((2, 1))})
        return outer, inner

    monkeypatch.setattr(fiber_mod, "_top_vertex", other)
    assert main(check) == 1

    def broken(spec, beta, layer):
        raise FiberContainmentError("lower set not inside the upper set")

    monkeypatch.setattr(fiber_mod, "_top_vertex", broken)
    assert main(check) == 3
    err = capsys.readouterr().err
    assert "internal error: lower set not inside the upper set" in err
