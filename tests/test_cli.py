import contextlib
import importlib.util
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONJUGATED_PARTS,
    IntSubclass,
    conjugated_draw,
    iota_complex_to_dict,
    parts_strategy,
    perturbed_t34_mirror_t23,
    staircase_strategy,
    staircase_sum,
)
from iotak import cli, serialize
from iotak.complexes import (EQUIVARIANT, SKEW, BasisElement, FreeComplex, Morphism, compose,
                             homotopy_solve, tensor, tensor_morphism)
from iotak.invariants import InvariantError, a_zero_minus, reduce_tower
from iotak.iota import (IotaComplex, product, search_local_equivalence, verify_iota_complex,
                        verify_local_equivalence)
from iotak.models import staircase_complex, torus_knot


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_torus_emits_parseable_file(tmp_path, capsys):
    path = tmp_path / "tr.json"
    code, out, err = run(capsys, "torus", "2", "3", "-o", str(path))
    assert code == 0
    name, ic = serialize.load(str(path))
    assert name == "T(2,3)"
    assert len(ic.complex) == 3


def test_round_trip_byte_identical(tmp_path, capsys):
    path = tmp_path / "t34.json"
    run(capsys, "torus", "3", "4", "-o", str(path))
    first = path.read_bytes()
    name, ic = serialize.load(str(path))
    assert serialize.dumps(name, ic).encode() == first


T23_FILE = (
    '{\n  "name": "T(2,3)",\n  "generators": [\n'
    '    {\n      "name": "x0",\n      "gr_u": 0,\n      "gr_v": -2\n    },\n'
    '    {\n      "name": "x1",\n      "gr_u": -1,\n      "gr_v": -1\n    },\n'
    '    {\n      "name": "x2",\n      "gr_u": -2,\n      "gr_v": 0\n    }\n  ],\n'
    '  "differential": [\n'
    '    {\n      "from": "x1",\n      "to": "x0",\n      "mono": [\n'
    '        [\n          1,\n          0\n        ]\n      ]\n    },\n'
    '    {\n      "from": "x1",\n      "to": "x2",\n      "mono": [\n'
    '        [\n          0,\n          1\n        ]\n      ]\n    }\n  ],\n'
    '  "iota": [\n'
    '    {\n      "from": "x0",\n      "to": "x2",\n      "mono": [\n'
    '        [\n          0,\n          0\n        ]\n      ]\n    },\n'
    '    {\n      "from": "x1",\n      "to": "x1",\n      "mono": [\n'
    '        [\n          0,\n          0\n        ]\n      ]\n    },\n'
    '    {\n      "from": "x2",\n      "to": "x0",\n      "mono": [\n'
    '        [\n          0,\n          0\n        ]\n      ]\n    }\n  ]\n}\n'
).encode()


def test_torus_file_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "t23.json"
    assert run(capsys, "torus", "2", "3", "-o", str(path)) == (0, "", "")
    assert path.read_bytes() == T23_FILE


def _assert_round_trip(path, name, ic):
    """save writes json.dumps(doc, indent=2) + "\\n" of the document
    iota_complex_to_dict builds; load and save again: the same complex
    and the same bytes."""
    serialize.save(path, name, ic)
    first = Path(path).read_bytes()
    assert first == _indent2(iota_complex_to_dict(name, ic)).encode()
    name2, ic2 = serialize.load(path)
    assert name2 == name
    assert ic2.complex.basis == ic.complex.basis
    assert ic2.complex.diff == ic.complex.diff
    assert ic2.iota.entries == ic.iota.entries
    serialize.save(path, name2, ic2)
    assert Path(path).read_bytes() == first


@settings(max_examples=25, deadline=None)
@given(parts_strategy, st.sampled_from([1, 2]))
def test_save_load_round_trips_sums(parts, variant):
    with tempfile.TemporaryDirectory() as d:
        _assert_round_trip(os.path.join(d, "s.json"), "K", staircase_sum(parts, variant))


@settings(max_examples=25, deadline=None)
@given(parts_strategy, st.sampled_from([1, 2]), st.randoms(use_true_random=False))
def test_conjugated_basis_keeps_the_axioms_and_the_invariants(tmp_path_factory, parts, variant,
                                                             rnd):
    """A sum in a conjugated basis (conftest.conjugated) passes all six
    axioms, is locally equivalent to the sum, round-trips byte-identically,
    and invariants prints for its file the JSON, triple included, of the
    unconjugated file."""
    ic = staircase_sum(parts, variant)
    conj = conjugated_draw(ic, rnd)
    assert verify_iota_complex(conj).passed
    assert search_local_equivalence(ic, conj, cap=10**9) is not None
    tmp = tmp_path_factory.mktemp("conjugated")
    plain, conj_path = str(tmp / "plain.json"), str(tmp / "conj.json")
    serialize.save(plain, "K", ic)
    _assert_round_trip(conj_path, "K", conj)
    outputs = []
    for path in (plain, conj_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["invariants", path]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


def test_escaped_generator_names_round_trip(tmp_path):
    """Names with a quote, a backslash and non-ASCII characters are
    written as JSON escapes and read back unchanged."""
    t = torus_knot(2, 3)
    names = ('q"0', "b\\1", "\u00e9\u2603\U0001d54c")
    basis = [BasisElement(n, b.gr_u, b.gr_v) for n, b in zip(names, t.complex.basis)]
    cx = FreeComplex(basis, t.complex.diff)
    ic = IotaComplex(cx, Morphism(cx, cx, t.iota.entries, SKEW, (0, 0)))
    path = tmp_path / "odd.json"
    _assert_round_trip(str(path), 'K "\\ \u00e9', ic)
    text = path.read_text(encoding="ascii")
    assert '"q\\"0"' in text and '"b\\\\1"' in text and '"\\u00e9\\u2603\\ud835\\udd4c"' in text


def test_invariants_torus_json(capsys):
    code, out, err = run(capsys, "invariants", "--torus", "2", "3")
    assert code == 0
    assert json.loads(out) == {
        "d": -2, "d_bar": -2, "d_under": -2, "V0": 1, "V0_bar": 1, "V0_under": 1,
    }


def test_invariants_text_format(capsys):
    code, out, err = run(capsys, "invariants", "--torus", "2", "3", "--format", "text")
    assert code == 0
    assert out == "T(2,3): (V0_bar, V0, V0_under) = (1, 1, 1)\n"


def test_invariants_unknot(capsys):
    code, out, err = run(capsys, "invariants", "--torus", "1", "1")
    assert code == 0
    rep = json.loads(out)
    assert (rep["V0_bar"], rep["V0"], rep["V0_under"]) == (0, 0, 0)


def test_sum_pipeline_t45(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "torus", "4", "5", "-o", str(a))
    code, out, err = run(capsys, "sum", str(a), str(a), "-o", str(b))
    assert code == 0
    code, out, err = run(capsys, "invariants", str(b))
    assert code == 0
    rep = json.loads(out)
    assert (rep["V0_bar"], rep["V0"], rep["V0_under"]) == (4, 4, 6)


def test_sum_variants_agree(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "torus", "3", "4", "-o", str(a))
    outs = []
    for variant in ("1", "2"):
        out_path = tmp_path / f"s{variant}.json"
        run(capsys, "sum", str(a), str(a), "--variant", variant, "-o", str(out_path))
        code, out, err = run(capsys, "invariants", str(out_path))
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]


def test_invariants_oracle_flag(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "torus", "3", "4", "-o", str(a))
    code, out, err = run(capsys, "invariants", str(a), "--oracle")
    assert code == 0


def test_invariants_deterministic(capsys):
    _, out1, _ = run(capsys, "invariants", "--torus", "5", "6")
    _, out2, _ = run(capsys, "invariants", "--torus", "5", "6")
    assert out1 == out2


def test_check_pass_and_fail(tmp_path, capsys):
    path = tmp_path / "tr.json"
    run(capsys, "torus", "2", "3", "-o", str(path))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert "axiom (6)" in out and "iota-complex" in out

    doc = json.loads(path.read_text())
    doc["iota"] = [
        {"from": g["name"], "to": g["name"], "mono": [[0, 0]]} for g in doc["generators"]
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "FAIL" in out


AXIOM_LINES = ("axiom (1) d^2 = 0", "axiom (2) differential filtered",
               "axiom (3) gradings homogeneous", "axiom (4) homology is the ring",
               "axiom (5) iota skew-graded, skew-filtered chain map",
               "axiom (6) iota^2 ~ id + Phi Psi (filtered homotopy)")


@pytest.mark.parametrize("part, cell, mono, verdicts, offenders", [
    ("iota", ("x0", "x2"), [[1, 1]], "PPPPFF", ["iota is not skew-graded of bidegree (0, 0)"]),
    ("differential", ("x1", "x0"), [[0, 1], [1, 0]], "PPFFFF",
     ["entry x1 -> x0: V + U is not homogeneous of bidegree (-1,-1)", "iota is not a chain map"]),
], ids=["iota", "differential"])
def test_check_names_inhomogeneous_entries(tmp_path, capsys, part, cell, mono, verdicts, offenders):
    """check on T(2,3) with one entry that is not its grading-forced
    monomial: the exact report, offender text included. With dx1 =
    (V + U) x0 + V x2, iota dx1 = U x0 + (U + V) x2 != d iota x1."""
    t23, bad = tmp_path / "t23.json", tmp_path / "bad.json"
    run(capsys, "torus", "2", "3", "-o", str(t23))
    doc = json.loads(t23.read_text())
    for entry in doc[part]:
        if (entry["from"], entry["to"]) == cell:
            entry["mono"] = mono
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(bad))
    axioms = [f"{line}: {'pass' if v == 'P' else 'FAIL'}" for line, v in zip(AXIOM_LINES, verdicts)]
    assert code == 1
    assert out == "\n".join([*axioms, *(f"  {o}" for o in offenders),
                             "T(2,3): NOT an iota-complex", ""])


def _d_squared_nonzero(doc):
    """dx0 = V x1 beside dx1 = U x0 + V x2: homogeneous and filtered."""
    doc["differential"].append({"from": "x0", "to": "x1", "mono": [[0, 1]]})


def _unfiltered(doc):
    """x0 four lower in gr_u and x2 four lower in gr_v: dx1 = U^-1 x0 +
    V^-1 x2 is homogeneous, and iota still swaps x0 and x2."""
    doc["generators"][0]["gr_u"] -= 4
    doc["generators"][2]["gr_v"] -= 4
    for entry in doc["differential"]:
        entry["mono"] = [[-1, 0]] if entry["to"] == "x0" else [[0, -1]]


def _zero_differential(doc):
    doc["differential"] = []


def _no_iota(doc):
    doc["iota"] = []


def _iota_unfiltered(doc):
    """iota x0 = x2 + U V^-1 x0: homogeneous, but the V^-1 breaks the filtration."""
    doc["iota"].append({"from": "x0", "to": "x0", "mono": [[1, -1]]})


@pytest.mark.parametrize("edit, verdicts, offenders", [
    (_d_squared_nonzero, "FPPFFF",
     ["d^2 nonzero: x1 -> x1", "d^2 nonzero: x0 -> x0", "d^2 nonzero: x0 -> x2",
      "iota is not a chain map"]),
    (_unfiltered, "PFPPPF", ["entry x1 -> x0: negative exponent in filtered complex",
                             "entry x1 -> x2: negative exponent in filtered complex"]),
    (_zero_differential, "PPPFPF", ["slice homology dims (2, 1) != (1, 0)"]),
    (_iota_unfiltered, "PPPPFF", ["iota is not skew-filtered"]),
    (_no_iota, "PPPPPF", ["no filtered equivariant homotopy from iota^2 to id + Phi Psi"]),
], ids=["axiom1", "axiom2", "axiom4", "axiom5", "axiom6"])
def test_check_reports_the_first_failing_axiom(tmp_path, capsys, edit, verdicts, offenders):
    """check on T(2,3) edited to fail first at one axiom: the exact
    report, exit 1. A failure of (1) or (3) leaves (4) unchecked, a
    failure of (1)-(5) leaves (6) unchecked; both then read FAIL. (5)
    is decided whatever d is: with dx0 = V x1, iota dx0 = U x1 while
    d iota x0 = dx2 = 0."""
    t23, bad = tmp_path / "t23.json", tmp_path / "bad.json"
    run(capsys, "torus", "2", "3", "-o", str(t23))
    doc = json.loads(t23.read_text())
    edit(doc)
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(bad))
    axioms = [f"{line}: {'pass' if v == 'P' else 'FAIL'}" for line, v in zip(AXIOM_LINES, verdicts)]
    assert (code, err) == (1, "")
    assert out == "\n".join([*axioms, *(f"  {o}" for o in offenders),
                             "T(2,3): NOT an iota-complex", ""])


def test_check_axiom_six_with_a_nonzero_witness(tmp_path, capsys):
    """check on a perturbed involution iota + dK + Kd of T(3,4) # T(2,3)^-1,
    whose axiom-6 homotopy is nonzero: six passes, exit 0."""
    ic = perturbed_t34_mirror_t23()
    assert verify_iota_complex(ic).involution_homotopy.entries
    path = tmp_path / "perturbed.json"
    serialize.save(str(path), "K", ic)
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert out == "\n".join([*(f"{line}: pass" for line in AXIOM_LINES), "K: iota-complex", ""])


def test_dual_subcommand(tmp_path, capsys):
    a = tmp_path / "a.json"
    d = tmp_path / "d.json"
    run(capsys, "torus", "2", "3", "-o", str(a))
    code, out, err = run(capsys, "dual", str(a), "-o", str(d))
    assert code == 0
    code, out, err = run(capsys, "invariants", str(d))
    rep = json.loads(out)
    assert (rep["V0_bar"], rep["V0"], rep["V0_under"]) == (-1, 0, 0)


def test_obstruct_verdicts(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "torus", "4", "5", "-o", str(a))
    run(capsys, "sum", str(a), str(a), "-o", str(b))
    code, out, err = run(capsys, "obstruct", str(b))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["consistent_with_thin_or_lspace"] is False

    tr = a.parent / "tr.json"
    run(capsys, "torus", "2", "3", "-o", str(tr))
    code, out, err = run(capsys, "obstruct", str(tr))
    assert json.loads(out)["consistent_with_thin_or_lspace"] is True


def test_local_equiv_outcomes(tmp_path, capsys):
    unk = tmp_path / "unk.json"
    tr = tmp_path / "tr.json"
    run(capsys, "torus", "1", "1", "-o", str(unk))
    run(capsys, "torus", "2", "3", "-o", str(tr))
    code, out, err = run(capsys, "local-equiv", str(unk), str(tr))
    assert code == 0
    assert json.loads(out) == {"locally_equivalent": False, "search": "exhausted"}

    code, out, err = run(capsys, "local-equiv", str(tr), str(tr))
    assert code == 0
    assert json.loads(out)["locally_equivalent"] is True

    code, out, err = run(capsys, "local-equiv", str(tr), str(tr), "--cap", "0")
    assert code == 3


UNK_VS_T22M = (
    '{"locally_equivalent": true, "F": ['
    '{"from": "e", "to": "x0|x0^", "mono": [[0, 0]]}, '
    '{"from": "e", "to": "x1|x1^", "mono": [[0, 0]]}, '
    '{"from": "e", "to": "x2|x2^", "mono": [[0, 0]]}], "G": ['
    '{"from": "x0|x0^", "to": "e", "mono": [[0, 0]]}, '
    '{"from": "x1|x1^", "to": "e", "mono": [[0, 0]]}, '
    '{"from": "x2|x2^", "to": "e", "mono": [[0, 0]]}]}\n'
)
T2_VS_T2 = (
    '{"locally_equivalent": true, "F": ['
    '{"from": "x0", "to": "x0", "mono": [[0, 0]]}, '
    '{"from": "x1", "to": "x1", "mono": [[0, 0]]}, '
    '{"from": "x2", "to": "x2", "mono": [[0, 0]]}], "G": ['
    '{"from": "x0", "to": "x0", "mono": [[0, 0]]}, '
    '{"from": "x1", "to": "x1", "mono": [[0, 0]]}, '
    '{"from": "x2", "to": "x2", "mono": [[0, 0]]}]}\n'
)


def test_local_equiv_witnesses(tmp_path, capsys):
    """The exact witness maps printed for unknot vs T(2,3) # T(2,3)^-1
    and for T(2,3) vs itself."""
    unk, t2, t2m, t22m = (str(tmp_path / f"{n}.json") for n in ("unk", "t2", "t2m", "t22m"))
    run(capsys, "torus", "1", "1", "-o", unk)
    run(capsys, "torus", "2", "3", "-o", t2)
    run(capsys, "torus", "2", "3", "--mirror", "-o", t2m)
    run(capsys, "sum", t2, t2m, "-o", t22m)
    assert run(capsys, "local-equiv", unk, t22m)[:2] == (0, UNK_VS_T22M)
    assert run(capsys, "local-equiv", t2, t2)[:2] == (0, T2_VS_T2)


def _rename_x0(doc):
    doc["generators"][0]["name"] = 7
    for entry in doc["differential"] + doc["iota"]:
        for key in ("from", "to"):
            if entry[key] == "x0":
                entry[key] = 7


def _mono(mono, section="differential"):
    return lambda doc: doc[section][0].update(mono=mono)


def _duplicate_entry(doc):
    doc["differential"].append(dict(doc["differential"][0], mono=[[5, 5]]))


# each case with the start of its message after "parse error: "
MALFORMED = {
    "differential not a list": (lambda doc: doc.update(differential=5), "field 'differential'"),
    "generators null": (lambda doc: doc.update(generators=None), "field 'generators'"),
    "float grading": (lambda doc: doc["generators"][0].update(gr_u=0.9), "bad generator"),
    "string grading": (lambda doc: doc["generators"][0].update(gr_u="2"), "bad generator"),
    "bool grading": (lambda doc: doc["generators"][0].update(gr_v=True), "bad generator"),
    "bool exponent": (_mono([[True, 0]]), "bad monomial list"),
    "list name": (lambda doc: doc.update(name=["T", "2"]), "name must be a string"),
    "int generator name": (_rename_x0, "bad generator"),
    "repeated monomial": (_mono([[0, 0], [0, 0]]), "repeated monomial"),
    "empty monomial list": (lambda doc: doc["iota"].append({"from": "x0", "to": "x1", "mono": []}),
                            "bad monomial list"),
    "mono not a list": (_mono({"0": 0}, "iota"), "bad monomial list"),
    "monomial not a list": (_mono([5]), "bad monomial list"),
    "monomial of length 1": (_mono([[1]]), "bad monomial list"),
    "monomial of length 3": (_mono([[1, 0, 0]], "iota"), "bad monomial list"),
    "float exponent": (_mono([[1.5, 0]]), "bad monomial list"),
    "string exponent": (_mono([[0, "1"]], "iota"), "bad monomial list"),
    "bad monomial after a repeat": (_mono([[0, 0], [0, 0], [1]]), "bad monomial list"),
    "duplicate entry": (_duplicate_entry, "duplicate differential entry"),
    "unknown to name": (lambda doc: doc["iota"][0].update(to="nowhere"), "bad iota entry"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_strict_parser_rejects(tmp_path, capsys, case):
    doc = iota_complex_to_dict("T(2,3)", torus_knot(2, 3))
    mutate, kind = MALFORMED[case]
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith(f"parse error: {kind}") and "Traceback" not in err


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["generators"][0].update(gr_u=IntSubclass(doc["generators"][0]["gr_u"])),
    lambda doc: doc["differential"][0].update(mono=[[IntSubclass(1), 0]]),
], ids=["grading", "exponent"])
def test_parser_rejects_an_int_subclass(mutate):
    """json.load never makes an int subclass, but a caller's dict can: a
    ParseError, not a value coerced through int()."""
    doc = iota_complex_to_dict("T(2,3)", torus_knot(2, 3))
    mutate(doc)
    with pytest.raises(serialize.ParseError, match="^bad (generator|monomial list)"):
        serialize.iota_complex_from_dict(doc)


class ListSubclass(list):
    pass


@pytest.mark.parametrize("mono", [
    [(1, 2)], [[IntSubclass(1), 0]], [[0, IntSubclass(1)]], [[0, True]], [[True, 0]],
    [[0, 1.0]], [ListSubclass([0, True])], ListSubclass([[0, True]]), [[0]], [[0, 0, 0]],
], ids=["tuple monomial", "int-subclass U exponent", "int-subclass V exponent",
        "bool V exponent", "bool U exponent", "float exponent", "list-subclass monomial",
        "list-subclass mono", "short monomial", "long monomial"])
def test_one_monomial_entries_rejected_with_the_general_message(mono):
    """A one-monomial list that the inline check refuses goes through the
    general loop, which rejects it with the same message as before."""
    doc = iota_complex_to_dict("T(2,3)", torus_knot(2, 3))
    entry = doc["differential"][0]
    entry["mono"] = mono
    with pytest.raises(serialize.ParseError) as exc:
        serialize.iota_complex_from_dict(doc)
    assert str(exc.value) == f"bad monomial list in differential entry {entry['from']} -> {entry['to']}"


@pytest.mark.parametrize("mono", [ListSubclass([[1, 0]]), [ListSubclass([1, 0])]],
                         ids=["list-subclass mono", "list-subclass monomial"])
def test_list_subclass_monomial_lists_are_rejected(mono):
    """json.load never makes a list subclass, so the parser takes a mono
    or a monomial only as a plain list: [[1, 0]] is accepted as a list and
    rejected, with the general message, as a list subclass."""
    doc = iota_complex_to_dict("T(2,3)", torus_knot(2, 3))
    entry = doc["differential"][0]
    assert entry["mono"] == [[1, 0]]
    serialize.iota_complex_from_dict(doc)
    entry["mono"] = mono
    with pytest.raises(serialize.ParseError) as exc:
        serialize.iota_complex_from_dict(doc)
    assert str(exc.value) == f"bad monomial list in differential entry {entry['from']} -> {entry['to']}"


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "check", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "check", str(bad))[0] == 2
    assert run(capsys, "torus", "4", "6", "-o", str(tmp_path / "x.json"))[0] == 2
    tr = tmp_path / "tr.json"
    run(capsys, "torus", "2", "3", "-o", str(tr))
    assert run(capsys, "invariants", str(tr), "--torus", "2", "3")[0] == 2
    assert run(capsys, "invariants")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_usage_error_then_valid_arguments(tmp_path, capsys):
    """main parses every call with one parser; a usage error leaves it
    as it was for the next call."""
    first = run(capsys, "torus", "2")
    assert first[:2] == (2, "") and first[2].startswith("usage: iotak torus")
    path = tmp_path / "t23.json"
    assert run(capsys, "torus", "2", "3", "-o", str(path)) == (0, "", "")
    assert serialize.load(str(path))[0] == "T(2,3)"
    assert run(capsys, "torus", "2") == first
    assert cli.build_parser() is cli.build_parser()


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(p, q):
        raise MemoryError

    monkeypatch.setattr(cli, "torus_knot", exhausted)
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "torus", "100000", "100001", "-o", str(path))
    assert (code, out, err) == (2, "", "error: out of memory; the input is too large\n")
    assert not path.exists()


def test_invariants_mirror_needs_torus(tmp_path, capsys):
    tr = str(tmp_path / "tr.json")
    run(capsys, "torus", "2", "3", "-o", tr)
    code, out, err = run(capsys, "invariants", tr, "--mirror")
    assert (code, out) == (2, "")
    assert "--mirror needs --torus" in err


def test_local_equiv_negative_cap(tmp_path, capsys):
    tr = str(tmp_path / "tr.json")
    run(capsys, "torus", "2", "3", "-o", tr)
    code, out, err = run(capsys, "local-equiv", tr, tr, "--cap", "-1")
    assert (code, out) == (2, "")
    assert "--cap must be a nonnegative integer" in err
    assert run(capsys, "local-equiv", tr, tr, "--cap", "0")[0] == 3


def test_unwritable_output_exits_2(tmp_path, capsys):
    tr = str(tmp_path / "tr.json")
    run(capsys, "torus", "2", "3", "-o", tr)
    for out_path in (str(tmp_path / "no" / "such" / "x.json"), str(tmp_path)):
        for args in (("torus", "2", "3"), ("sum", tr, tr), ("dual", tr)):
            code, out, err = run(capsys, *args, "-o", out_path)
            assert (code, out) == (2, ""), args
            assert err.startswith("error: ") and "Traceback" not in err


def test_output_is_rewritten_in_place(tmp_path, capsys):
    """-o over a longer file leaves exactly the fresh bytes, on the same
    inode (a hard link sees them); the same step twice gives the same
    bytes; a device that cannot be truncated is written to as before."""
    t45, out, fresh = (str(tmp_path / n) for n in ("t45.json", "out.json", "fresh.json"))
    run(capsys, "torus", "4", "5", "-o", t45)
    run(capsys, "sum", t45, t45, "-o", out)
    os.link(out, tmp_path / "link.json")
    run(capsys, "torus", "2", "3", "-o", fresh)
    assert run(capsys, "torus", "2", "3", "-o", out) == (0, "", "")
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
    assert (tmp_path / "link.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
    for args in (("sum", t45, t45, t45), ("dual", t45)):
        run(capsys, *args, "-o", out)
        first = (tmp_path / "out.json").read_bytes()
        assert run(capsys, *args, "-o", out) == (0, "", "")
        assert (tmp_path / "out.json").read_bytes() == first
    assert run(capsys, "torus", "2", "3", "-o", os.devnull) == (0, "", "")


def test_failed_save_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t23.json"
    run(capsys, "torus", "2", "3", "-o", str(path))
    old = path.read_bytes()

    def fail(name, ic):
        raise ValueError("cannot encode")

    monkeypatch.setattr(serialize, "dumps", fail)
    assert run(capsys, "torus", "3", "4", "-o", str(path)) == (2, "", "error: cannot encode\n")
    assert path.read_bytes() == old


def test_sum_loads_each_path_once(tmp_path, capsys, monkeypatch):
    t23, t34, out = (str(tmp_path / n) for n in ("t23.json", "t34.json", "out.json"))
    run(capsys, "torus", "2", "3", "-o", t23)
    run(capsys, "torus", "3", "4", "-o", t34)
    loads = []
    load = serialize.load
    monkeypatch.setattr(serialize, "load", lambda path: loads.append(path) or load(path))
    assert run(capsys, "sum", t23, t34, t23, t23, "-o", out) == (0, "", "")
    assert loads == [t23, t34]
    k23, k34 = torus_knot(2, 3), torus_knot(3, 4)
    acc = product(product(product(k23, k34, verify=False), k23, verify=False), k23, verify=False)
    expected = serialize.dumps("T(2,3) # T(3,4) # T(2,3) # T(2,3)", acc)
    assert (tmp_path / "out.json").read_text() == expected


def _renamed_t23(path, names):
    """Write T(2,3) with its generators x0, x1, x2 renamed to names."""
    rename = dict(zip(("x0", "x1", "x2"), names))
    doc = iota_complex_to_dict("T(2,3)", torus_knot(2, 3))
    for g in doc["generators"]:
        g["name"] = rename[g["name"]]
    for entry in doc["differential"] + doc["iota"]:
        entry["from"], entry["to"] = rename[entry["from"]], rename[entry["to"]]
    path.write_text(json.dumps(doc))


def test_sum_names_colliding_product_generators(tmp_path, capsys):
    """Two files that each pass check, whose product would name both
    a|b x c and a x b|c "a|b|c": sum exits 2, names both pairs, and
    writes nothing."""
    u, v, s = tmp_path / "u.json", tmp_path / "v.json", tmp_path / "s.json"
    _renamed_t23(u, ("a", "a|b", "c"))
    _renamed_t23(v, ("b|c", "c", "e"))
    for path in (u, v):
        assert run(capsys, "check", str(path))[0] == 0
    assert run(capsys, "sum", str(u), str(v), "-o", str(s)) == (
        2, "", "error: product generators ('a', 'b|c') and ('a|b', 'c') share the name 'a|b|c'\n")
    assert not s.exists()


def collision_error(names1, names2):
    """The documented stderr of sum on factors with these generator
    names, or None when every x|y name is distinct."""
    seen = {}
    for x in names1:
        for y in names2:
            name = f"{x}|{y}"
            if name in seen:
                return f"error: product generators {seen[name]} and {(x, y)} share the name {name!r}\n"
            seen[name] = (x, y)
    return None


generator_names = st.lists(st.text(alphabet="a|^", max_size=3), min_size=3, max_size=3, unique=True)


@given(generator_names, generator_names)
@settings(max_examples=80, deadline=None)
def test_sum_of_renamed_factors_succeeds_or_names_the_collision(tmp_path_factory, names1, names2):
    """Factor names drawn with "|" and "^": sum either writes the product,
    named x|y in order, or exits 2 with exactly the documented error."""
    tmp = tmp_path_factory.mktemp("names")
    u, v, s = tmp / "u.json", tmp / "v.json", tmp / "s.json"
    _renamed_t23(u, names1)
    _renamed_t23(v, names2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sum", str(u), str(v), "-o", str(s)])
    expected = collision_error(names1, names2)
    if expected is None:
        assert (code, out.getvalue(), err.getvalue()) == (0, "", "")
        basis = serialize.load(str(s))[1].complex.basis
        assert [b.name for b in basis] == [f"{x}|{y}" for x in names1 for y in names2]
    else:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", expected)
        assert not s.exists()


def _indent2(doc):
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=25, deadline=None)
@given(st.lists(staircase_strategy, min_size=1, max_size=3))
def test_dumps_matches_json_indent2_on_sums(parts):
    acc = staircase_complex(parts[0])
    for part in parts[1:]:
        acc = product(acc, staircase_complex(part), verify=False)
    assert serialize.dumps("K", acc) == _indent2(iota_complex_to_dict("K", acc))


def test_dumps_matches_json_indent2_on_edge_cases():
    unknot = iota_complex_to_dict("T(1,1)", torus_knot(1, 1))
    assert unknot["differential"] == []
    odd = "q\"b\\s/é☃\t\U0001d54c"
    escaped = {
        "name": odd,
        "generators": [{"name": odd, "gr_u": -3, "gr_v": 0}, {"name": "x\"", "gr_u": 1, "gr_v": -1}],
        "differential": [],
        "iota": [{"from": odd, "to": "x\"", "mono": [[0, 0], [2, -1]]},
                 {"from": "x\"", "to": odd, "mono": [[-1, 1]]}],
    }
    for doc in (unknot, escaped, dict(escaped, generators=[], iota=[])):
        assert serialize.dumps(*serialize.iota_complex_from_dict(doc)) == _indent2(doc)


@pytest.mark.parametrize("content", [b"[" * 100_000, b'{"name": "\xe9"}'],
                         ids=["deeply nested", "not utf-8"])
def test_undecodable_file_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {path}: ") and "Traceback" not in err


needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on the digits of an int")


def _long_grading_file(tmp_path):
    """T(2,3)'s file with a grading longer than json may decode as an int."""
    path = tmp_path / "long.json"
    text = T23_FILE.decode().replace('"gr_u": 0,', f'"gr_u": {"7" * 5000},', 1)
    path.write_text(text)
    return path


@needs_int_digit_limit
def test_over_long_integer_is_a_parse_error(tmp_path, capsys):
    path = _long_grading_file(tmp_path)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {path}: invalid JSON: ") and "Traceback" not in err


@needs_int_digit_limit
def test_load_raises_parse_error_on_an_over_long_integer(tmp_path):
    with pytest.raises(serialize.ParseError, match="invalid JSON"):
        serialize.load(str(_long_grading_file(tmp_path)))


def test_local_equiv_above_default_cap(tmp_path, capsys):
    """T(4,5) # T(4,5) has a 59-dimensional chain-map space: above the
    default cap it exits 3, and with --cap 59 it prints a witness pair
    that verify_local_equivalence accepts, with homotopies solved here."""
    t45, t44 = str(tmp_path / "t45.json"), str(tmp_path / "t44.json")
    run(capsys, "torus", "4", "5", "-o", t45)
    run(capsys, "sum", t45, t45, "-o", t44)
    code, out, err = run(capsys, "local-equiv", t44, t44)
    assert (code, out) == (3, "")
    assert err == "chain-map solution space has dimension 59 > cap 24\n"
    code, out, err = run(capsys, "local-equiv", t44, t44, "--cap", "59")
    assert code == 0
    doc = json.loads(out)
    assert doc["locally_equivalent"] is True
    ic = serialize.load(t44)[1]
    index = {x.name: i for i, x in enumerate(ic.complex.basis)}
    f, g = (Morphism(ic.complex, ic.complex, serialize._parse_entries(doc[k], index, k),
                     EQUIVARIANT, (0, 0)) for k in ("F", "G"))
    h_f, h_g = (homotopy_solve(compose(ic.iota, m), compose(m, ic.iota)) for m in (f, g))
    assert verify_local_equivalence(ic, ic, f, g, h_f, h_g).passed


def test_file_failing_only_axiom_six_exits_1(tmp_path, capsys):
    """Two files that pass axioms (1)-(5) and fail (6): T(2,3) with no iota
    entries, and T(2,3) # T(2,3) with the naive involution iota|iota,
    without the Phi iota|Psi iota term of the connected-sum formula. check,
    invariants and obstruct each exit 1 on them and name axiom (6); none
    answers for them."""
    t23, no_iota, naive = tmp_path / "t23.json", tmp_path / "no_iota.json", tmp_path / "naive.json"
    run(capsys, "torus", "2", "3", "-o", str(t23))
    no_iota.write_text(json.dumps(dict(json.loads(t23.read_text()), iota=[])))
    k = torus_knot(2, 3)
    c = tensor(k.complex, k.complex)
    serialize.save(str(naive), "naive", IotaComplex(c, tensor_morphism(k.iota, k.iota, c, c)))
    for bad in (no_iota, naive):
        code, out, err = run(capsys, "check", str(bad))
        assert (code, err) == (1, "")
        assert "axiom (5) iota skew-graded, skew-filtered chain map: pass\n" in out
        assert "axiom (6) iota^2 ~ id + Phi Psi (filtered homotopy): FAIL\n" in out
        for command in ("invariants", "obstruct"):
            code, out, err = run(capsys, command, str(bad))
            assert (code, out) == (1, "")
            assert err.startswith(f"{bad}: fails axiom (6) ")


def test_conjugated_iota_with_a_dropped_entry_exits_1(tmp_path, capsys):
    """The conjugated T(2,3) # S^-1 of CONJUGATED_PARTS (seed 0), its iota
    with one entry dropped, each in turn: check exits 1 and its first FAIL
    line is verify_iota_complex's first failure, axiom (5) on every drop;
    invariants exits 1 and names the same axiom on stderr."""
    ic = conjugated_draw(staircase_sum(CONJUGATED_PARTS), random.Random(0))
    c, entries = ic.complex, ic.iota.entries
    path, failures = tmp_path / "dropped.json", []
    for i, row in entries.items():
        for j in row:
            kept = {a: {b: p for b, p in r.items() if (a, b) != (i, j)} for a, r in entries.items()}
            bad = IotaComplex(c, Morphism(c, c, {a: r for a, r in kept.items() if r}, SKEW, (0, 0)))
            k = verify_iota_complex(bad).first_failure
            failures.append(k)
            serialize.save(str(path), "K", bad)
            code, out, err = run(capsys, "check", str(path))
            assert (code, err) == (1, "")
            assert next(line for line in out.splitlines() if line.endswith(": FAIL")) == \
                f"{AXIOM_LINES[k - 1]}: FAIL"
            code, out, err = run(capsys, "invariants", str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"{path}: fails axiom ({k}) ")
    assert failures == [5] * 11


def _failing_oracle(tower):
    raise InvariantError("m bound 1 too small: raising it changes d_bar")


def test_oracle_failure_exits_3(tmp_path, capsys, monkeypatch):
    """An oracle that raises on a valid complex is an oracle failure,
    exit 3, not a parse or usage error; a file failing axiom (6) exits 1
    and names the axiom before the oracle runs."""
    t23, bad = tmp_path / "t23.json", tmp_path / "bad.json"
    run(capsys, "torus", "2", "3", "-o", str(t23))
    bad.write_text(json.dumps(dict(json.loads(t23.read_text()), iota=[])))
    monkeypatch.setattr(cli, "lemma_criteria_oracle", _failing_oracle)
    code, out, err = run(capsys, "invariants", str(t23), "--oracle")
    assert (code, out) == (3, "")
    assert err == "oracle failed: m bound 1 too small: raising it changes d_bar\n"
    code, out, err = run(capsys, "invariants", str(bad), "--oracle")
    assert (code, out) == (1, "")
    assert err.startswith(f"{bad}: fails axiom (6) ")


def test_oracle_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    """An oracle that answers, but not as the cone does, exits 3 and
    names both pairs."""
    t23 = tmp_path / "t23.json"
    run(capsys, "torus", "2", "3", "-o", str(t23))
    monkeypatch.setattr(cli, "lemma_criteria_oracle", lambda tower: (99, 99))
    code, out, err = run(capsys, "invariants", str(t23), "--oracle")
    assert (code, out) == (3, "")
    assert err == ("oracle disagreement: cone gives (d_bar, d_under) = (-2, -2), "
                   "max-grading oracle gives (99, 99)\n")


def _count_oracle_towers(monkeypatch, module, sizes):
    """Wrap module's oracle to record the generator count of each tower it gets."""
    oracle = module.lemma_criteria_oracle

    def counted(tower):
        sizes.append(len(tower))
        return oracle(tower)
    monkeypatch.setattr(module, "lemma_criteria_oracle", counted)


def test_oracle_gets_the_unreduced_tower(tmp_path, capsys, monkeypatch):
    """The oracle checks reduce_tower only while it is handed the tower
    before the reduction: through invariants --oracle on T(4,5)^#3 and
    through reproduce_table.py --oracle, every tower it gets has one
    generator per generator of the complex."""
    t45, s = tmp_path / "t45.json", tmp_path / "s.json"
    run(capsys, "torus", "4", "5", "-o", str(t45))
    run(capsys, "sum", str(t45), str(t45), str(t45), "-o", str(s))
    seen = []
    _count_oracle_towers(monkeypatch, cli, seen)
    assert run(capsys, "invariants", str(s), "--oracle")[0] == 0
    ic = serialize.load(str(s))[1]
    assert seen == [len(ic.complex)]
    assert len(reduce_tower(a_zero_minus(ic, verify=False))) < len(ic.complex)

    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_table.py"
    spec = importlib.util.spec_from_file_location("reproduce_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen, built = [], []
    _count_oracle_towers(monkeypatch, script, seen)
    build = script.build

    def counted_build(spec):
        ic = build(spec)
        built.append(len(ic.complex))
        return ic
    monkeypatch.setattr(script, "build", counted_build)
    monkeypatch.setattr(sys, "argv", [str(path), "--oracle"])
    assert script.main() == 0
    assert seen == built and len(seen) == len(script.ROWS)


def test_reproduce_table_reports_oracle_failure(capsys, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_table.py"
    spec = importlib.util.spec_from_file_location("reproduce_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "lemma_criteria_oracle", _failing_oracle)
    monkeypatch.setattr(sys, "argv", [str(path), "--oracle"])
    assert script.main() == 3
    err = capsys.readouterr().err
    assert "T(2,3): ORACLE DISAGREEMENT" in err and "m bound 1 too small" in err


def test_reproduce_table_stdout_is_deterministic(capsys, monkeypatch):
    """Two runs print the same table byte for byte; the timing is on stderr."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_table.py"
    spec = importlib.util.spec_from_file_location("reproduce_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path)])
    runs = []
    for _ in range(2):
        assert script.main() == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    assert len(runs[0].out.splitlines()) == 1 + len(script.ROWS)
    assert not re.search(r"\d\.\d+s", runs[0].out)
    assert re.fullmatch(r"total \d+\.\d\ds\n", runs[0].err)


def test_verification_failure_exit_code(tmp_path, capsys):
    doc = {
        "name": "broken",
        "generators": [{"name": "a", "gr_u": 0, "gr_v": 0}, {"name": "b", "gr_u": -1, "gr_v": -1}],
        "differential": [{"from": "b", "to": "a", "mono": [[1, 0]]}],
        "iota": [{"from": "a", "to": "a", "mono": [[0, 0]]}, {"from": "b", "to": "b", "mono": [[0, 0]]}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 1


def test_threads_env_validation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IOTAK_THREADS", "zero")
    assert run(capsys, "invariants", "--torus", "2", "3")[0] == 2
    monkeypatch.setenv("IOTAK_THREADS", "4")
    assert run(capsys, "invariants", "--torus", "2", "3")[0] == 0


# ---------------------------------------------------------------------------
# malformed documents: every mutation of a valid file is a usage error

# one value of each JSON type, and a few that look almost right
JSON_VALUES = [None, True, False, 0, -3, 2.0, 0.5, "", "x0", "2", [], [0], [[0, 0]], {}, {"name": "x0"}]
FIELD_TYPES = {
    "document": {"name": str, "generators": list, "differential": list, "iota": list},
    "generators": {"name": str, "gr_u": int, "gr_v": int},
    "differential": {"from": str, "to": str, "mono": list},
    "iota": {"from": str, "to": str, "mono": list},
}
BAD_MONOS = [[], [[0]], [[0, 0, 0]], [[0.5, 0]], [["1", 0]], [[True, 0]], [[0, None]],
             [0, 0], [[1, 0], [1, 0]], [[0, 0], [2, 1], [0, 0]]]
sections = st.sampled_from(["generators", "differential", "iota"])
entry_sections = st.sampled_from(["differential", "iota"])


def _fits(value, kind) -> bool:
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def _pick(data, doc, section):
    items = doc[section]
    return items[data.draw(st.integers(0, len(items) - 1))]


def wrong_type(data, doc):
    where = data.draw(st.sampled_from(["document", "generators", "differential", "iota"]))
    if where == "document":
        target = doc
    else:
        target = _pick(data, doc, where)
        if data.draw(st.booleans()):
            items = doc[where]
            items[items.index(target)] = data.draw(
                st.sampled_from([v for v in JSON_VALUES if not isinstance(v, dict)]))
            return doc
    key = data.draw(st.sampled_from(sorted(FIELD_TYPES[where])))
    kind = FIELD_TYPES[where][key]
    target[key] = data.draw(st.sampled_from([v for v in JSON_VALUES if not _fits(v, kind)]))
    return doc


def missing_key(data, doc):
    where = data.draw(st.sampled_from(["document", "generators", "differential", "iota"]))
    target = doc if where == "document" else _pick(data, doc, where)
    del target[data.draw(st.sampled_from(sorted(target)))]
    return doc


def bad_monomial(data, doc):
    _pick(data, doc, data.draw(entry_sections))["mono"] = data.draw(st.sampled_from(BAD_MONOS))
    return doc


def unknown_name(data, doc):
    names = {g["name"] for g in doc["generators"]}
    entry = _pick(data, doc, data.draw(entry_sections))
    entry[data.draw(st.sampled_from(["from", "to"]))] = data.draw(
        st.text(max_size=4).filter(lambda s: s not in names))
    return doc


def duplicate_entry(data, doc):
    section = data.draw(sections)
    copy = dict(_pick(data, doc, section))
    if section == "generators":
        copy["gr_u"] = copy["gr_v"] = data.draw(st.integers(-4, 4))
    else:
        copy["mono"] = [data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))]
    doc[section].append(copy)
    return doc


def not_an_object(data, doc):
    return data.draw(st.sampled_from([v for v in JSON_VALUES if not isinstance(v, dict)]))


MUTATIONS = [wrong_type, missing_key, bad_monomial, unknown_name, duplicate_entry, not_an_object]


@given(st.sampled_from(MUTATIONS), st.data())
@settings(max_examples=80, deadline=None)
def test_malformed_documents_exit_2(tmp_path_factory, mutate, data):
    doc = mutate(data, iota_complex_to_dict("T(2,3)", torus_knot(2, 3)))
    path = tmp_path_factory.mktemp("fuzz") / "bad.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    assert code == 2, (doc, err.getvalue())
    assert err.getvalue().startswith(("parse error: ", "error: ")), err.getvalue()
    assert "Traceback" not in err.getvalue()
