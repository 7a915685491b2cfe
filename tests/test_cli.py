import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonash import (
    BranchInput,
    BranchSpec,
    RatVec,
    analyze_variety,
    cli,
    conegeom,
    intlat,
    oracle,
    qobranch,
)
from qonash.cli import (
    ORIGIN_BARYCENTER,
    ORIGIN_TORIC_MINIMAL,
    SCHEMA_VERSION,
    parse_variety,
    render_json,
    report_to_dict,
    run,
)
from qonash.nashmap import lemma_min_diagnostics
from helpers import cross_branch, src_env
from towers import random_branches

CORPUS = Path(__file__).parent / "corpus"
CASES = ["whitney", "a1_cone", "plane_cusp", "degree4", "reducible", "smooth"]


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CASES)
def test_json_reports_match_golden(capsys, case):
    code, out, _ = run_cli(
        capsys, "analyze", str(CORPUS / f"{case}.json"), "--format", "json"
    )
    assert code == 0
    golden = (CORPUS / "golden" / f"{case}.report.json").read_text()
    assert out == golden


@pytest.mark.parametrize("case", CASES)
def test_text_reports_match_golden(capsys, case):
    code, out, _ = run_cli(capsys, "analyze", str(CORPUS / f"{case}.json"))
    assert code == 0
    assert out == (CORPUS / "golden" / f"{case}.report.txt").read_text()


@pytest.mark.parametrize("case", CASES)
def test_json_report_roundtrips(capsys, case):
    code, out, _ = run_cli(
        capsys, "analyze", str(CORPUS / f"{case}.json"), "--format", "json"
    )
    assert code == 0
    assert _dumps(json.loads(out)) == out


@pytest.mark.parametrize("case", CASES)
def test_dict_view_matches_golden(case):
    dim, inputs = parse_variety(json.loads((CORPUS / f"{case}.json").read_text()))
    golden = (CORPUS / "golden" / f"{case}.report.json").read_text()
    assert report_to_dict(analyze_variety(inputs), dim) == json.loads(golden)


def _dumps(payload):
    """The reference bytes of the report writer."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _vec_json(v) -> list[list[int]]:
    """A RatVec or an integer point as [numerator, denominator] pairs."""
    return [[c.numerator, c.denominator] for c in v]


def _divisor_json(p, origin: str) -> dict:
    vector = _vec_json(p)
    return {"vector": vector, "primitive": vector, "multiplicity": 1, "origin": origin}


def _lattice_json(l) -> dict:
    return {"denom": l.denom, "scaled_basis": [list(row) for row in l.scaled_basis]}


def _branch_json(report) -> dict:
    s_min = [_divisor_json(p, ORIGIN_TORIC_MINIMAL) for p in report.s_min]
    return {
        "label": report.label,
        "char_exponents": [_vec_json(v) for v in report.char_exponents],
        "degree": report.lattices.degree_n,
        "tower_step_indices": list(report.lattices.step_indices),
        "lattice_M": _lattice_json(report.lattices.M),
        "lattice_N": _lattice_json(report.lattices.N),
        "relevant_faces": [
            {
                "indices": list(face.indices),
                "regular": face.regular,
                "primitive_generators": [_vec_json(p) for p in face.primgens],
            }
            for face in report.relevant
        ],
        "singular_faces_of_sigma": [list(i) for i in report.singular_faces_of_sigma],
        "s_min": s_min,
        "E": [_divisor_json(p, ORIGIN_BARYCENTER) for p in report.E],
        "V": s_min,  # V is S_min
        "nash_count": report.nash_count,
        "diagnostics": [
            {"code": d.code, "message": d.message} for d in report.diagnostics
        ],
    }


def reference_dict(result, dim: int) -> dict:
    """The report as nested dicts, built field by field apart from
    render_json: ``_dumps`` of it is the reference for render_json's bytes."""
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": dim,
        "branches": [_branch_json(report) for report in result.branches],
        "total_nash": result.total_nash,
        "total_essential": result.total_essential,
    }


def _diagonal(denom, label="b"):
    """A d = 2 branch with denom - 1 points in S_min, all but one candidate."""
    spec = BranchSpec(2, (RatVec([F(1, denom)] * 2),), label)
    return analyze_variety([BranchInput(spec, sing_faces=((1, 2),))])


def test_render_json_matches_json_dumps():
    reports = []
    for case in CASES:  # EMPTY_B, empty E/V/s_min and several branches among them
        dim, inputs = parse_variety(json.loads((CORPUS / f"{case}.json").read_text()))
        reports.append((analyze_variety(inputs), dim))
    reports.append((analyze_variety([]), 3))  # "branches": []
    reports.append((_diagonal(2000), 2))
    for spec, _ in random_branches(520, seed=20250810):  # the criterion-1 towers
        reports.append((analyze_variety([cross_branch(spec)]), spec.dim))
    for dim in (1, 8):
        spec = BranchSpec(dim, (RatVec([F(1, 2)] * dim),), f"d{dim}")
        reports.append((analyze_variety([cross_branch(spec)]), dim))
    result, dim = reports[0]
    inconsistent = result.branches[0]._replace(
        diagnostics=tuple(lemma_min_diagnostics([(3, 3)], [(1, 1)]))
    )
    reports.append((result._replace(branches=(inconsistent,)), dim))
    codes = set()
    for result, dim in reports:
        payload = reference_dict(result, dim)
        assert "".join(render_json(result, dim)) == _dumps(payload)
        assert report_to_dict(result, dim) == payload
        codes.update(d["code"] for b in payload["branches"] for d in b["diagnostics"])
    assert codes == {"EMPTY_B", "LEMMA_MIN_VIOLATION"}


def test_render_json_writes_s_min_once():
    dim, inputs = parse_variety(json.loads((CORPUS / "reducible.json").read_text()))
    result = analyze_variety(inputs)
    pieces = render_json(result, dim)
    after = {
        key: [pieces[i + 1] for i, p in enumerate(pieces) if p.endswith(f'"{key}": ')]
        for key in ("V", "s_min")
    }
    assert len(after["V"]) == len(after["s_min"]) == len(result.branches) > 1
    assert any("toric-minimal" in block for block in after["V"])
    for v, s_min in zip(after["V"], after["s_min"]):
        assert v is s_min


def test_render_json_peak_memory():
    result = _diagonal(4000)
    tracemalloc.start()
    try:
        pieces = render_json(result, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The S_min block, written twice, is held once; json.dumps of the dict
    # view peaks near 7 times the report.
    assert peak < 2 * len("".join(pieces))


# Quotes, backslashes, control and non-ASCII characters, astral ones (escaped
# as surrogate pairs) and lone surrogates.
LABELS = st.text(
    st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u2028\U0001f600\ud800')
    | st.characters(exclude_categories=()),
    min_size=1,
    max_size=6,
)


@given(st.lists(LABELS, min_size=1, max_size=3, unique=True))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_render_json_escapes_labels(labels):
    cone = RatVec([F(1, 2), F(1, 2)])
    branches = [BranchInput(BranchSpec(2, (cone,), labels[0]), sing_faces=((1, 2),))]
    branches += [BranchInput(BranchSpec(2, (), label)) for label in labels[1:]]
    result = analyze_variety(branches)
    payload = reference_dict(result, 2)
    assert "".join(render_json(result, 2)) == _dumps(payload)
    assert report_to_dict(result, 2) == payload


def test_text_and_json_share_facts(capsys):
    code, text_out, _ = run_cli(capsys, "analyze", str(CORPUS / "reducible.json"))
    assert code == 0
    code, json_out, _ = run_cli(
        capsys, "analyze", str(CORPUS / "reducible.json"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(json_out)
    assert f"= {doc['total_nash']}" in text_out
    for branch in doc["branches"]:
        assert branch["label"] in text_out
        assert f"= {branch['nash_count']}" in text_out
        for div in branch["E"] + branch["V"] + branch["s_min"]:
            pretty = "(" + ", ".join(
                str(n) if d == 1 else f"{n}/{d}" for n, d in div["vector"]
            ) + ")"
            assert pretty in text_out


def test_oracle_check_passes_on_corpus(capsys):
    for case in CASES:
        code, _, _ = run_cli(
            capsys, "analyze", str(CORPUS / f"{case}.json"), "--oracle-check"
        )
        assert code == 0


def test_smooth_corpus_warns(capsys):
    code, out, err = run_cli(capsys, "analyze", str(CORPUS / "smooth.json"))
    assert code == 0
    assert "warning" in out
    assert "EMPTY_B" in err


def _stdin(raw: bytes):
    # Like Python's own stdin in UTF-8 mode or a C locale: text over bytes,
    # with undecodable bytes let through as surrogates.
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin((CORPUS / "whitney.json").read_bytes()))
    code, out, _ = run_cli(capsys, "analyze", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["total_nash"] == 1


def test_stdin_not_utf8(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(b"\xff{}"))
    code, out, err = run_cli(capsys, "analyze", "-")
    assert (code, out) == (2, "")
    assert "qonash: error: cannot read input" in err


def test_not_characteristic_exit(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "branches": [
            {
                "label": "culprit",
                "char_exponents": [[[1, 2], [1, 2]], [[1, 1], [1, 1]]],
                "sing_faces": [[1, 2]],
            }
        ],
        "contacts": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert "NOT_CHARACTERISTIC" in err
    assert "culprit" in err


def test_schema_error_reports_path(tmp_path, capsys):
    doc = {"schema_version": 1, "dim": 2, "branches": [{"label": ""}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "$.branches[0].label" in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"\xff{}", "cannot read input"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        (b'{"dim": ' + b"1" * 5000 + b"}", "invalid JSON"),
    ],
    ids=["not_utf8", "deep_nesting", "huge_integer"],
)
def test_undecodable_input(tmp_path, capsys, raw, message):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert f"qonash: error: {message}" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/nowhere.json")
    assert code == 2
    assert "cannot read" in err


def test_max_dim_guard(capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(CORPUS / "whitney.json"), "--max-dim", "1"
    )
    assert code == 1
    assert "LIMIT_EXCEEDED" in err


def test_max_index_guard(capsys):
    code, _, err = run_cli(
        capsys, "analyze", str(CORPUS / "degree4.json"), "--max-index", "3"
    )
    assert code == 1
    assert "LIMIT_EXCEEDED" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-index", "-3", "must be a positive integer, got -3"),
        ("--max-index", "0", "must be a positive integer, got 0"),
        ("--max-dim", "0", "must be a positive integer, got 0"),
        ("--max-dim", "-1", "must be a positive integer, got -1"),
        ("--max-dim", "abc", "invalid int value: 'abc'"),
    ],
)
def test_limits_must_be_positive(capsys, option, value, message):
    with pytest.raises(SystemExit) as exit_:
        run(["analyze", str(CORPUS / "whitney.json"), option, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qonash analyze")
    assert f"argument {option}: {message}" in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["analyze", "-h"]])
def test_help_names_every_option(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for option in ("--format", "--oracle-check", "--max-dim", "--max-index"):
        assert option in captured.out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyse", str(CORPUS / "whitney.json")], "argument command: invalid choice: 'analyse'"),
        (
            ["analyze", "/nonexistent.json", "--max-index", "0"],
            "argument --max-index: must be a positive integer, got 0",
        ),
    ],
    ids=["command", "limit"],
)
def test_usage_error_before_input_read(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qonash analyze")
    assert message in captured.err
    assert "cannot read input" not in captured.err


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("field", ["sing_faces", "extra_faces"])
def test_null_face_list_refused(tmp_path, capsys, field):
    # A list field may be omitted, and then reads as empty, but is never null.
    path = _write(tmp_path, {"dim": 2, "branches": [{"label": "a", field: None}]})
    line = f"qonash: error: schema: $.branches[0].{field}: expected a list of index lists\n"
    assert run_cli(capsys, "analyze", path) == (2, "", line)


def test_tower_error_precedes_contact_error(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "branches": [
            {"label": "A", "char_exponents": [[[1, 2], [1, 2]]], "sing_faces": [[1, 2]]},
            {
                "label": "B",
                "char_exponents": [[[1, 2], [1, 2]], [[1, 1], [1, 1]]],
                "sing_faces": [[1, 2]],
            },
        ],
        "contacts": [{"from_label": "A", "to_label": "B", "exponent": [[1, 2], [1, 2]]}],
    }
    code, out, err = run_cli(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (1, "")
    assert "[NOT_CHARACTERISTIC] branch 'B'" in err
    assert "ASYMMETRIC_CONTACT" not in err


def test_degree_cap_precedes_branch_analysis(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "branches": [
            {"label": "A", "char_exponents": [[[1, 2], [1, 2]]]},
            {"label": "B", "char_exponents": [[[1, 4], [1, 4]]], "sing_faces": [[1, 2]]},
        ],
    }
    code, out, err = run_cli(capsys, "analyze", _write(tmp_path, doc), "--max-index", "3")
    assert (code, out) == (1, "")
    assert "[LIMIT_EXCEEDED] branch 'B': 4 candidate points above --max-index 3" in err
    assert "B_MISSING_SING" not in err


def test_default_max_index(tmp_path, capsys):
    # (1/m, 1/m) has m candidate points on face {1,2}, all but the corner
    # minimal; the default budget admits m = 10^5 and refuses m = 10^5 + 1.
    m = 10**5 + 1
    doc = {
        "schema_version": 1,
        "dim": 2,
        "branches": [
            {
                "label": "diag",
                "char_exponents": [[[1, m], [1, m]]],
                "sing_faces": [[1], [2]],
            }
        ],
    }
    code, out, err = run_cli(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err == (
        "qonash: error: [LIMIT_EXCEEDED] branch 'diag': "
        f"{m} candidate points above --max-index {m - 1}\n"
    )


def test_max_index_counts_candidate_points(tmp_path, capsys):
    # (1/6, 1/10, 1/15) has 40 candidate points, though face {1,2,3} alone
    # has 6 * 10 * 15 = 900 box cells.
    doc = {
        "schema_version": 1,
        "dim": 3,
        "branches": [
            {
                "label": "wide",
                "char_exponents": [[[1, 6], [1, 10], [1, 15]]],
                "sing_faces": [[1, 2], [1, 3], [2, 3]],
            }
        ],
    }
    path = _write(tmp_path, doc)
    code, out, err = run_cli(capsys, "analyze", path, "--format", "json", "--max-index", "40")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "analyze", path, "--format", "json")[1]
    code, out, err = run_cli(capsys, "analyze", path, "--max-index", "39")
    assert (code, out) == (1, "")
    assert err == (
        "qonash: error: [LIMIT_EXCEEDED] branch 'wide': "
        "40 candidate points above --max-index 39\n"
    )


def test_each_quantity_computed_once(capsys, monkeypatch):
    check_each_quantity_computed_once(capsys, monkeypatch, CORPUS / "reducible.json")


def test_each_quantity_computed_once_with_larger_faces(tmp_path, capsys, monkeypatch):
    # d = 3, where faces of three coordinates are singular, and each of the
    # first three branches walks its face {1,2,3} once; no 2-face is walked.
    # In "kept" that walk keeps 11 of its open box's 22 points past the caps
    # of the 2-face staircases, so S_min's dominance pass runs on those 11
    # alone, the staircase points being minimal already; in "pruned" the
    # caps drop all 12 points of that open box, and in "ridge" the open box
    # of {1,2,3} is empty (c_3 = 1), so it does not run; "plane" is smooth.
    def entry(label, exponent, sing_faces):
        exps = [[[x.numerator, x.denominator] for x in map(F, exponent)]]
        return {"label": label, "char_exponents": exps, "sing_faces": sing_faces}

    edges = [[1, 2], [1, 3], [2, 3]]
    doc = {
        "schema_version": 1,
        "dim": 3,
        "branches": [
            entry("kept", ["1/6", "1/10", "1/15"], edges),
            entry("pruned", ["1/5", "1/5", "4/5"], edges),
            entry("ridge", ["1/2", "1/2", "0"], [[1, 2]]),
            {"label": "plane", "char_exponents": [], "sing_faces": []},
        ],
        "contacts": [],
    }
    path = tmp_path / "larger.json"
    path.write_text(json.dumps(doc))
    calls = check_each_quantity_computed_once(capsys, monkeypatch, path)
    kept = qobranch.build_tower(BranchSpec(3, (RatVec([F(1, 6), F(1, 10), F(1, 15)]),))).N
    assert calls["_box_walk"] == 1 + 1 + 1
    assert calls["minimal_elements"] == calls["minimal_elements", kept] == 1
    assert calls["dominance input", kept] == calls["walked", kept] == 11


def check_each_quantity_computed_once(capsys, monkeypatch, path):
    """Run ``analyze --oracle-check`` on the document at ``path`` and check
    that each quantity is computed exactly once; returns the call counts."""
    dim, inputs = parse_variety(json.loads(path.read_text()))
    lattices = [qobranch.build_tower(b.spec).N for b in inputs]
    # Calls counted by name, and by the lattice N for the per-face layers;
    # the walks and dominance passes by the N whose S_min they serve.
    calls = Counter()
    branch = [None]
    for module, name in [
        (qobranch, "build_tower"),
        (conegeom, "parallelepiped_points"),
        (conegeom, "_box_walk"),
        (conegeom, "minimal_singular_points"),
        (conegeom, "minimal_elements"),
        (intlat, "dual_lattice"),
        (intlat, "face_sections"),
        (intlat, "section"),
        (intlat, "primitive_on_ray"),
        (intlat, "snf"),
        (intlat, "contains"),
        (intlat, "index"),
        (oracle, "_BoxScanner"),
        (oracle, "_adjugate"),
    ]:

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "minimal_singular_points":
                branch[0] = args[0]
            if _name == "face_sections":
                calls[_name, args[0]] += 1
            if _name in ("_box_walk", "minimal_elements"):
                calls[_name, branch[0]] += 1
            if _name == "minimal_elements":
                calls["dominance input", branch[0]] += len(args[0])
            out = _fn(*args, **kwargs)
            if _name == "face_sections":
                # One section for each face, all from this single call.
                calls["sections", args[0]] += len(out)
            if _name == "_box_walk":
                calls["walked", branch[0]] += len(out)
                if out:
                    calls["kept", branch[0]] = 1  # a point past the staircase caps
            return out

        monkeypatch.setattr(module, name, counted)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json", "--oracle-check")
    assert code == 0
    branches = json.loads(out)["branches"]
    assert len(branches) == len(lattices) > 1
    expected = Counter()
    for b, n in zip(branches, lattices):
        singular = b["singular_faces_of_sigma"]
        # One walk of the open box per singular face of three or more
        # coordinates; a 2-face's staircase is read off its section.  S_min's
        # dominance pass runs once iff such a walk keeps a point past the
        # staircase caps, and it gets exactly the walked points: no
        # staircase point, which is minimal already.
        for key in ("_box_walk", ("_box_walk", n)):
            expected[key] += sum(len(face) > 2 for face in singular)
        for key in ("minimal_elements", ("minimal_elements", n)):
            expected[key] += calls["kept", n]
        expected["dominance input", n] += calls["walked", n]
        expected["face_sections", n] += 1
        expected["sections", n] += 2**dim - 1
    for key, count in expected.items():
        assert calls[key] == count, key
    assert calls["build_tower"] == calls["minimal_singular_points"] == len(branches)
    assert calls["_BoxScanner"] == calls["dual_lattice"] == len(branches)
    # Every reported divisor is primitive by construction: none is solved
    # for.  The half-open box is only the tests' reference, and the oracle
    # reads N off the exponents with no elimination.
    for name in (
        "section", "primitive_on_ray", "snf", "contains", "index", "parallelepiped_points",
        "_adjugate",
    ):
        assert calls[name] == 0, name
    return calls


def test_no_rational_after_parsing(tmp_path, capsys, monkeypatch):
    # Past the input's exponents the mathematics is integral: a request
    # builds no RatVec and no Fraction once parse_variety has returned, in
    # either format and under --oracle-check.
    requests = [
        (CORPUS / f"{case}.json", "--format", fmt) for case in CASES for fmt in ("json", "text")
    ]
    for i, (spec, _) in enumerate(random_branches(60, seed=20250810)):
        exps = [[[c.numerator, c.denominator] for c in v] for v in spec.char_exponents]
        faces = [[k] for k in range(1, spec.dim + 1)]
        branch = {"label": "b", "char_exponents": exps, "sing_faces": faces}
        path = tmp_path / f"tower{i}.json"
        path.write_text(json.dumps({"dim": spec.dim, "branches": [branch]}))
        requests.append((path, "--format", "json", "--oracle-check"))
    built, parsed = Counter(), [False]

    def after_parse(doc):
        out = parse(doc)
        parsed[0] = True
        return out

    def counting(name, fn):
        def counted(*args, **kwargs):
            built[name] += parsed[0]
            return fn(*args, **kwargs)
        return counted

    parse = cli.parse_variety
    monkeypatch.setattr(cli, "parse_variety", after_parse)
    monkeypatch.setattr(RatVec, "__init__", counting("RatVec", RatVec.__init__))
    monkeypatch.setattr(F, "__new__", staticmethod(counting("Fraction", F.__new__)))
    for path, *args in requests:
        parsed[0] = False
        code, out, _ = run_cli(capsys, "analyze", str(path), *args)
        assert code == 0 and out and parsed[0]
    assert built == Counter(), built


def test_oracle_check_bounded_by_axis_reach(tmp_path, capsys):
    # Degree 24 in dimension 6: a scan bounded by the degree would cover
    # 25**6 points, above the oracle's cap; the largest axis reach, 6,
    # gives 7**6.
    half, three_quarters, five_sixths = [1, 2], [3, 4], [5, 6]
    doc = {
        "schema_version": 1,
        "dim": 6,
        "branches": [
            {
                "label": "d6",
                "char_exponents": [[half] * 6, [three_quarters] * 4 + [five_sixths] * 2],
                "sing_faces": [[k] for k in range(1, 7)],
            }
        ],
    }
    code, _, err = run_cli(capsys, "analyze", _write(tmp_path, doc), "--oracle-check")
    assert code == 0, err


def test_oracle_refusal_names_branch(tmp_path, capsys):
    # The oracle's reach box of 'big' is over its cap; the refusal, raised
    # before any cell is scanned, says which branch it was.
    doc = {
        "dim": 2,
        "branches": [
            {"label": label, "char_exponents": [[[1, q], [1, q]]], "sing_faces": [[1, 2]]}
            for label, q in (("small", 2), ("big", 20000))
        ],
    }
    code, out, err = run_cli(capsys, "analyze", _write(tmp_path, doc), "--oracle-check")
    assert (code, out) == (1, "")
    assert err == (
        "qonash: error: [LIMIT_EXCEEDED] branch 'big': box of 400040001 points "
        "exceeds the oracle cap\n"
    )


def test_asymmetric_contact_exit(tmp_path, capsys):
    doc = json.loads((CORPUS / "reducible.json").read_text())
    doc["contacts"] = doc["contacts"][:1]
    path = tmp_path / "oneway.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "ASYMMETRIC_CONTACT" in err


def _sheets(labels, contacts):
    """A dim-2 document of smooth sheets and (from, to) contacts at (1, 1)."""
    one = [[1, 1], [1, 1]]
    return {
        "schema_version": 1,
        "dim": 2,
        "branches": [{"label": label} for label in labels],
        "contacts": [{"from_label": f, "to_label": t, "exponent": one} for f, t in contacts],
    }


@pytest.mark.parametrize(
    "labels, contacts, code, line",
    [
        # Branch labels are read before any contact.
        (
            ["a", "b", "a", "b"],
            [("ghost", "a")],
            2,
            "schema: $.branches[2].label: duplicate label 'a'",
        ),
        (
            ["a", "b"],
            [("a", "b"), ("ghost", "c"), ("b", "ghost")],
            2,
            "schema: $.contacts[1].from_label: unknown branch 'ghost'",
        ),
        (["a"], [("a", "ghost")], 2, "schema: $.contacts[0].to_label: unknown branch 'ghost'"),
        # Then the first faulty contact of the first branch that has one.
        (
            ["a", "b"],
            [("b", "a"), ("a", "a"), ("a", "b")],
            1,
            "[SELF_CONTACT] branch 'a': a branch cannot meet itself",
        ),
        (
            ["a", "b"],
            [("a", "b"), ("b", "b")],
            1,
            "[ASYMMETRIC_CONTACT] branch 'a': lists a contact with 'b' but not conversely",
        ),
        (
            ["a", "b"],
            [("a", "b"), ("b", "a"), ("a", "b")],
            1,
            "[DUPLICATE_CONTACT] branch 'a': more than one contact listed for branch 'b'",
        ),
    ],
)
def test_error_precedence(tmp_path, capsys, labels, contacts, code, line):
    path = _write(tmp_path, _sheets(labels, contacts))
    assert run_cli(capsys, "analyze", path) == (code, "", f"qonash: error: {line}\n")


def test_zero_contact_exit_names_branch(tmp_path, capsys):
    doc = _sheets(["a", "b"], [("a", "b"), ("b", "a")])
    doc["contacts"][0]["exponent"] = [[0, 1], [0, 1]]
    assert run_cli(capsys, "analyze", _write(tmp_path, doc)) == (
        1,
        "",
        "qonash: error: [ZERO_CONTACT] branch 'a': zero contact exponent: a unit "
        "cuts out nothing, the branches do not meet\n",
    )


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_degree_too_long_to_write(tmp_path, fmt):
    # d = 1 with the exponents j + 1/p_j, p_j the j-th prime: the degree is
    # the product of 1 400 primes, about 10**4987, more digits than Python
    # converts by default.  No candidate budget stops it, as d = 1 has no
    # singular face.
    exps = [[[j * p + 1, p]] for j, p in enumerate(primes(1400), start=1)]
    path = _write(tmp_path, {"dim": 1, "branches": [{"label": "b", "char_exponents": exps}]})
    done = subprocess.run(
        [sys.executable, "-m", "qonash", "analyze", path, "--format", fmt],
        capture_output=True, env=src_env(),
    )
    limit = sys.get_int_max_str_digits()
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode() == (
        f"qonash: error: [LIMIT_EXCEEDED] branch 'b': degree or a lattice entry has "
        f"more than {limit} digits, more than Python writes "
        f"(sys.get_int_max_str_digits())\n"
    )


def test_closed_stdout_exits_cleanly():
    # Standard output is a pipe whose reader has already gone.
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qonash", "analyze", str(CORPUS / "whitney.json"),
             "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, env=src_env(),
        )
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == b"qonash: error: cannot write output: [Errno 32] Broken pipe\n"


def test_stdout_closed_before_start():
    # With fd 1 closed (`>&-` in a shell) Python sets sys.stdout to None.
    done = subprocess.run(
        [sys.executable, "-m", "qonash", "analyze", str(CORPUS / "whitney.json"),
         "--format", "json"],
        stderr=subprocess.PIPE, env=src_env(), preexec_fn=lambda: os.close(1),
    )
    assert done.returncode == 2
    assert done.stderr == (
        b"qonash: error: cannot write output: [Errno 9] standard output is closed\n"
    )


def test_stdin_closed_before_start():
    # With fd 0 closed (`<&-` in a shell) Python sets sys.stdin to None.
    done = subprocess.run(
        [sys.executable, "-m", "qonash", "analyze", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        preexec_fn=lambda: os.close(0),
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (
        b"qonash: error: cannot read input: [Errno 9] standard input is closed\n"
    )


# Before start, fd 2 closed (Python sets sys.stderr to None, and print would
# fall back to stdout) or open read-only (each write fails with EBADF).
LOST_STDERR = {
    "closed": lambda: os.close(2),
    "read-only": lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2),
}


@pytest.mark.parametrize("lost", LOST_STDERR)
def test_lost_stderr_keeps_report_and_status(lost):
    def analyze(*argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "qonash", "analyze", *argv],
            input=stdin, stdout=subprocess.PIPE, env=src_env(),
            preexec_fn=LOST_STDERR[lost],
        )

    # The smooth branch's EMPTY_B note goes to stderr; losing it costs nothing.
    done = analyze(str(CORPUS / "smooth.json"), "--format", "json")
    assert done.returncode == 0
    assert done.stdout == (CORPUS / "golden" / "smooth.report.json").read_bytes()
    done = analyze(str(CORPUS / "missing.json"))
    assert (done.returncode, done.stdout) == (2, b"")
    done = analyze("-", stdin=b'{"dim": 0}')
    assert (done.returncode, done.stdout) == (2, b"")


def test_unknown_key_rejected(tmp_path, capsys):
    doc = json.loads((CORPUS / "whitney.json").read_text())
    doc["typo_field"] = True
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "typo_field" in err


def test_oracle_mismatch_fails_run(capsys, monkeypatch):
    real = oracle.brute_exponents
    monkeypatch.setattr(oracle, "brute_exponents", lambda dim, exps: ([], *real(dim, exps)[1:]))
    code, out, err = run_cli(
        capsys, "analyze", str(CORPUS / "a1_cone.json"), "--oracle-check"
    )
    assert (code, out) == (1, "")
    assert err == (
        "qonash: error: [ORACLE_MISMATCH] branch 'a1': "
        "main S_min [(1, 1)], reaches [2, 2], face indices {(1,): 1, (1, 2): 2, (2,): 1}; "
        "brute S_min [], reaches [2, 2], face indices {(1,): 1, (1, 2): 2, (2,): 1}\n"
    )


def test_regularity_mismatch_fails_run(capsys, monkeypatch):
    real = oracle.brute_exponents

    def flipped(dim, exps):
        s_min, reach, faces = real(dim, exps)
        return s_min, reach, {**faces, (1,): 2}

    monkeypatch.setattr(oracle, "brute_exponents", flipped)
    code, out, err = run_cli(
        capsys, "analyze", str(CORPUS / "a1_cone.json"), "--oracle-check"
    )
    assert (code, out) == (1, "")
    assert err == (
        "qonash: error: [ORACLE_MISMATCH] branch 'a1': "
        "main S_min [(1, 1)], reaches [2, 2], face indices {(1,): 1, (1, 2): 2, (2,): 1}; "
        "brute S_min [(1, 1)], reaches [2, 2], face indices {(1,): 2, (1, 2): 2, (2,): 1}\n"
    )


@pytest.mark.parametrize(
    "case, label, mutate",
    [
        # Every singular face's index doubled: it feeds only the
        # --max-index budget, so the report itself stays golden.
        ("degree4", "deg4", lambda f: f if f.regular else f._replace(index=2 * f.index)),
        # Axis 1's reach set to 1, where the cone's is 2.
        ("reducible", "cone", lambda f: f._replace(reach=(1,)) if f.indices == (1,) else f),
    ],
    ids=["doubled_index", "wrong_reach"],
)
def test_corrupt_face_table_fails_check(capsys, monkeypatch, case, label, mutate):
    # The oracle compares every reach and face index with the main path's,
    # not only S_min and which faces are singular.
    real = conegeom.face_table
    monkeypatch.setattr(conegeom, "face_table", lambda n: tuple(map(mutate, real(n))))
    code, out, err = run_cli(capsys, "analyze", str(CORPUS / f"{case}.json"), "--oracle-check")
    assert (code, out) == (1, "")
    assert err.startswith(f"qonash: error: [ORACLE_MISMATCH] branch '{label}': main S_min "), err


@pytest.mark.parametrize("case", CASES)
def test_wrong_dual_fails_check(capsys, monkeypatch, case):
    # N with its last Hermite row doubled, a sublattice of index 2: the
    # oracle reads N off the exponents, so it does not follow the main path.
    real = intlat.dual_lattice

    def doubled(m):
        n = real(m)
        rows = [*n.scaled_basis[:-1], [2 * x for x in n.scaled_basis[-1]]]
        return intlat.lattice_from_scaled(n.denom, rows)

    monkeypatch.setattr(intlat, "dual_lattice", doubled)
    path = CORPUS / f"{case}.json"
    label = json.loads(path.read_text())["branches"][0]["label"]
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json", "--oracle-check")
    assert (code, out) == (1, "")
    assert err.startswith(f"qonash: error: [ORACLE_MISMATCH] branch '{label}': main S_min "), err


def test_wrong_tower_step_fails_check(tmp_path, capsys, monkeypatch):
    # Each tower step adds three times the numerators of its exponent.  On
    # the first 120 benchmark towers, M is unchanged where 3 is prime to
    # the step's index, and the tripled exponent may lie in the lattice
    # before it; every other report is refused, none is wrong.
    real = intlat.lattice_from_scaled

    def tripled(denom, rows):
        return real(denom, [*rows[:-1], [3 * x for x in rows[-1]]])

    mutated = types.SimpleNamespace(**{**vars(intlat), "lattice_from_scaled": tripled})
    outcomes = Counter()
    for i, (spec, _) in enumerate(random_branches(120, seed=20250810)):
        exps = [[[x.numerator, x.denominator] for x in lam] for lam in spec.char_exponents]
        sing = [[k] for k in range(1, spec.dim + 1)]
        branch = {"label": f"t{i}", "char_exponents": exps, "sing_faces": sing}
        path = tmp_path / f"t{i}.json"
        path.write_text(json.dumps({"schema_version": 1, "dim": spec.dim, "branches": [branch]}))
        argv = ("analyze", str(path), "--format", "json", "--oracle-check")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0, (i, expected[2])
        with monkeypatch.context() as patch:
            patch.setattr(qobranch, "intlat", mutated)
            code, out, err = run_cli(capsys, *argv)
        if (code, out, err) == expected:
            outcomes["unchanged"] += 1
            continue
        assert (code, out) == (1, ""), (i, err)
        tag = err.split("]")[0].split("[")[-1]
        assert err.startswith(f"qonash: error: [{tag}] branch 't{i}': "), err
        outcomes[tag] += 1
    assert outcomes == {"unchanged": 88, "NOT_CHARACTERISTIC": 20, "ORACLE_MISMATCH": 12}


def test_import_loads_no_oracle():
    # Nor dataclasses and the inspect it imports, which would double the
    # CLI's import time.
    code = (
        "import qonash.cli, sys; "
        "print(sorted({'numpy', 'qonash.oracle', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, env=src_env()
    )
    assert done.stdout == b"[]\n"


def test_oracle_check_without_numpy():
    # numpy blocked before qonash loads: the oracle needs none, so the
    # checked report is the golden one.
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "sys.argv[1:] = ['analyze', sys.argv[1], '--oracle-check']; "
        "import qonash.cli; qonash.cli.main()"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(CORPUS / "a1_cone.json")],
        capture_output=True, env=src_env(),
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (CORPUS / "golden" / "a1_cone.report.txt").read_bytes()


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # one parser, "qonash", for the one command
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = str(CORPUS / "whitney.json")
    assert run_cli(capsys, "analyze", path)[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(["analyze", path, "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    assert out == (CORPUS / "golden" / "whitney.report.json").read_text()
    assert built.count("qonash") <= 1


def test_subprocess_determinism_single_case():
    cmd = [sys.executable, "-m", "qonash", "analyze",
           str(CORPUS / "reducible.json"), "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=src_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=src_env())
    assert first.stdout == second.stdout


# Keys of the input schema, so that arbitrary JSON also reaches past the
# top-level checks.
SCHEMA_KEYS = (
    "schema_version", "dim", "branches", "contacts", "label", "char_exponents",
    "sing_faces", "extra_faces", "from_label", "to_label", "exponent",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=24,
)


@st.composite
def schema_documents(draw):
    """Documents of the input schema's shape: small rationals, some of them
    negative or zero, face indices now and then out of range, and contacts
    with unknown, self or one-way partners."""
    dim = draw(st.integers(1, 4))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    numerator = st.sampled_from([1, 2, 3, 4, 0] * 4 + [-1])
    rational = st.tuples(numerator, st.integers(1, 4)).map(list)
    vector = st.lists(rational, min_size=dim, max_size=dim)
    index = st.sampled_from([*range(1, dim + 1)] * 3 + [0, dim + 1])
    faces = st.lists(st.lists(index, min_size=1, max_size=dim), max_size=3)
    branches = [
        {
            "label": label,
            "char_exponents": draw(st.lists(vector, max_size=2)),
            "sing_faces": draw(faces),
            "extra_faces": draw(faces),
        }
        for label in labels
    ]
    partner = st.sampled_from(labels * 4 + ["ghost"])
    contact = st.fixed_dictionaries(
        {"from_label": partner, "to_label": partner, "exponent": vector}
    )
    contacts = draw(st.lists(contact, max_size=4))
    return {"schema_version": 1, "dim": dim, "branches": branches, "contacts": contacts}


class TestFuzz:
    # Any document ends in exit 0, 1 or 2, a coded error line on failure,
    # and never a traceback.
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "doc.json"

    def check(self, path, doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["analyze", str(path), "--max-index", "2000"])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert "qonash: error: " in err.getvalue()

    @given(schema_documents())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_schema_documents(self, path, doc):
        self.check(path, doc)

    @given(JSON_VALUES)
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_json_values(self, path, doc):
        self.check(path, doc)


def test_containing_extra_face_keeps_json(tmp_path, capsys):
    # An extra face containing a relevant face of B adds nothing to B.
    rng = random.Random(59)
    for d in range(2, 6):
        cross = [[k] for k in range(1, d + 1)]
        for spec, _ in random_branches(2, seed=590 + d, dims=(d,), max_index=24):
            exps = [[[c.numerator, c.denominator] for c in v] for v in spec.char_exponents]
            branch = {"label": "b", "char_exponents": exps, "sing_faces": cross}
            doc = {"schema_version": 1, "dim": d, "branches": [branch]}
            args = ("analyze", _write(tmp_path, doc), "--format", "json")
            code, base, err = run_cli(capsys, *args)
            assert (code, err) == (0, "")
            more = rng.sample(range(1, d + 1), rng.randint(0, d))
            branch["extra_faces"] = [sorted({rng.randint(1, d), *more})]
            args = ("analyze", _write(tmp_path, doc), "--format", "json")
            assert run_cli(capsys, *args) == (0, base, ""), branch["extra_faces"]
