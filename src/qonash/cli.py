"""Command-line front end.

Reads a JSON variety description (per-branch characteristic exponents,
singular-locus faces, optional extra faces, and pairwise contact exponents),
runs the per-branch analysis, and emits a human-readable or machine-readable
report.  The machine format is canonical JSON: stable key order, rationals as
[numerator, denominator] pairs, newline-terminated, so byte-identical reruns
are guaranteed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .errors import DomainError, SchemaError
from .intlat import MAX_DIM, Lattice, RatVec
from .nashmap import (
    BranchInput,
    BranchReport,
    Contact,
    VarietyReport,
    analyze_variety,
)
from .qobranch import BranchSpec

SCHEMA_VERSION = 1

# Each essential divisor is carried as its integer point p, and the report
# writes it with "primitive" equal to "vector", "multiplicity" 1 and the
# origin of the list that holds it.  Each p is primitive in N: were p in
# S_min q*p' with p' in N and q >= 2, p' would lie in the same singular face
# interior strictly below p; the barycenter sum_F c_i e_i of a regular face
# F is (1, ..., 1) in the basis c_i e_i of N on span F, a saturated
# sublattice of N.
ORIGIN_TORIC_MINIMAL = "toric-minimal"  # s_min and V
ORIGIN_BARYCENTER = "barycenter"  # E


# ---------------------------------------------------------------- input file


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational(value, path: str) -> Fraction:
    _expect(
        isinstance(value, list) and len(value) == 2, path, "expected a [num, den] pair"
    )
    num, den = value
    _expect(_is_int(num) and _is_int(den), path, "num and den must be integers")
    _expect(den > 0, path, "denominator must be positive")
    return Fraction(num, den)


def _parse_vector(value, dim: int, path: str) -> RatVec:
    _expect(isinstance(value, list), path, "expected a list of [num, den] pairs")
    _expect(len(value) == dim, path, f"expected {dim} coordinates, got {len(value)}")
    return RatVec(_parse_rational(c, f"{path}[{i}]") for i, c in enumerate(value))


def _parse_faces(value, path: str) -> tuple[tuple[int, ...], ...]:
    if value is None:
        return ()
    _expect(isinstance(value, list), path, "expected a list of index lists")
    out = []
    for i, face in enumerate(value):
        _expect(
            isinstance(face, list) and all(_is_int(x) for x in face),
            f"{path}[{i}]",
            "expected a list of integers",
        )
        out.append(tuple(face))
    return tuple(out)


def _known_keys(raw: dict, known: set[str], path: str) -> None:
    for key in raw:
        _expect(key in known, f"{path}.{key}", "unknown key")


def parse_variety(doc) -> tuple[int, list[BranchInput]]:
    """Validate a parsed JSON document and build the branch inputs."""
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    _expect(
        _is_int(version) and version == SCHEMA_VERSION,
        "$.schema_version",
        f"unsupported schema version {version!r}, expected {SCHEMA_VERSION}",
    )
    _known_keys(doc, {"schema_version", "dim", "branches", "contacts"}, "$")
    dim = doc.get("dim")
    _expect(
        _is_int(dim) and 1 <= dim <= MAX_DIM,
        "$.dim",
        f"dim must be an integer in 1..{MAX_DIM}",
    )
    raw_branches = doc.get("branches")
    _expect(isinstance(raw_branches, list), "$.branches", "expected a list")

    parsed: dict[str, tuple[BranchSpec, tuple, tuple, list[Contact]]] = {}
    for b, raw in enumerate(raw_branches):
        path = f"$.branches[{b}]"
        _expect(isinstance(raw, dict), path, "expected an object")
        _known_keys(raw, {"label", "char_exponents", "sing_faces", "extra_faces"}, path)
        label = raw.get("label")
        _expect(
            isinstance(label, str) and label != "", f"{path}.label", "nonempty string required"
        )
        _expect(label not in parsed, f"{path}.label", f"duplicate label {label!r}")
        exps_raw = raw.get("char_exponents", [])
        _expect(isinstance(exps_raw, list), f"{path}.char_exponents", "expected a list")
        exps = tuple(
            _parse_vector(e, dim, f"{path}.char_exponents[{j}]")
            for j, e in enumerate(exps_raw)
        )
        parsed[label] = (
            BranchSpec(dim=dim, char_exponents=exps, label=label),
            _parse_faces(raw.get("sing_faces"), f"{path}.sing_faces"),
            _parse_faces(raw.get("extra_faces"), f"{path}.extra_faces"),
            [],
        )

    contacts_raw = doc.get("contacts", [])
    _expect(isinstance(contacts_raw, list), "$.contacts", "expected a list")
    for c, raw in enumerate(contacts_raw):
        path = f"$.contacts[{c}]"
        _expect(isinstance(raw, dict), path, "expected an object")
        _known_keys(raw, {"from_label", "to_label", "exponent"}, path)
        frm, to = raw.get("from_label"), raw.get("to_label")
        _expect(isinstance(frm, str), f"{path}.from_label", "string required")
        _expect(isinstance(to, str), f"{path}.to_label", "string required")
        _expect(frm in parsed, f"{path}.from_label", f"unknown branch {frm!r}")
        _expect(to in parsed, f"{path}.to_label", f"unknown branch {to!r}")
        exponent = _parse_vector(raw.get("exponent"), dim, f"{path}.exponent")
        parsed[frm][3].append(Contact(exponent=exponent, partner=to))

    inputs = [
        BranchInput(spec, sing, extra, tuple(contacts))
        for spec, sing, extra, contacts in parsed.values()
    ]
    return dim, inputs


# ------------------------------------------------------------------- output


def _vec_json(v) -> list[list[int]]:
    """A RatVec or an integer point as [numerator, denominator] pairs."""
    return [[c.numerator, c.denominator] for c in v]


def _divisor_json(p, origin: str) -> dict:
    vector = _vec_json(p)
    return {"vector": vector, "primitive": vector, "multiplicity": 1, "origin": origin}


def _lattice_json(l: Lattice) -> dict:
    return {"denom": l.denom, "scaled_basis": [list(row) for row in l.scaled_basis]}


def _branch_json(report: BranchReport) -> dict:
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


def report_to_dict(result: VarietyReport, dim: int) -> dict:
    """The report as a dict, the view :func:`render_json` writes."""
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": dim,
        "branches": [_branch_json(report) for report in result.branches],
        "total_nash": result.total_nash,
        "total_essential": result.total_essential,
    }


def _list(items: list[str], nl: str) -> str:
    """Written items as a JSON list opened at ``nl`` (a newline and that
    depth's indent), one item a line one level deeper."""
    if not items:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def _ints(values, nl: str) -> str:
    return _list([str(x) for x in values], nl)


def _vec(v, nl: str) -> str:
    """A RatVec or an integer point as [numerator, denominator] pairs."""
    n1, n2 = nl + "  ", nl + "    "
    return _list([f"[{n2}{c.numerator},{n2}{c.denominator}{n1}]" for c in v], nl)


def _divisors(points, origin: str, nl: str) -> str:
    n1, n2 = nl + "  ", nl + "    "
    head = f'{{{n2}"multiplicity": 1,{n2}"origin": {_escape(origin)},{n2}"primitive": '
    vectors = (_vec(p, n2) for p in points)
    return _list([f'{head}{v},{n2}"vector": {v}{n1}}}' for v in vectors], nl)


def _lattice(l: Lattice, nl: str) -> str:
    n1 = nl + "  "
    rows = _list([_ints(row, n1 + "  ") for row in l.scaled_basis], n1)
    return f'{{{n1}"denom": {l.denom},{n1}"scaled_basis": {rows}{nl}}}'


def _branch_pieces(report: BranchReport) -> list[str]:
    """One branch of the report, at the depth of the ``branches`` items."""
    nl, k = "\n    ", "\n      "  # the branch object, its keys
    f1, f2, f3 = k + "  ", k + "    ", k + "      "  # the items of a key's list
    faces = []
    for face in report.relevant:
        gens = _list([_vec(p, f3) for p in face.primgens], f2)
        regular = "true" if face.regular else "false"
        faces.append(
            f'{{{f2}"indices": {_ints(face.indices, f2)},{f2}"primitive_generators": {gens},'
            f'{f2}"regular": {regular}{f1}}}'
        )
    notes = [
        f'{{{f2}"code": {_escape(d.code)},{f2}"message": {_escape(d.message)}{f1}}}'
        for d in report.diagnostics
    ]
    exps = _list([_vec(v, f1) for v in report.char_exponents], k)
    sing = _list([_ints(i, f1) for i in report.singular_faces_of_sigma], k)
    s_min = _divisors(report.s_min, ORIGIN_TORIC_MINIMAL, k)
    lattices = report.lattices
    return [
        f'{nl}{{{k}"E": {_divisors(report.E, ORIGIN_BARYCENTER, k)},{k}"V": ',
        s_min,  # V is S_min
        f',{k}"char_exponents": {exps},{k}"degree": {lattices.degree_n},'
        f'{k}"diagnostics": {_list(notes, k)},{k}"label": {_escape(report.label)},'
        f'{k}"lattice_M": {_lattice(lattices.M, k)},'
        f'{k}"lattice_N": {_lattice(lattices.N, k)},{k}"nash_count": {report.nash_count},'
        f'{k}"relevant_faces": {_list(faces, k)},{k}"s_min": ',
        s_min,
        f',{k}"singular_faces_of_sigma": {sing},'
        f'{k}"tower_step_indices": {_ints(lattices.step_indices, k)}{nl}}}',
    ]


def render_json(result: VarietyReport, dim: int) -> list[str]:
    """The canonical report as string pieces, to be written in order: joined,
    byte for byte ``json.dumps(report_to_dict(result, dim), indent=2,
    sort_keys=True) + "\\n"``.  A branch's S_min block is built once and is
    the same string object as its V block."""
    pieces = ['{\n  "branches": [']
    for i, report in enumerate(result.branches):
        if i:
            pieces.append(",")
        pieces += _branch_pieces(report)
    close = "\n  ]" if result.branches else "]"
    pieces.append(
        f'{close},\n  "dim": {dim},'
        f'\n  "schema_version": {SCHEMA_VERSION},'
        f'\n  "total_essential": {result.total_essential},'
        f'\n  "total_nash": {result.total_nash}\n}}\n'
    )
    return pieces


def _fmt_face(idx) -> str:
    return "{" + ",".join(str(i) for i in idx) + "}"


def _fmt_divisor(p) -> str:
    vector = ", ".join(map(str, p))
    return f"({vector}) = 1*({vector})"


def render_text(result: VarietyReport, dim: int) -> str:
    lines = [f"variety: dim {dim}, {len(result.branches)} branch(es)", ""]
    for report in result.branches:
        lines.append(f"branch {report.label!r}")
        exps = report.char_exponents
        lines.append(
            "  characteristic exponents: "
            + (", ".join(str(v) for v in exps) if exps else "(none, smooth)")
        )
        lines.append(
            f"  tower step indices: {list(report.lattices.step_indices)}"
            f"  degree n = {report.lattices.degree_n}"
        )
        lines.append("  N basis: " + ", ".join(str(v) for v in report.lattices.N.basis))
        lines.append(
            "  singular faces of sigma: "
            + (
                ", ".join(_fmt_face(i) for i in report.singular_faces_of_sigma)
                or "(none)"
            )
        )
        if report.relevant:
            lines.append("  relevant faces:")
            for face in report.relevant:
                tag = "regular" if face.regular else "singular"
                gens = ", ".join(str(p) for p in face.primgens)
                lines.append(f"    {_fmt_face(face.indices)}: {tag}, edge generators {gens}")
        else:
            lines.append("  relevant faces: (none)")
        s_min, e = ("; ".join(map(_fmt_divisor, d)) or "(empty)" for d in (report.s_min, report.E))
        lines += [f"  S_min: {s_min}", f"  E (barycenters): {e}"]
        lines.append(f"  V (surviving minimal): {s_min}")  # V is S_min
        for diag in report.diagnostics:
            lines.append(f"  note [{diag.code}]: {diag.message}")
        lines.append(
            f"  nash components = essential divisors = {report.nash_count}"
        )
        lines.append("")
    lines.append(
        f"totals: nash components = essential divisors = {result.total_nash}"
    )
    if result.total_nash == 0:
        lines.append(
            "warning: B is empty on every branch; the variety is smooth or the "
            "relative set is empty"
        )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ command


def _oracle_check(result: VarietyReport) -> None:
    # Imported here so that numpy loads only when the check is asked for.
    from . import oracle

    for report in result.branches:
        n = report.lattices.N
        # The oracle scans only the box of its own axis reaches, read off its
        # adjugate, and refuses the bound if one lies beyond the largest
        # reach of an edge the main path found.
        bound = max(f.reach[0] for f in report.faces if len(f.indices) == 1)
        try:
            brute, singular = oracle.brute_branch(n, bound)
        except DomainError as exc:  # a refused scan names its branch
            raise DomainError(exc.code, exc.message, branch=report.label) from None
        if brute != list(report.s_min):
            main, brute = list(map(RatVec, report.s_min)), list(map(RatVec, brute))
            raise DomainError(
                "ORACLE_MISMATCH",
                f"minimal singular-face points differ: main {main}, brute {brute}",
                branch=report.label,
            )
        for face in report.faces:
            slow = face.indices not in singular
            if face.regular != slow:
                raise DomainError(
                    "ORACLE_MISMATCH",
                    f"regularity of face {face.indices} differs: "
                    f"main {face.regular}, brute {slow}",
                    branch=report.label,
                )


def _positive_int(text: str) -> int:
    """argparse type for the limits: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qonash",
        description=(
            "Essential divisors and Nash components of quasi-ordinary "
            "hypersurface germs, from characteristic exponent data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="analyze a variety description file")
    analyze.add_argument("file", help="JSON description file, or - for stdin")
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    analyze.add_argument(
        "--oracle-check",
        action="store_true",
        help="recompute core results by brute force and fail on mismatch",
    )
    analyze.add_argument(
        "--max-dim",
        type=_positive_int,
        default=8,
        help="refuse inputs above this dimension",
    )
    analyze.add_argument(
        "--max-index",
        type=_positive_int,
        default=10**5,
        help=(
            "cap on each branch's candidate points: the sum of the index over "
            "the singular faces, checked before enumeration"
        ),
    )
    return parser


def _stderr(line: str) -> None:
    """Write one line to stderr; a closed or failing stderr writes nothing
    and costs neither the report nor the exit status."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except OSError:
        pass


def run(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.file == "-":
            if sys.stdin is None:  # fd 0 was closed before Python started
                raise OSError(errno.EBADF, "standard input is closed")
            raw = sys.stdin.buffer.read()
        else:
            with open(args.file, "rb") as handle:
                raw = handle.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _stderr(f"qonash: error: cannot read input: {exc}")
        return 2

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integer literals over Python's digit limit.
        _stderr(f"qonash: error: invalid JSON: {exc}")
        return 2

    try:
        dim, inputs = parse_variety(doc)
        if dim > args.max_dim:
            raise DomainError(
                "LIMIT_EXCEEDED", f"dim {dim} above --max-dim {args.max_dim}"
            )
        result = analyze_variety(inputs, max_points=args.max_index)
        if args.oracle_check:
            _oracle_check(result)
    except SchemaError as exc:
        _stderr(f"qonash: error: schema: {exc}")
        return 2
    except DomainError as exc:
        _stderr(f"qonash: error: {exc}")
        return 1

    for report in result.branches:
        for diag in report.diagnostics:
            _stderr(f"qonash: branch {report.label!r}: [{diag.code}] {diag.message}")
    if args.fmt == "json":
        pieces = render_json(result, dim)
    else:
        pieces = [render_text(result, dim)]
    try:
        if sys.stdout is None:  # fd 1 was closed before Python started
            raise OSError(errno.EBADF, "standard output is closed")
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        _stderr(f"qonash: error: cannot write output: {exc}")
        return 2
    return 0


def main() -> None:
    status = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # bytes a failed write left for the flush at exit
        # Point fd 1 at devnull, as the `signal` docs advise for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)
