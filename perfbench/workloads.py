"""Request documents of the three workloads, and their input pins.

A request is one `qonash analyze` command line plus the document it reads.
The documents of every workload are fixed: `corpus` reads the committed
corpus files, `towers` generates branches from the acceptance-envelope
generator at a fixed seed, and `ladder` builds a few large towers by hand.
`pins.json` records a digest of every request, so an edit to the corpus or
to the generator cannot silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

from towers import random_branches

TOWER_SEED = 20250810
# The first 260 of the 520 acceptance-criterion-1 towers: one pass over all
# 520 takes 40-50 s on a 2-core host, too long for one benchmark run.
TOWER_COUNT = 260
# Each corpus document is rendered in both formats this many times per pass,
# so one pass is 6 * 2 * 40 = 480 short requests.
CORPUS_REPEAT = 40
CORPUS_FORMATS = ("json", "text")

# Large fixed towers: (dimension, characteristic exponents).  At the commit
# that defined the benchmark, deg630 is refused with LIMIT_EXCEEDED.
LADDER = {
    "deg210": (3, [[F(1, 30), F(1, 42), F(1, 70)]]),
    "deg420": (3, [[F(1, 60), F(1, 84), F(1, 140)]]),
    "deg630": (3, [[F(1, 90), F(1, 126), F(1, 210)]]),
    "d6deg24": (6, [[F(1, 2)] * 6, [F(3, 4)] * 4 + [F(5, 6)] * 2]),
}


@dataclass(frozen=True)
class Request:
    key: str  # names the request; equal keys give equal outputs
    args: tuple[str, ...]  # CLI arguments after the document path
    doc: bytes  # the document the CLI reads

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update("\0".join(self.args).encode())
        h.update(b"\0")
        h.update(self.doc)
        return h.hexdigest()


def branch_document(dim: int, exponents) -> bytes:
    """One-branch document whose B is the full coordinate cross.

    The singleton faces contain the whole singular locus for every lattice,
    so no request of this shape is refused for a missing singular locus.
    """
    doc = {
        "schema_version": 1,
        "dim": dim,
        "branches": [
            {
                "label": "branch",
                "char_exponents": [
                    [[F(c).numerator, F(c).denominator] for c in vec] for vec in exponents
                ],
                "sing_faces": [[k] for k in range(1, dim + 1)],
            }
        ],
    }
    return json.dumps(doc, sort_keys=True).encode()


def corpus_requests(root: Path) -> list[Request]:
    out = []
    for path in sorted((root / "tests" / "corpus").glob("*.json")):
        doc = path.read_bytes()
        for fmt in CORPUS_FORMATS:
            out.append(Request(f"{path.stem}:{fmt}", ("--format", fmt), doc))
    return out * CORPUS_REPEAT


def tower_requests(root: Path) -> list[Request]:
    out = []
    for i, (spec, _) in enumerate(random_branches(TOWER_COUNT, seed=TOWER_SEED)):
        doc = branch_document(spec.dim, [v.coords for v in spec.char_exponents])
        out.append(Request(f"tower{i:03d}", ("--format", "json", "--oracle-check"), doc))
    return out


def ladder_requests(root: Path) -> list[Request]:
    return [
        Request(name, ("--format", "json"), branch_document(dim, exponents))
        for name, (dim, exponents) in LADDER.items()
    ]


# The requests of one pass of each workload, before the seeded shuffle.
# `ladder` is run by hand; BENCHMARK.json lists the other two.
BUILDERS = {
    "corpus": corpus_requests,
    "towers": tower_requests,
    "ladder": ladder_requests,
}


def distinct(requests: list[Request]) -> list[Request]:
    """Each request once, in key order."""
    return sorted({r.key: r for r in requests}.values(), key=lambda r: r.key)


def input_digests(requests: list[Request]) -> dict[str, str]:
    return {r.key: r.digest for r in distinct(requests)}
