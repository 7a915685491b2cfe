"""Benchmark of the qonash CLI: closed-loop workloads with one client.

Each request calls `qonash.cli.run` in this process with stdout and stderr
captured; the next request is sent when the previous one has returned.
Whole passes over the workload's requests repeat until `--seconds` have
passed (at least one pass), each in an order shuffled by `--seed`.  With
`--trace 1` the run then makes two more passes with every layer traced
(see layers.py).  Outputs are checked after the timed passes.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --record-pins

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics listed in
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The lines before it summarise the run.  A traceback, or an exit status of
the CLI outside {0, 1, 2}, ends the run without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
SETUP_REPEATS = 6  # timed imports before the passes, and again after
TRACED_PASSES = 2

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    from qonash import cli, intlat, oracle, qobranch

    import layers
    import workloads
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program under test: {exc}")


@dataclass
class Reply:
    status: int
    stdout: str
    stderr: str
    seconds: float


def call_cli(path: str, args) -> Reply:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.run(["analyze", path, *args])
        except SystemExit as exc:  # argparse refusing the command line
            status = exc.code
    seconds = perf_counter() - start
    if status not in (0, 1, 2):
        raise RuntimeError(f"qonash exited with status {status!r}: {err.getvalue()}")
    return Reply(status, out.getvalue(), err.getvalue(), seconds)


def error_code(reply: Reply) -> str:
    match = re.search(r"\[([A-Z_]+)\]", reply.stderr)
    return match.group(1) if match else f"exit{reply.status}"


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    latencies: list[tuple[str, float]]  # (request key, seconds), in send order


@dataclass
class Client:
    """One closed-loop client; remembers every outcome it saw, per request."""

    paths: dict[str, str]
    outcomes: dict[str, set] = field(default_factory=dict)  # key -> {(status, sha)}
    stdout: dict[str, str] = field(default_factory=dict)  # key -> first stdout
    errors: Counter = field(default_factory=Counter)  # error code -> count
    attempted: int = 0

    def run_pass(self, order) -> Pass:
        latencies = []
        cpu, start = os.times(), perf_counter()
        for request in order:
            reply = call_cli(self.paths[request.key], request.args)
            latencies.append((request.key, reply.seconds))
            self._record(request.key, reply)
        wall = perf_counter() - start
        cpu_now = os.times()
        return Pass(wall, cpu_now.user + cpu_now.system - cpu.user - cpu.system, latencies)

    def _record(self, key: str, reply: Reply) -> None:
        self.attempted += 1
        sha = hashlib.sha256(reply.stdout.encode()).hexdigest()
        self.outcomes.setdefault(key, set()).add((reply.status, sha))
        self.stdout.setdefault(key, reply.stdout)
        if reply.status:
            self.errors[error_code(reply)] += 1

    def observed(self) -> dict[str, list]:
        return {k: list(min(v)) for k, v in sorted(self.outcomes.items())}


def write_documents(requests, workdir: Path) -> dict[str, str]:
    paths = {}
    for request in workloads.distinct(requests):
        path = workdir / (request.key.replace(":", "_") + ".json")
        path.write_bytes(request.doc)
        paths[request.key] = str(path)
    return paths


# ------------------------------------------------------------------ metrics


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    With ten samples or fewer there is none, and the maximum is reported.
    """
    if n <= 10:
        return 100
    return max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10)


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def pass_metrics(passes: list[Pass]) -> dict[str, float]:
    """Median wall time of a pass; latency percentiles over all passes.

    The tail percentile is fixed by the size of one pass, and its value is
    taken over the requests of every pass, which steadies it.
    """
    seconds = [s for p in passes for _, s in p.latencies]
    tail = tail_percentile(len(passes[0].latencies))
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "latency_p50_ms": 1000 * statistics.median(seconds),
        "latency_tail_ms": 1000 * percentile(seconds, tail),
    }


class Setup:
    """Times a fresh interpreter importing qonash.cli.

    Bytecode is cached in the work directory, and one untimed import fills
    that cache first, so every timed import finds compiled bytecode.  The
    run samples before and after its passes, so the median spans the run.
    """

    def __init__(self, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        self.times: list[float] = []
        self._import()

    def _import(self) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import qonash.cli"], env=self.env, cwd=ROOT, check=True
        )
        return perf_counter() - start

    def sample(self, count: int) -> None:
        self.times += [self._import() for _ in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def rung_seconds(passes: list[Pass]) -> dict[str, float]:
    """Median request time of each ladder rung."""
    return {
        f"ladder.{name}.s": statistics.median(
            s for p in passes for key, s in p.latencies if key == name
        )
        for name in workloads.LADDER
    }


# ------------------------------------------------------------------- checks


def oracle_s_min(dim: int, exponents) -> list:
    """S_min by brute force, the scan bounded by the largest axis reach."""
    spec = qobranch.BranchSpec(
        dim=dim, char_exponents=tuple(intlat.RatVec(e) for e in exponents)
    )
    n = qobranch.build_tower(spec).N
    reach = [intlat.primitive_on_ray(n, k).coords[k - 1] for k in range(1, dim + 1)]
    assert all(c.denominator == 1 for c in reach)
    return oracle.brute_minimal_S(n, int(max(reach)))


def reported_s_min(stdout: str) -> list:
    branch = json.loads(stdout)["branches"][0]
    return [
        intlat.RatVec(Fraction(num, den) for num, den in d["vector"])
        for d in branch["s_min"]
    ]


def output_problems(workload: str, client: Client, pins: dict | None) -> list[str]:
    problems = [
        f"{key}: output differs between passes"
        for key, seen in client.outcomes.items()
        if len(seen) != 1
    ]
    observed = client.observed()
    if pins is not None:
        for key, expected in pins["outputs"].items():
            # A request refused when pinned that now succeeds has no recorded
            # output; the workload's own check below verifies it.
            if expected[0] != 0 and observed[key][0] == 0:
                continue
            if observed[key] != expected:
                problems.append(f"{key}: exit status or stdout differs from pins.json")
    if workload == "corpus":
        golden = ROOT / "tests" / "corpus" / "golden"
        for key, text in client.stdout.items():
            stem, fmt = key.split(":")
            if fmt == "json" and text.encode() != (golden / f"{stem}.report.json").read_bytes():
                problems.append(f"{key}: differs from the golden report")
    if workload == "towers":
        problems += [f"{k}: exit status {s}" for k, (s, _) in observed.items() if s != 0]
    if workload == "ladder":
        for name, (dim, exponents) in workloads.LADDER.items():
            if observed[name][0] == 0 and reported_s_min(
                client.stdout[name]
            ) != oracle_s_min(dim, exponents):
                problems.append(f"ladder {name}: S_min differs from the oracle")
    return problems


def trace_problems(traced: list[tuple[Pass, layers.Tracer]]) -> list[str]:
    problems = []
    counts = [tracer.work_counts() for _, tracer in traced]
    if any(c != counts[0] for c in counts):
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        problems.append(f"work counts differ between traced passes: {diff}")
    for p, tracer in traced:
        self_sum = sum(v for k, v in tracer.timings().items() if k.endswith(".self_s"))
        request_sum = sum(s for _, s in p.latencies)
        # The gap is the time spent in call_cli outside the cli.run span.
        if not 0 <= request_sum - self_sum <= 0.02 * request_sum:
            problems.append(
                f"self times add up to {self_sum:.6f} s, requests took {request_sum:.6f} s"
            )
    return problems


# --------------------------------------------------------------------- main


def load_pins(workload: str, requests) -> dict:
    pins = json.loads(PINS.read_text())[workload]
    current = workloads.input_digests(requests)
    if current != pins["inputs"]:
        changed = sorted(set(current.items()) ^ set(pins["inputs"].items()))
        raise SystemExit(
            f"perfbench: the {workload} inputs differ from pins.json "
            f"({len(changed)} entries, first {changed[0][0]}); refusing to run"
        )
    return pins


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    requests = workloads.BUILDERS[args.workload](ROOT)
    pins = load_pins(args.workload, requests)
    rng = random.Random(args.seed)

    def shuffled():
        order = list(requests)
        rng.shuffle(order)
        return order

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup = Setup(Path(tmp))
        setup.sample(SETUP_REPEATS)
        client = Client(write_documents(requests, Path(tmp)))
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < args.seconds:
            passes.append(client.run_pass(shuffled()))
        rss = peak_rss_mb()
        setup.sample(SETUP_REPEATS)
        traced = []
        for _ in range(TRACED_PASSES if args.trace else 0):
            with layers.Tracer() as tracer:
                traced.append((client.run_pass(shuffled()), tracer))
        problems = output_problems(args.workload, client, pins)
        problems += trace_problems(traced)

    failed = sum(client.errors.values())
    values = pass_metrics(passes)
    values.update(
        setup_s=statistics.median(setup.times),
        peak_rss_mb=rss,
        error_rate=failed / client.attempted,
    )
    if args.workload == "ladder":
        values.update(rung_seconds(passes))
    if traced:
        values.update(traced[0][1].work_counts())
        for key in traced[0][1].timings():
            values[key] = statistics.median(t.timings()[key] for _, t in traced)
        values["trace.overhead_s"] = (
            statistics.median(p.wall_s for p, _ in traced) - values["wall_s"]
        )

    n = len(passes[0].latencies)
    print(
        f"perfbench {args.workload}: seed {args.seed}, {len(passes)} untraced and "
        f"{len(traced)} traced passes of {n} requests; tail is p{tail_percentile(n)}"
    )
    print(f"  cpu_s per pass (median): {statistics.median(p.cpu_s for p in passes):.4f}")
    print(
        f"  attempted {client.attempted}, failed {failed}, "
        f"error_rate {values['error_rate']}, by code {dict(client.errors)}"
    )
    for problem in problems:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, value in values.items():
        print(f"  {key} {value} {units.get(key, 's')}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": not problems,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record_pins() -> int:
    """Run each distinct request once, check its output, and rewrite pins.json."""
    pins = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for workload, build in workloads.BUILDERS.items():
            requests = build(ROOT)
            client = Client(write_documents(requests, Path(tmp)))
            client.run_pass(workloads.distinct(requests))
            problems = output_problems(workload, client, None)
            if problems:
                sys.exit(f"perfbench: not pinning {workload}: {problems}")
            pins[workload] = {
                "inputs": workloads.input_digests(requests),
                "outputs": client.observed(),
            }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0, help="request order")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-pins", action="store_true", help="rewrite pins.json and exit"
    )
    args = parser.parse_args(argv)
    if args.record_pins:
        return record_pins()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
