"""Outside-in layer trace of the qonash CLI.

The public function of each layer is replaced, for the length of one traced
pass, by a wrapper that counts calls and measures self time: the wrapper's
duration minus the time spent in wrapped functions it called.  A function is
replaced wherever its caller resolves it, so names imported into another
module (`cli.analyze_variety`, `nashmap.leq_sigma`) are replaced there too.
Because every span either is a `cli.run` call or lies inside one, the self
times of all wrapped functions add up to the summed `cli.run` time.

Work counts are taken from arguments and results, never by changing the
program.  `parallelepiped_points.box_cells` is computed here from the input
(the product of the face's axis reaches c_j), not counted by the program.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from qonash import cli, conegeom, intlat, nashmap, oracle, qobranch


def _points(tracer, args, result):
    tracer.counts["conegeom.parallelepiped_points.points"] += len(result)
    tracer.faces.append(args[:2])  # box cells are computed after the pass


def _minimal(tracer, args, result):
    tracer.counts["conegeom.minimal_elements.in"] += len(args[0])
    tracer.counts["conegeom.minimal_elements.out"] += len(result)


def _split(tracer, args, result):
    tracer.counts["nashmap.essential_divisors.E"] += len(result[0])
    tracer.counts["nashmap.essential_divisors.V"] += len(result[1])


def _box_points(tracer, args, result):
    n, bound = args
    tracer.counts["oracle.brute_minimal_S.box_points"] += (bound + 1) ** n.dim


# (span name, modules that resolve the function, attribute, work-count hook)
TIMED = (
    ("cli.run", (cli,), "run", None),
    ("cli.parse_variety", (cli,), "parse_variety", None),
    ("cli.report_to_dict", (cli,), "report_to_dict", None),
    ("cli.render_json", (cli,), "render_json", None),
    ("cli.render_text", (cli,), "render_text", None),
    ("nashmap.analyze_variety", (nashmap, cli), "analyze_variety", None),
    ("nashmap.analyze_branch", (nashmap,), "analyze_branch", None),
    ("nashmap.essential_divisors", (nashmap,), "essential_divisors", _split),
    ("qobranch.build_tower", (qobranch,), "build_tower", None),
    ("intlat.primitive_on_ray", (intlat,), "primitive_on_ray", None),
    ("intlat.integer_kernel", (intlat,), "integer_kernel", None),
    ("intlat.snf", (intlat,), "snf", None),
    ("conegeom.singular_faces", (conegeom,), "singular_faces", None),
    ("conegeom.face_data", (conegeom,), "face_data", None),
    ("conegeom.parallelepiped_points", (conegeom,), "parallelepiped_points", _points),
    ("conegeom.minimal_elements", (conegeom,), "minimal_elements", _minimal),
    ("conegeom.minimal_toric_divisors", (conegeom,), "minimal_toric_divisors", None),
    ("conegeom.barycenter", (conegeom,), "barycenter", None),
    ("oracle.brute_minimal_S", (oracle,), "brute_minimal_S", _box_points),
    ("oracle.brute_face_index", (oracle,), "brute_face_index", None),
)
# Dominance comparisons are too many and too short to time one by one; they
# are only counted, and their time stays in the caller's self time.
COUNTED = (("conegeom.leq_sigma", (conegeom, nashmap), "leq_sigma"),)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the trace reports, with its unit."""
    units = {}
    for name, _, _, _ in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name, _, _ in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in (
        "conegeom.parallelepiped_points.points",
        "conegeom.parallelepiped_points.box_cells",
        "conegeom.minimal_elements.in",
        "conegeom.minimal_elements.out",
        "nashmap.essential_divisors.E",
        "nashmap.essential_divisors.V",
        "oracle.brute_minimal_S.box_points",
    ):
        units[name] = "count"
    return units


class Tracer:
    """Calls, self time and work counts of one traced pass.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.
    """

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # child time of each open span
        self.faces: list[tuple] = []  # (lattice, indices) per enumeration
        self._saved: list[tuple] = []

    def _timed(self, name, fn, hook):
        calls, self_s, total_s = f"{name}.calls", f"{name}.self_s", f"{name}.total_s"
        counts, seconds, stack = self.counts, self.seconds, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                counts[calls] += 1
                seconds[self_s] += elapsed - children
                seconds[total_s] += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts, calls = self.counts, f"{name}.calls"

        def wrapper(*args):
            counts[calls] += 1
            return fn(*args)

        return wrapper

    def __enter__(self):
        for name, modules, attr, hook in TIMED:
            self._install(modules, attr, self._timed(name, getattr(modules[0], attr), hook))
        for name, modules, attr in COUNTED:
            self._install(modules, attr, self._counted(name, getattr(modules[0], attr)))
        return self

    def _install(self, modules, attr, wrapper):
        for module in modules:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        # Computed after the pass, with the original functions restored, so
        # it adds nothing to any span.
        for n, indices in self.faces:
            cells = 1
            for i in set(indices):
                cells *= int(intlat.primitive_on_ray(n, i).coords[i - 1] * n.denom)
            self.counts["conegeom.parallelepiped_points.box_cells"] += cells
        self.faces.clear()
        return False

    def work_counts(self) -> dict[str, int]:
        """Every count of the pass; zero for a layer the pass never reached."""
        return {
            name: self.counts.get(name, 0)
            for name, unit in metric_units().items()
            if unit == "count"
        }

    def timings(self) -> dict[str, float]:
        """Self and total (self plus wrapped children) times, in seconds."""
        return {
            name: self.seconds.get(name, 0.0)
            for name, unit in metric_units().items()
            if unit == "s"
        }
