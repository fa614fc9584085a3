"""Per-layer spans, recorded from outside the package.

Wrappers go on the names that consuming modules look up at call time, such
as ``satpoly.recognition.lp_maximize`` or ``satpoly.vertices.rank``, so a
call from one layer into another passes through exactly one wrapper.  Each
span records its name, start, end and parent; a layer's self time is its
span's duration minus the durations of its direct children.  Hooks read
arguments and results to count work (LP rows, rank deficiency, refusals)
without touching the program's code.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

ROOT = "bench"


class Tracer:
    """Spans of the current item plus counters summed over all items."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.current = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.system_kind: dict[int, tuple] = {}  # id(system) -> (kind, dims, system)
        self.base_points: list[tuple] = []  # (kind, dims, point) of base LP optima
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.current]
        self.current = len(self.spans)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self.current = span[3]

    def self_times(self) -> dict[str, float]:
        """Self time per span name over the recorded spans; clears them."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            out[name] += duration
            if parent >= 0:
                out[self.spans[parent][0]] -= duration
        self.spans.clear()
        self.current = -1
        self.system_kind.clear()
        return out

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer.end(span)
            tracer.counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each ``(module, attribute path, span name, hook)`` target."""
        for module_name, path, name, hook in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                replacement = staticmethod(self.wrap(name, original.__func__, hook))
            else:
                replacement = self.wrap(name, original, hook)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

_STRENGTHENED = ("satp2", "met")


def _system_rows(system) -> int:
    return len(system.eq_rows) + len(system.ineq_rows)


def _builder_hook(kind):
    def hook(tracer, args, kwargs, result):
        if kind == "satp2rows":
            tracer.counts["builders.rows_emitted"] += len(result)
            return
        tracer.counts["builders.rows_emitted"] += _system_rows(result)
        tracer.system_kind[id(result)] = (kind, args, result)

    return hook


def _lp_hook(tracer, args, kwargs, result):
    system = args[0]
    tracer.counts["linsys.lp.rows"] += _system_rows(system)
    kind, dims, _ = tracer.system_kind.get(id(system), (None, None, None))
    if kind in _STRENGTHENED:
        tracer.counts["linsys.lp.strengthened"] += 1
    if kind in ("satp", "bqp") and result.status == "Optimal":
        tracer.base_points.append((kind, dims, result.point))
    if result.status == "Optimal":
        bits = max(
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for x in [result.value, *result.point]
        )
        key = "linsys.lp.result_bits_max"
        tracer.counts[key] = max(tracer.counts[key], bits)


def _rank_hook(tracer, args, kwargs, result):
    rows = args[0]
    # The modular fast path certifies only a rank equal to min(rows, columns)
    # or to the caller's cap; anything lower went through Bareiss elimination.
    bound = min(len(rows), len(rows[0])) if rows else 0
    if len(args) > 1:
        bound = min(bound, args[1])
    if result < bound:
        tracer.counts["linsys.rank.deficient"] += 1


def _census_hook(tracer, args, kwargs, result):
    tracer.counts["vertices.census.vertices"] += len(result)


_BUILDERS = (
    ("build_satp_lp", "satp"),
    ("build_satp2_lp", "satp2"),
    ("build_bqp_lp", "bqp"),
    ("build_met", "met"),
    ("satp2_inequality_rows", "satp2rows"),
)


def targets():
    """Everything the tracer wraps: the layers are the package modules."""
    return [
        ("satpoly.recognition", "lp_maximize", "linsys.lp", _lp_hook),
        ("satpoly.vertices", "rank", "linsys.rank", _rank_hook),
        ("satpoly.vertices", "rank_at_most", "linsys.rank", _rank_hook),
        ("satpoly.vertices", "_solve_equalities", "linsys.solve", None),
        ("satpoly.linsys", "LinearSystem.from_text", "linsys.text", None),
        ("satpoly.blockpoint", "BlockPoint.from_text", "blockpoint.text", None),
        *[
            ("satpoly.recognition", fn, "builders", _builder_hook(kind))
            for fn, kind in _BUILDERS
        ],
        ("satpoly.vertices", "build_satp_lp", "builders", _builder_hook("satp")),
        ("satpoly.recognition", "recognize_satp", "recognition.satp", None),
        ("satpoly.ecbgc", "recognize_satp", "recognition.satp", None),
        ("satpoly.recognition", "recognize_bqp", "recognition.bqp", None),
        ("satpoly.recognition", "construct_wstar", "recognition.wstar", None),
        ("satpoly.recognition", "decompose", "recognition.decompose", None),
        ("satpoly.reductions", "parse_cnf3", "reductions", None),
        ("satpoly.reductions", "objective_max3sat", "reductions", None),
        ("satpoly.reductions", "objective_x3sat", "reductions", None),
        ("satpoly.reductions", "objective_nae3sat", "reductions", None),
        ("satpoly.ecbgc", "objective_x3sat", "reductions", None),
        ("satpoly.ecbgc", "parse_ecbgc", "ecbgc.text", None),
        ("satpoly.ecbgc", "check_condition", "ecbgc.check", None),
        ("satpoly.ecbgc", "solve_ecbgc", "ecbgc.solve", None),
        ("satpoly.ecbgc", "reduce_x3sat_to_ecbgc", "ecbgc.reduce", None),
        ("satpoly.vertices", "verify_vertex", "vertices.verify", None),
        ("satpoly.vertices", "is_edge", "vertices.edge", None),
        ("satpoly.vertices", "fractional_vertex", "vertices.fractional", None),
        ("satpoly.vertices", "enumerate_lp_vertices", "vertices.census", _census_hook),
    ]
