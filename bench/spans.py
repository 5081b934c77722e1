"""Span tracer for the sweep benchmark's traced run.

The tracer replaces each listed package function, at every module attribute
of the package that refers to it, with a wrapper that records a span: name,
start, end, parent span and pass id. Calls made inside the package go through
module attributes, so they are caught too (``dynamics.evolve`` calling
``expm``, ``imperfections`` calling its imported ``evolve``). Spans stay in
memory; ``write_spans`` writes them out when the run ends. A listed name that
the package no longer has is reported as absent. Only the standard library
is used.
"""

from __future__ import annotations

import functools
import hashlib
import re
import statistics
import sys
import time
from array import array

# (module, function) pairs wrapped in the traced run, and the statistics
# reported for each. Every traced function also reports ``errors``.
TRACED = (
    ("experiments", "parse_config", ("self_s",)),
    ("experiments", "run_experiment", ("self_s",)),
    ("experiments", "write_csv", ("self_s", "bytes")),
    ("hilbert", "build_basis", ("calls", "self_s", "distinct_frac")),
    ("hilbert", "computational_embedding", ("calls", "self_s")),
    ("dynamics", "expm", ("calls", "self_s", "distinct_frac", "elems")),
    ("dynamics", "evolve", ("calls", "self_s")),
    ("dynamics", "build_effective_hamiltonian", ("calls", "self_s")),
    ("dynamics", "exchange_hamiltonian", ("self_s",)),
    ("dynamics", "extract_gate", ("calls", "self_s")),
    ("imperfections", "timing_oracle", ("calls", "self_s")),
    ("imperfections", "timing_infidelity", ("calls", "self_s")),
    ("imperfections", "coupling_offset_infidelity", ("calls", "self_s")),
    ("gates", "decayed_i000", ("calls", "self_s")),
    ("gates", "marked_gate", ("calls", "self_s")),
    ("gates", "pauli_x", ("calls",)),
    ("gates", "hadamard3", ("calls",)),
    ("grover", "grover_step", ("calls", "self_s")),
    ("grover", "run_search", ("calls", "self_s")),
)

PACKAGE = "cavity_grover"
SETUP_PASS = -1


def layer_metric_names() -> list[str]:
    """Names of the per-function metrics, in reporting order."""
    names = []
    for module, func, stats in TRACED:
        names += [f"{module}.{func}.{s}" for s in stats]
        names.append(f"{module}.{func}.errors")
    return names


def _fingerprint(args: tuple, kwargs: dict) -> tuple:
    parts = []
    for value in args + tuple(kwargs[k] for k in sorted(kwargs)):
        if hasattr(value, "tobytes"):
            digest = hashlib.blake2b(value.tobytes(), digest_size=16).hexdigest()
            parts.append((value.shape, value.dtype.str, digest))
        else:
            parts.append(repr(value))
    return tuple(parts)


class Tracer:
    """Wraps the ``TRACED`` functions of the loaded package modules.

    ``pass_id`` tags new spans. While ``census`` is on, the wrappers also
    collect distinct argument fingerprints and matrix sizes; that costs time,
    so a census pass is kept out of the self-time statistics.
    """

    def __init__(self) -> None:
        self.keys = [f"{m}.{f}" for m, f, _ in TRACED]
        self._fingerprinted = ["distinct_frac" in stats for _, _, stats in TRACED]
        self.absent: list[str] = []
        self.pass_id = SETUP_PASS
        self.census = False
        self.errors = [0] * len(self.keys)
        self.distinct: list[set] = [set() for _ in self.keys]
        self.elems = [0] * len(self.keys)
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._pass = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for idx, (module, func, _) in enumerate(TRACED):
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.absent.append(self.keys[idx])
                continue
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, idx: int, fn):
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, passes = self._parent, self._pass
        fingerprinted = self._fingerprinted[idx]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.pass_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
                if self.census and fingerprinted:
                    self.distinct[idx].add(_fingerprint(args, kwargs))
                    if args and hasattr(args[0], "size"):
                        self.elems[idx] += int(args[0].size)

        return wrapper

    def _self_times(self) -> list[float]:
        # A span's duration minus the durations of its direct child spans,
        # which never overlap in a single thread.
        count = len(self._start)
        own = [self._end[i] - self._start[i] for i in range(count)]
        selfs = own.copy()
        for i in range(count):
            if self._parent[i] >= 0:
                selfs[self._parent[i]] -= own[i]
        return selfs

    def pass_stats(self) -> tuple[dict[int, dict[int, tuple[int, float]]], list[float]]:
        """Per pass, per function index: (calls, self seconds); and the self
        time of every span."""
        selfs = self._self_times()
        out: dict[int, dict[int, list]] = {}
        for i, own in enumerate(selfs):
            entry = out.setdefault(self._pass[i], {}).setdefault(self._name[i], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {p: {k: tuple(v) for k, v in per.items()} for p, per in out.items()}, selfs

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,pass\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{self.keys[self._name[i]]},{self._start[i]!r},{self._end[i]!r},"
                    f"{self._parent[i]},{self._pass[i]}\n"
                )


def layer_metrics(
    tracer: Tracer, timed_passes: list[int], census_pass: int, csv_bytes: int
) -> tuple[dict[str, float], list[str]]:
    """Per-function metrics from the spans, and integrity problems.

    Counts come from the census pass and must repeat exactly on every timed
    pass. Self times are per-pass medians over the timed passes, except for
    ``parse_config``, which runs at set-up: the median of its set-up calls.
    A function absent from the package reports zeros.
    """
    stats, selfs = tracer.pass_stats()
    census = stats.get(census_pass, {})
    census_calls = {k: v[0] for k, v in census.items()}
    problems = [
        f"call counts of traced pass {p} differ from the census pass"
        for p in timed_passes
        if {k: v[0] for k, v in stats.get(p, {}).items()} != census_calls
    ]
    metrics: dict[str, float] = {}
    for idx, (module, func, wanted) in enumerate(TRACED):
        key = f"{module}.{func}"
        calls = census.get(idx, (0, 0.0))[0]
        if func == "parse_config":
            samples = [
                own
                for own, name, pass_id in zip(selfs, tracer._name, tracer._pass)
                if name == idx and pass_id == SETUP_PASS
            ]
        else:
            samples = [stats.get(p, {}).get(idx, (0, 0.0))[1] for p in timed_passes]
        values = {
            "calls": calls,
            "self_s": statistics.median(samples) if samples else 0.0,
            "distinct_frac": len(tracer.distinct[idx]) / calls if calls else 0.0,
            "elems": tracer.elems[idx],
            "bytes": csv_bytes,
        }
        for stat in wanted:
            metrics[f"{key}.{stat}"] = values[stat]
        metrics[f"{key}.errors"] = tracer.errors[idx]
    return metrics, problems


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def parse_importtime(stderr: str, marker: str) -> tuple[float, float]:
    """(total, scipy) cumulative import seconds from ``-X importtime`` output.

    Only imports after ``marker`` count. ``total`` sums the top-level
    entries; ``scipy`` sums every scipy entry not nested under another
    scipy entry, so nothing is counted twice.
    """
    lines = stderr.split(marker, 1)[-1].splitlines()
    entries = []
    for line in lines:
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    total = sum(cum for depth, _, cum in entries if depth == 0)
    # importtime prints children before parents; walk backwards to see
    # each entry after its ancestors.
    scipy = 0.0
    ancestors: list[tuple[int, bool]] = []
    for depth, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = any(is_scipy for _, is_scipy in ancestors)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cum
        ancestors.append((depth, is_scipy))
    return total, scipy
