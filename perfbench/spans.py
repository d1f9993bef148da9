"""Spans at the program's module boundaries, from outside the program.

Tracer wraps the functions named in WRAP_TABLE for the duration of a
traced pass and restores them afterwards; nothing under src/ changes.  A
name is wrapped wherever it is bound among the package's modules, so a
call through `cli.evolve` and one through `qpe.evolve` both record the
span `propagator.evolve`.  A table entry whose module or attribute no
longer exists is reported as absent instead of failing the run.

Spans are kept in memory as (span, parent, start, end) and written out by
the caller.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

import functools
import importlib
import math
import re
import sys
import time


def _matrices(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return math.prod(shape[:-2])


# (module, attribute, span name, optional (count name, count(args, kwargs)))
WRAP_TABLE = [
    ("circulant_qft.cli", "main", "cli.main", None),
    ("circulant_qft.cli", "load_config", "cli.load_config", None),
    ("circulant_qft.cli", "build_model", "cli.build_model", None),
    ("circulant_qft.cli", "build_schedule", "cli.build_schedule", None),
    ("circulant_qft.cli", "write_csv", "cli.write_csv", None),
    ("circulant_qft.cli", "write_meta", "cli.write_meta", None),
    ("circulant_qft.svg", "write_line_plot", "svg.write_line_plot", None),
    ("circulant_qft.models", "build_four_level", "models.build_four_level",
     None),
    ("circulant_qft.qpe", "run_qpe", "qpe.run_qpe", None),
    ("circulant_qft.qpe", "ideal_distribution", "qpe.ideal_distribution", None),
    ("circulant_qft.propagator", "evolve", "propagator.evolve",
     ("requested_steps", lambda args, kwargs: args[0].steps)),
    ("circulant_qft.propagator", "factor_phased_dft",
     "propagator.factor_phased_dft", None),
    ("circulant_qft.propagator", "dynamical_phase_prediction",
     "propagator.dynamical_phase_prediction", None),
    ("circulant_qft.propagator", "predict_permutation",
     "propagator.predict_permutation", None),
    ("circulant_qft.schedule", "eigen_trajectories",
     "schedule.eigen_trajectories", None),
    ("circulant_qft.schedule", "adiabaticity_report",
     "schedule.adiabaticity_report", None),
    ("circulant_qft._kernels", "propagate", "kernels.propagate",
     ("steps", lambda args, kwargs: len(args[2]))),
    ("circulant_qft._kernels", "eigh_grid", "kernels.eigh_grid",
     ("points", lambda args, kwargs: len(args[2]))),
    ("circulant_qft.linalg", "frobenius", "linalg.frobenius", None),
    ("circulant_qft.linalg", "unitarity_defect", "linalg.unitarity_defect",
     None),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh", ("matrices", _matrices)),
    ("numpy.linalg", "norm", "numpy.linalg.norm", None),
]
SPANS = [entry[2] for entry in WRAP_TABLE]
COUNTS = [f"{entry[2]}.{entry[3][0]}" for entry in WRAP_TABLE if entry[3]]
PACKAGE = "circulant_qft"
THIRD_PARTY = ("numpy", "scipy")


class Tracer:
    """Records spans for the wrapped functions between install and remove."""

    def __init__(self):
        self.spans = []  # [span index, parent position, start, end]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent = []
        self._stack = [-1]
        self._patches = []

    def install(self):
        self.absent = []
        for index, (modname, attr, span, counter) in enumerate(WRAP_TABLE):
            try:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            wrapper = self._wrap(original, index, span, counter)
            for mod in [module] + [m for name, m in sys.modules.items()
                                   if name.split(".")[0] == PACKAGE]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, fn, index, span, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_key = f"{span}.{counter[0]}" if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_key is not None:
                try:
                    counts[count_key] += counter[1](args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass  # the callee's signature changed; count is absent
            record = [index, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return wrapper


def self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals, each clipped to the parent's."""
    children = [[] for _ in spans]
    for pos, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(pos)
    result = []
    for pos, (_, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children[pos]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(spans):
    """Per span name: calls and summed self time; plus the root total."""
    totals = {span: [0, 0.0] for span in SPANS}
    for (index, _, _, _), own in zip(spans, self_times(spans)):
        totals[SPANS[index]][0] += 1
        totals[SPANS[index]][1] += own
    root_total = sum(end - start for _, parent, start, end in spans
                     if parent < 0)
    return totals, root_total


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown(stderr_text):
    """Seconds spent importing numpy, scipy and circulant_qft's own modules.

    Parses `python -X importtime` output, where children precede their
    parent.  numpy's and scipy's times are the cumulative times of their
    modules imported from outside both packages, so that numpy modules
    pulled in by scipy count as scipy's.  circulant_qft counts only its own
    module bodies (self time); total is the whole `import circulant_qft.cli`.
    """
    entries = [(int(m[1]), int(m[2]), len(m[3]) // 2, m[4])
               for m in _IMPORT_LINE.finditer(stderr_text)]
    out = {"numpy": 0.0, "scipy": 0.0, "circulant_qft": 0.0, "total": 0.0}
    top_level = min((depth for _, _, depth, _ in entries), default=0)
    ancestors = []
    # reversed, the listing is in pre-order: a parent precedes its children
    for own, cumulative, depth, name in reversed(entries):
        del ancestors[depth - top_level:]
        top = name.split(".")[0]
        above = {a.split(".")[0] for a in ancestors}
        if top in THIRD_PARTY and not above & set(THIRD_PARTY):
            out[top] += cumulative * 1e-6
        if top == PACKAGE:
            out["circulant_qft"] += own * 1e-6
            if PACKAGE not in above:
                out["total"] += cumulative * 1e-6
        ancestors.append(name)
    return out
