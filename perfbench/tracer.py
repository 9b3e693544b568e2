"""Span recording for one traced CLI job, and the span-tree analysis.

Run as a script, this file is the bootstrap of one traced job:

    python3 perfbench/tracer.py SPANS_FILE JOB_ID -- <oddcovers arguments>

It imports `oddcovers.cli`, wraps the public functions of every
`oddcovers` module and the public methods and ring operators of its classes,
calls `oddcovers.cli.main(argv)` and, when main returns, writes the spans it
kept in memory to SPANS_FILE. Nothing under `src/` is changed: a module-level
function is replaced under every name any `oddcovers` module binds it to
(`routes` re-binds `binomial_series` through `from .series import ...`), and
a method is replaced on its class.

A span is (name, start, end, parent, job id) plus whether it raised and the
size of its result (coefficients of a Series or Poly, terms of a Schubert
class). The parent process reads the file back with `load_spans` and derives
self time from the span tree with `self_times`.
"""

import array
import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "routes", "series", "combinat", "schubert",
          "poly", "quadratic", "ratmap", "weier", "covers")

# Operator methods wrapped besides public methods; construction, hashing,
# equality and printing stay untraced.
OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__rtruediv__", "__floordiv__",
    "__mod__", "__divmod__", "__call__",
))

# Private functions wrapped because a per-layer metric names them.
PRIVATE = {"cli": ("_emit",)}

# Span name -> function of (args, kwargs) kept as the span's note.
PROBES = {"routes.compute_route": lambda args, kwargs: [args[0], args[1]]}

COLUMNS = (("name_id", "i"), ("parent", "i"), ("start", "d"),
           ("end", "d"), ("failed", "b"), ("size", "q"))


def _size(value) -> int:
    for attr in ("coeffs", "terms"):
        part = getattr(value, attr, None)
        if part is not None:
            return len(part)
    return 0


class Recorder:
    """Spans of one job, kept in columns in memory until `write`."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.names = []
        self.notes = {}
        self.columns = {key: array.array(code) for key, code in COLUMNS}
        self._stack = [-1]

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        cols = self.columns
        add_name, add_parent = cols["name_id"].append, cols["parent"].append
        add_start, add_end = cols["start"].append, cols["end"].append
        add_failed, add_size = cols["failed"].append, cols["size"].append
        ends, failed, sizes = cols["end"], cols["failed"], cols["size"]
        stack, notes, clock = self._stack, self.notes, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(ends)
            add_name(name_id)
            add_parent(stack[-1])
            add_end(0.0)
            add_failed(0)
            add_size(0)
            stack.append(index)
            add_start(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                ends[index] = clock()
                failed[index] = 1
                stack.pop()
                raise
            ends[index] = clock()
            stack.pop()
            sizes[index] = _size(result)
            if probe is not None:
                notes[index] = probe(args, kwargs)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced callable of `package`'s layer modules."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and (
                        not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
                    replaced[value] = self.wrap("%s.%s" % (layer, attr), value)
                elif inspect.isclass(value):
                    self._install_class(layer, value)
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

    def _install_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def write(self, path: str, exit_code) -> None:
        header = {"job": self.job_id, "exit": exit_code, "names": self.names,
                  "count": len(self.columns["end"]),
                  "notes": {str(k): v for k, v in self.notes.items()}}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for key, _ in COLUMNS:
                self.columns[key].tofile(handle)


def load_spans(path: str) -> dict:
    """The header of a spans file, with its columns under "columns"."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for key, code in COLUMNS:
            columns[key] = array.array(code)
            columns[key].fromfile(handle, header["count"])
    header["columns"] = columns
    header["notes"] = {int(k): v for k, v in header["notes"].items()}
    return header


def self_times(parent, start, end) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one job nest on a single thread, so the children of a span
    cover disjoint parts of its interval.
    """
    own = [e - s for s, e in zip(start, end)]
    result = list(own)
    for index, up in enumerate(parent):
        if up >= 0:
            result[up] -= own[index]
    return result


# Metric stem -> span names whose calls and self time it sums.
GROUPS = {
    "series.mul": ("series.Series.__mul__", "series.Series.__rmul__"),
    "series.inverse": ("series.Series.inverse",),
    "series.compose": ("series.Series.compose",),
    "series.binomial": ("series.binomial_series", "series.series_sqrt"),
    "series.lagrange_invert": ("series.lagrange_invert",),
    "routes.closed": ("routes.alt_catalan_closed",),
    "routes.coeff_form": ("routes.alt_catalan_coeff_form",),
    "routes.genfun": ("routes.genfun_series",),
    "routes.lagrange": ("routes.lagrange_pipeline", "routes.phi_series",
                        "routes.psi_series", "routes.fmod_series"),
    "combinat.binom_gen": ("combinat.binom_gen",),
    "schubert.pieri": ("schubert.SchubertVector.pieri",),
    "schubert.mul": ("schubert.SchubertVector.__mul__",),
    "schubert.pow": ("schubert.SchubertVector.__pow__",),
    "poly.mul": ("poly.Poly.__mul__", "poly.Poly.__rmul__"),
    "poly.divmod": ("poly.Poly.__divmod__",),
    "poly.gcd": ("poly.gcd",),
    "quadratic.mul": ("quadratic.QuadScalar.__mul__", "quadratic.QuadScalar.__rmul__"),
    "weier.poly3_mul": ("weier.Poly3.__mul__", "weier.Poly3.__rmul__"),
    "cli.emit": ("cli._emit",),
}

# Routes that read A_g off a series expansion.
SERIES_ROUTES = ("coeff_form", "genfun", "lagrange")


def layer_metrics(spans) -> dict:
    """Per-layer and per-group counts and self times of one traced job.

    Besides `<layer>.calls|self_s|errors` and `<group>.calls|self_s`:
    - `series.coeffs_out`: coefficients of the results the series layer
      hands to other layers;
    - `schubert.terms_peak`: most terms in one Schubert class returned;
    - `routes.coeff_yield`: A_g values read off series expansions divided by
      the coefficients of those expansions. `compute_route(g, route)` reads
      one value from an expansion to order 2g+1, a `genfun_series(order)`
      called by the CLI hands over all order+1 coefficients; 0 when neither
      runs.
    """
    cols = spans["columns"]
    names = spans["names"]
    layer_of = [name.split(".")[0] for name in names]
    own = self_times(cols["parent"], cols["start"], cols["end"])
    metrics = {}
    for layer in LAYERS:
        metrics.update({layer + ".calls": 0, layer + ".self_s": 0.0, layer + ".errors": 0})
    stem_of = {}
    for stem, members in GROUPS.items():
        metrics.update({stem + ".calls": 0, stem + ".self_s": 0.0})
        stem_of.update((member, stem) for member in members)
    coeffs_out = terms_peak = values = coeffs = 0
    for index, name_id in enumerate(cols["name_id"]):
        layer = layer_of[name_id]
        metrics[layer + ".calls"] += 1
        metrics[layer + ".self_s"] += own[index]
        metrics[layer + ".errors"] += cols["failed"][index]
        stem = stem_of.get(names[name_id])
        if stem is not None:
            metrics[stem + ".calls"] += 1
            metrics[stem + ".self_s"] += own[index]
        up = cols["parent"][index]
        caller = layer_of[cols["name_id"][up]] if up >= 0 else None
        size = cols["size"][index]
        if layer == "series" and caller != "series":
            coeffs_out += size
        elif layer == "schubert":
            terms_peak = max(terms_peak, size)
        elif names[name_id] == "routes.genfun_series" and caller == "cli":
            values += size
            coeffs += size
    for g, route in spans["notes"].values():
        if route in SERIES_ROUTES:
            values += 1
            coeffs += 2 * g + 2
    metrics["series.coeffs_out"] = coeffs_out
    metrics["schubert.terms_peak"] = terms_peak
    metrics["routes.coeff_yield"] = values / coeffs if coeffs else 0.0
    return metrics


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write("usage: tracer.py SPANS_FILE JOB_ID -- ARGS...\n")
        return 2
    import oddcovers
    import oddcovers.cli

    recorder = Recorder(int(argv[1]))
    recorder.install(oddcovers)
    code = None
    try:
        code = oddcovers.cli.main(argv[3:])
    finally:
        recorder.write(argv[0], code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
