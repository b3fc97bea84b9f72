"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces every function that ``ctfactor.cli`` and
``ctfactor.ct`` import from the ``io``, ``estimate``, ``graph`` and
``metrics`` modules with a wrapper that records a span: name, start, end
and parent. ``ct_run`` (imported by the CLI) gets a span of its own, and
the caller opens the ``cli.main`` span around each command. Spans stay in
memory until ``write_jsonl``. ``uninstall`` puts the original functions
back, so untraced rounds run the package unmodified.

A layer's self time is the time of its spans minus the time of their
direct child spans; since the ``cli.main`` span encloses everything, the
self times of all layers add up to the traced command time.
"""

import functools
import json
import time

LAYERS = ("io", "estimate", "graph", "metrics")

#: Per-layer metric -> span names whose total time it is.
SPAN_TIMES = {
    "estimate.fit_s": ("estimate.fit_mle",),
    "graph.build_s": ("graph.build_graph",),
    "graph.search_s": ("graph.independent_maximal_cliques",),
    "graph.structure_s": ("graph.structure_from_cliques",),
    "metrics.hd_s": ("metrics.hamming_distance",),
    "io.read_csv_s": ("io.read_data_csv",),
    "io.read_json_s": ("io.read_corr_json", "io.load_json"),
    "io.write_json_s": ("io.save_json", "io.dumps_json"),
    "estimate.corr_s": ("estimate.pearson_correlation",),
}
#: Per-layer metric -> span names whose number of calls it is.
SPAN_CALLS = {
    "estimate.fit_calls": ("estimate.fit_mle",),
    "graph.build_calls": ("graph.build_graph",),
    "graph.search_calls": ("graph.independent_maximal_cliques",),
    "metrics.hd_calls": ("metrics.hamming_distance",),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []
        self._saved = []
        self.tag = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {"tag": self.tag}])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            # fit diagnostics, when the return value carries them
            for attr in ("n_iterations", "converged"):
                if hasattr(out, attr):
                    span[4][attr] = getattr(out, attr)
            return out

        return wrapper

    def install(self, cli, ct):
        """Wrap the layer functions that ``cli`` and ``ct`` imported."""
        for module in (cli, ct):
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", "") or ""
                layer = owner.rsplit(".", 1)[-1]
                if not callable(value) or isinstance(value, type):
                    continue
                if owner.startswith("ctfactor.") and (
                    layer in LAYERS or (module is cli and attr == "ct_run")
                ):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", value))

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for k, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": name, "start": start, "end": end,
                    "parent": parent, **attrs,
                }) + "\n")


def summarize(spans, tags):
    """Per-layer metrics over the spans whose tag is in ``tags``.

    Returns totals over those spans (the caller divides by the number of
    rounds). Names that never occur report 0 calls and 0 s.
    """
    chosen = [k for k, s in enumerate(spans) if s[4]["tag"] in tags]
    child_time = {}
    for k in chosen:
        name, start, end, parent, _ = spans[k]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total, calls, self_by_layer = {}, {}, {}
    iterations = nonconverged = 0
    for k in chosen:
        name, start, end, _, attrs = spans[k]
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        own = end - start - child_time.get(k, 0.0)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        if name == "estimate.fit_mle":
            iterations += int(attrs.get("n_iterations", 0))
            nonconverged += attrs.get("converged") is False
    out = {}
    for metric, names in SPAN_TIMES.items():
        out[metric] = sum(total.get(n, 0.0) for n in names)
    for metric, names in SPAN_CALLS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    out["estimate.em_iterations"] = iterations
    out["estimate.fits_nonconverged"] = nonconverged
    out["ct.self_s"] = self_by_layer.get("ct", 0.0)
    out["cli.self_s"] = self_by_layer.get("cli", 0.0)
    out["layers_self_s"] = sum(self_by_layer.values())
    return out
