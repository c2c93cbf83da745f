"""Spans around the calls into each layer, recorded from outside the program.

``instrument`` swaps a wrapper in for a public function of the package. A
module that did ``from .segmentation import mask_to_trace`` holds its own
reference, so every ``midoppler`` module attribute bound to the original
function is replaced, and restored on exit. Nothing under ``src/`` changes.
"""

import contextlib
import statistics
import sys
import time

from midoppler import ecg, ingestion, kernels, measurement, segmentation, stats, synth

# (span name, module, attribute): the public calls `midoppler analyze` makes,
# plus the synthetic generator that builds the inputs and the agreement pass.
LAYER_CALLS = (
    ("ingestion.load_image", ingestion, "load_image"),
    ("ingestion.load_manifest", ingestion, "load_manifest"),
    ("ingestion.route", ingestion, "route_image"),
    ("ingestion.write_csv", measurement, "write_study_csv"),
    ("measurement.measure_study", measurement, "measure_study"),
    ("measurement.measure_beats", measurement, "measure_beats"),
    ("segmentation.segment", segmentation, "segment_envelope_threshold"),
    ("segmentation.import_mask", segmentation, "import_mask"),
    ("segmentation.trace", segmentation, "mask_to_trace"),
    ("kernels.column_median", kernels, "column_median"),
    ("kernels.vertical_opening", kernels, "vertical_opening"),
    ("kernels.remove_small_components", kernels, "remove_small_components"),
    ("ecg.extract", ecg, "extract_ecg"),
    ("ecg.detect_qrs", ecg, "detect_qrs"),
    ("stats.compare", stats, "compare"),
    ("synth.generate", synth, "generate_synthetic"),
)


@contextlib.contextmanager
def instrument(make_wrapper):
    """Replace every LAYER_CALLS function by make_wrapper(name, function)."""
    patched = []
    try:
        for name, module, attr in LAYER_CALLS:
            original = getattr(module, attr)
            wrapper = make_wrapper(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("midoppler") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


class NullTracer:
    """Stands in for Tracer on untraced paths."""

    request = None

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """In-memory spans: (request, parent index, name, start s, end s).

    ``request`` names the input being processed; spans opened while another
    span is open record it as their parent, so self time is a span's
    duration minus that of its direct children.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([self.request, parent, name, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][4] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations_ms(self, name, self_time=False):
        children = {}
        if self_time:
            for _, parent, _, start, end in self.spans:
                if parent >= 0:
                    children[parent] = children.get(parent, 0.0) + (end - start)
        return [
            1e3 * (end - start - children.get(i, 0.0))
            for i, (_, _, span_name, start, end) in enumerate(self.spans)
            if span_name == name
        ]

    def median_ms(self, name, self_time=False):
        values = self.durations_ms(name, self_time)
        return (statistics.median(values) if values else 0.0), len(values)

    def write_csv(self, path):
        lines = ["request,span,parent,name,start_ms,end_ms"]
        t0 = self.spans[0][3] if self.spans else 0.0
        for i, (request, parent, name, start, end) in enumerate(self.spans):
            lines.append(
                f"{request or ''},{i},{parent},{name},{1e3 * (start - t0):.4f},{1e3 * (end - t0):.4f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
