"""Spans around calls into lftc's layers, recorded from the benchmark.

``Tracer.recording`` replaces each traced function where its caller looks
it up (``mcc`` holds its own ``train_dictionary`` name; ``cr.reason_detail``
calls ``extract_gold``, ``ncd_distances`` and ``vote_detail`` as globals of
``cr``; methods are replaced on their class). Leaving the block restores them.
The program's source is not modified.

A span carries a name, start, end, parent span, request id (one per
``Pipeline.predict`` call, shared by its child spans) and the phase of the
run it belongs to, plus one optional number (``info``: bytes in, gold
share, test query index) and one optional flag (``flag``: dictionary
trained, deflate input was a bare training text). Spans stay in memory
until ``write`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from lftc import classifier, compression, corpus, cr, mcc
from lftc import zstd_bindings as zb


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "phase", "info", "flag")

    def __init__(self, name, parent, query, phase):
        self.name = name
        self.parent = parent
        self.query = query
        self.phase = phase
        self.info = None
        self.flag = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        # Each Pipeline.predict call is one request: its spans share a number.
        self._requests = itertools.count()
        # ids of the training texts, to spot deflate calls on a bare C(y),
        # and of the test texts, to name the query a request sent.
        self.train_text_ids: frozenset[int] = frozenset()
        self.query_index: dict[int, int] = {}
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, annotate=None, root=False):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if root:
                query = next(tracer._requests)
            else:
                query = parent.query if parent is not None else None
            span = Span(name, parent, query, tracer.phase)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, annotate=None, root=False):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, annotate, root))

    def _install(self) -> None:
        def trained(span, args, result):
            span.flag = result.source_span.mode == "trained"

        def input_bytes(span, args, result):
            span.info = len(args[1])

        def deflate(span, args, result):
            span.info = len(args[1])
            span.flag = id(args[1]) in self.train_text_ids

        def gold_share(span, args, result):
            span.info = len(result.samples) / len(args[0])

        def query(span, args, result):
            span.info = self.query_index.get(id(args[1]))

        self._patch(corpus, "load_csv", "corpus.load_csv")
        self._patch(mcc, "build_all_lists", "mcc.build_all_lists")
        self._patch(mcc, "train_dictionary", "compression.train_dictionary", trained)
        self._patch(zb, "CDict", "zstd_bindings.CDict")
        self._patch(mcc, "score_query", "mcc.score_query")
        self._patch(compression.DictCompressor, "score", "compression.dict_score", input_bytes)
        self._patch(compression.DeflateBackend, "compressed_size", "compression.deflate", deflate)
        self._patch(cr, "extract_gold", "cr.extract_gold", gold_share)
        self._patch(cr, "ncd_distances", "cr.ncd_distances")
        self._patch(cr, "vote_detail", "cr.vote_detail")
        self._patch(classifier.Pipeline, "predict", "classifier.predict", query, root=True)

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Spans of the calls made inside the block belong to ``phase``."""
        self.phase = phase
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds since the tracer began."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": round(s.start - self._t0, 7),
                    "end": round(s.end - self._t0, 7),
                    "parent": ids.get(id(s.parent)),
                    "query": s.query,
                    "phase": s.phase,
                }
                if s.info is not None:
                    row["info"] = s.info
                if s.flag is not None:
                    row["flag"] = s.flag
                fh.write(json.dumps(row) + "\n")

    def by_name(self, phase: str) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.phase == phase:
                out[s.name].append(s)
        return out

    def self_seconds(self, phase: str) -> dict[int, float]:
        """Span duration minus the time its child spans cover, by span id.
        Children of one span run one after another on its thread."""
        child = defaultdict(float)
        for s in self.spans:
            if s.phase == phase and s.parent is not None:
                child[id(s.parent)] += s.seconds
        return {id(s): s.seconds - child[id(s)] for s in self.spans if s.phase == phase}


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the phases ``load``, ``fit``, ``cold`` and
    ``warm``; per-query figures come from the requests of ``warm``."""
    load = tracer.by_name("load")
    fit = tracer.by_name("fit")
    cold = tracer.by_name("cold")
    warm = tracer.by_name("warm")
    queries = len(warm["classifier.predict"])
    dicts = fit["compression.train_dictionary"]
    scores = warm["compression.dict_score"]
    deflates = warm["compression.deflate"]
    golds = warm["cr.extract_gold"]
    self_s = tracer.self_seconds("warm")
    return {
        "corpus.load_csv.s": sum(s.seconds for s in load["corpus.load_csv"]),
        "compression.train_dictionary.calls": len(dicts),
        "compression.train_dictionary.ms_per_call": 1e3 * _mean([s.seconds for s in dicts]),
        "compression.train_dictionary.trained_ratio": _mean([1.0 if s.flag else 0.0 for s in dicts]),
        "zstd_bindings.CDict.ms_per_call": 1e3 * _mean([s.seconds for s in cold["zstd_bindings.CDict"]]),
        "compression.dict_score.calls_per_query": len(scores) / queries,
        "compression.dict_score.us_per_call": 1e6 * _mean([s.seconds for s in scores]),
        "compression.dict_score.bytes_per_call": _mean([s.info for s in scores]),
        "compression.deflate.calls_per_query": len(deflates) / queries,
        "compression.deflate.us_per_call": 1e6 * _mean([s.seconds for s in deflates]),
        "compression.deflate.bytes_per_query": sum(s.info for s in deflates) / queries,
        "cr.c_y.calls_per_query": sum(1 for s in deflates if s.flag) / queries,
        "mcc.build_all_lists.s": sum(s.seconds for s in fit["mcc.build_all_lists"]),
        "mcc.score_query.ms": 1e3 * sum(s.seconds for s in warm["mcc.score_query"]) / queries,
        "cr.extract_gold.us": 1e6 * sum(s.seconds for s in golds) / queries,
        "cr.gold_fraction": _mean([s.info for s in golds]),
        "cr.ncd_distances.ms": 1e3 * sum(s.seconds for s in warm["cr.ncd_distances"]) / queries,
        "cr.vote_detail.us": 1e6 * sum(s.seconds for s in warm["cr.vote_detail"]) / queries,
        "classifier.predict.self_ms": 1e3 * sum(self_s[id(s)] for s in warm["classifier.predict"]) / queries,
    }
