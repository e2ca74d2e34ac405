"""Run the geobench CLI with spans recorded around each module's public calls.

    python3 tracer.py TRACE_OUT run --config run.json --out runs/x

The program is not edited: before `geobench.cli.main` runs, the functions
listed in SPANS and HOT are replaced, in every geobench module that holds
them, by wrappers that time each call. A span is (id, name, start, end,
parent, thread, ok, info); a call on a worker thread with no open span of
its own gets the main thread's innermost open span as parent. Calls made
hundreds of thousands of times per run (HOT) are summed per (name, parent
span) instead of kept one by one: calls, seconds, seconds outside nested
hot calls, and hits. Everything stays in memory and is written to
TRACE_OUT as JSON when the CLI returns. Span 0, "cli.run", covers the whole
process from before geobench is imported.
"""

import time

T0 = time.perf_counter()

import itertools  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import geobench.cli  # noqa: E402

_WORD = re.compile(r"\w+")


def _rows_read(args, kwargs, result):
    return result[1].rows_read


def _align_info(args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    return [mode, len(result.pairs), len(args[0]) + len(args[1])]


def _document(args, kwargs, result):
    return args[0]  # replaced by its token count when the trace is written


def _instance(args, kwargs, result):
    return id(args[0])


def _is_hit(args, kwargs, result):
    return result is not None


# (module, attribute path, what to record about a successful call)
SPANS = (
    ("corpus", "load_corpus", None),
    ("gazetteer", "ingest_gazetteer", _rows_read),
    ("gazetteer", "load_index", None),
    ("gazetteer", "Gazetteer.digest", None),
    ("geoparser", "recognize_lexicon", _document),
    ("geoparser", "coerce_predictions", None),
    ("geoparser", "BuiltinGeoparser.parse_document", None),
    ("adapters", "ProcessGeoparser.__init__", _instance),
    ("adapters", "ProcessGeoparser.parse_document", _instance),
    ("adapters", "HttpGeoparser.parse_document", None),
    ("metrics", "align", _align_info),
    ("metrics", "distance_errors", None),
    ("metrics", "build_report", None),
    ("harness", "load_gazetteer_for_run", None),
    ("harness", "evaluate", None),
    ("harness", "corpus_digest", None),
    ("harness", "load_cached", _is_hit),
    ("harness", "cache_predictions", None),
    ("harness", "_dump_json", None),
    ("harness", "run_benchmark", None),
)
HOT = (
    ("gazetteer", "Gazetteer.lookup", bool),
    ("geoparser", "resolve_population", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = [0]
        self._hot_tables = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else 0

    def span(self, name, fn, info):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(span_id)
            ok, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if ok and info is not None:
                    try:
                        extra = info(args, kwargs, result)
                    except Exception:  # a changed signature loses the detail, not the run
                        extra = None
                tracer.spans.append((span_id, name, start, end, parent, threading.get_ident(), ok, extra))

        return wrapper

    def hot(self, name, fn, hit):
        tracer = self

        def wrapper(*args, **kwargs):
            local = tracer._local
            # time spent in hot calls nested in this one (resolve -> lookup)
            outer_nested = getattr(local, "nested", 0.0)
            local.nested = 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = local.nested
                local.nested = outer_nested + elapsed
            table = getattr(local, "hot", None)
            if table is None:
                table = local.hot = {}
                tracer._hot_tables.append(table)
            key = (name, tracer._parent(tracer._stack()))
            row = table.get(key)
            if row is None:
                row = table[key] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - nested
            if hit is not None and hit(result):
                row[3] += 1
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "geobench" or n.startswith("geobench.")]
        for table, make in ((SPANS, self.span), (HOT, self.hot)):
            for module_name, path, extra in table:
                module = sys.modules[f"geobench.{module_name}"]
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapped = make(f"{module_name}.{path}", original, extra)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                # the function may also be bound under its name in importing modules
                for m in modules:
                    if getattr(m, attr, None) is original:
                        setattr(m, attr, wrapped)

    def dump(self, path, end):
        spans = []
        for span_id, name, start, stop, parent, thread, ok, extra in self.spans:
            if name == "geoparser.recognize_lexicon" and extra is not None:
                extra = len(_WORD.findall(extra.text))
            spans.append([span_id, name, start - T0, stop - T0, parent, thread, ok, extra])
        spans.append([0, "cli.run", 0.0, end - T0, None, self._main, True, None])
        hot = []
        for table in self._hot_tables:
            for (name, parent), (calls, total, own, hits) in table.items():
                hot.append([name, parent, calls, total, own, hits])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "hot": hot}, fh)


def main(argv):
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = geobench.cli.main(cli_args)
    tracer.dump(trace_out, time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
