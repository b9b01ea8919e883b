"""Traced launcher: run the ``repro`` CLI with spans around public functions.

Usage::

    PYTHONPATH=src python perfbench/launcher.py SPANS.json <repro CLI args...>

It times ``import repro.core.vesta, repro.service``, wraps the public
functions in :data:`TARGETS` (every module-level binding of a wrapped
function is replaced, so ``from x import f`` callers are traced too),
then calls ``repro.cli.main(argv)``.  Spans stay in memory — name, start,
end, parent span, root span (the wave or request id) and thread — and
are written to ``SPANS.json`` when the CLI returns (``repro serve``
returns on SIGINT) or, failing that, at interpreter exit.

The program's own code is not modified; only the running process is.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import signal
import sys
import threading
import time

_t0 = time.monotonic()
import repro.core.vesta  # noqa: E402,F401
import repro.service  # noqa: E402,F401

IMPORT_MS = (time.monotonic() - _t0) * 1e3


#: Public functions to trace: (module, qualified name).
TARGETS = (
    ("repro.core.vesta", "VestaSelector.fit"),
    ("repro.core.vesta", "VestaSelector.online"),
    ("repro.core.vesta", "VestaSelector.online_many"),
    ("repro.core.vesta", "VestaSelector.signature_from_profile"),
    ("repro.core.vesta", "VestaSelector.complete_rows"),
    ("repro.core.vesta", "OnlineSession.recommend"),
    ("repro.telemetry.campaign", "ProfilingCampaign.prefetch"),
    ("repro.telemetry.campaign", "ProfilingCampaign.runtime_matrix"),
    ("repro.telemetry.campaign", "ProfilingCampaign.collect_grid"),
    ("repro.core.labels", "LabelSpace.membership"),
    ("repro.core.labels", "LabelSpace.membership_matrix"),
    ("repro.core.cmf", "CMF.fit"),
    ("repro.core.cmf", "CMF.fold_in"),
    ("repro.core.cmf", "CMF.factor_sources"),
    ("repro.core.graph", "KnowledgeGraph.add_target_workload"),
    ("repro.core.predictor", "SimilarityPredictor.predict"),
    ("repro.analysis.correlation", "correlation_vector"),
    ("repro.analysis.feature_selection", "select_by_importance"),
    ("repro.analysis.kmeans", "KMeans.fit"),
    ("repro.core.persistence", "load_selector"),
    ("repro.service.wire", "canonical_request"),
    ("repro.service.wire", "response_to_dict"),
)


def _campaign_hits(args):
    counters = args[0].counters
    return counters.cache_hits, counters.cache_misses


#: Counters stored on a target's spans: qualified name -> (before(args)
#: or None, after(args, before) -> dict of span attributes).
ATTRS = {
    "VestaSelector.fit": (
        None, lambda args, _: {"computed": args[0].campaign.counters.computed}
    ),
    "VestaSelector.online_many": (None, lambda args, _: {"rows": len(args[1])}),
    "ProfilingCampaign.prefetch": (
        _campaign_hits,
        lambda args, before: {
            "hits": args[0].counters.cache_hits - before[0],
            "misses": args[0].counters.cache_misses - before[1],
        },
    ),
}


class Tracer:
    """In-memory span recorder with a per-thread stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, attrs=(None, None)):
        before_fn, after_fn = attrs
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            sid = next(ids)
            root = parent[1] if parent else sid
            before = before_fn(args) if before_fn else None
            stack.append((sid, root))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                span = {
                    "id": sid,
                    "parent": parent[0] if parent else None,
                    "root": root,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                }
                if after_fn:
                    span.update(after_fn(args, before))
                spans.append(span)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in place (classes, and every module binding)."""
        for module_name, _ in targets:
            importlib.import_module(module_name)
        for module_name, qualname in targets:
            module = sys.modules[module_name]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            traced = self.wrap(qualname, original, ATTRS.get(qualname, (None, None)))
            setattr(owner, attr, traced)
            if owner_name:
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPANS.json <repro args...>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    import repro.cli

    # Stop on SIGINT even if the parent started us with it ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    tracer.install()
    written = []

    def flush() -> None:
        if written:
            return
        written.append(True)
        with open(out_path, "w") as fh:
            json.dump({"import_ms": IMPORT_MS, "spans": list(tracer.spans)}, fh)

    atexit.register(flush)
    try:
        return repro.cli.main(cli_args)
    finally:
        flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
