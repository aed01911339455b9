"""The benchmark's span table names only things that exist in ldpmean.

``bench/spans.py`` resolves its spans with ``getattr`` when a traced run
installs them, so a deleted or renamed function would first show up as a
failed traced run. This test reads the table by path and resolves it here.
"""

import importlib
import importlib.util
from pathlib import Path

import ldpmean
from ldpmean.sphere import RngStream

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_resolves_in_ldpmean():
    spans = _load_spans()
    assert spans.FUNCTION_SPANS and spans.METHOD_SPANS
    for modname, attr, *_ in spans.FUNCTION_SPANS:
        mod = importlib.import_module(f"{ldpmean.__name__}.{modname}")
        assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"
    for meth, *_ in spans.METHOD_SPANS:
        assert callable(vars(RngStream).get(meth)), f"RngStream.{meth}"
