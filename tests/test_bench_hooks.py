"""The benchmark's trace hooks wrap nuext functions by module and name;
every one of them must still exist, or `perfbench/run.py --trace 1` fails."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_exists_and_is_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for mod_name, attr, _span in targets:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} is missing or not callable"
