"""The benchmark's traced mode patches vkshell names listed in bench/spans.py;
a name deleted from vkshell must fail here, not only in the traced run."""

import importlib.util
from pathlib import Path

from vkshell import cli, energy, fields, growth, shell3d, solver

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_bench_span_target_resolves():
    # spans.py imports only the standard library, so it loads by file path
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    vk = {"cli": cli, "energy": energy, "fields": fields, "growth": growth, "shell3d": shell3d, "solver": solver}
    for label, (mod_name, attr) in spans.TARGETS.items():
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(vk[mod_name], cls_name) if cls_name else vk[mod_name]
        # Tracer.install reads a method from its class's own namespace
        assert callable(vars(owner).get(name)), label
