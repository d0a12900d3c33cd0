"""Run one ctxapprox CLI command in this fresh interpreter and report its timings.

Usage: python3 perfbench/child.py SPEC.json LAUNCH_NS

SPEC.json holds ``root`` (the checkout), ``argv`` (the CLI arguments),
``config`` (the config path), ``op`` (an operation id), ``trace`` (wrap the
layers in spans) and ``result`` (where to write the report).  With ``argv``
null the child only sets up, which is how ``setup_s`` is sampled.  LAUNCH_NS is
the parent's ``time.monotonic_ns()`` just before it started this process, so
``setup_s`` covers interpreter start, the ``ctxapprox.cli`` import and the
config load.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path: str, launch_ns: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from ctxapprox import cli, construction, embedding, kronecker, vocab_pe
    json.loads(Path(spec["config"]).read_text())
    setup_s = (time.monotonic_ns() - int(launch_ns)) / 1e9
    if spec["argv"] is None:
        Path(spec["result"]).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    hooks = nullcontext()
    if spec["trace"]:
        from spans import ROOT_SPAN, Tracer
        tracer = Tracer(spec["op"])
        hooks = tracer.installed({"cli": cli, "construction": construction,
                                  "embedding": embedding, "kronecker": kronecker,
                                  "vocab_pe": vocab_pe})
    start = time.perf_counter()
    with hooks:
        with tracer.span(ROOT_SPAN) if tracer else nullcontext():
            code = cli.main(spec["argv"])
    op_s = time.perf_counter() - start

    report = {"exit_code": code, "setup_s": setup_s, "op_s": op_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "spans": tracer.spans if tracer else [],
              "environment": _environment() if spec.get("environment") else None}
    Path(spec["result"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
