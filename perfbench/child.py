"""In-process side of the benchmark: runs ``qglue.cli.run`` inside this process.

Launched by run.py with ``PYTHONPATH=<checkout>/src``; writes one JSON result
file and exits with qglue's own exit code (the worst over its passes).

    child.py facts  RESULT
    child.py trace  RESULT OUT -- VERIFY-ARGS...
    child.py warm   RESULT WORKDIR SECONDS MIN_PASSES TRACE -- VERIFY-ARGS...

``trace`` runs one traced pass (the traced half of a fresh-process unit).
``warm`` runs one untimed pass to fill the caches, then timed passes for at
least SECONDS seconds and MIN_PASSES passes, each writing WORKDIR/pass_<i>.csv;
with TRACE=1 it then repeats that number of passes under the tracer.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from time import perf_counter

from tracer import Tracer


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cli_run(argv) -> int:
    # looked up on every call so that the tracer's wrapper is the one called
    return sys.modules["qglue.cli"].run(argv)


def _nf_cache_entries():
    """Normal-form cache size summed over every live presentation, or None
    when the cache attributes are gone."""
    from qglue.presentations import Presentation

    total, seen = 0, False
    for obj in gc.get_objects():
        if isinstance(obj, Presentation):
            for attr in ("_nf_cache", "_nf_cache_subword"):
                cache = getattr(obj, attr, None)
                if cache is not None:
                    total += len(cache)
                    seen = True
    return total if seen else None


def _facts() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _timed_passes(argv, workdir, first, count, seconds):
    passes, code = [], 0
    start = perf_counter()
    index = first
    while len(passes) < count or (seconds and perf_counter() - start < seconds):
        out = os.path.join(workdir, f"pass_{index}.csv")
        cpu0, t0 = _cpu_s(), perf_counter()
        code = max(code, _cli_run(argv + ["--out", out]))
        wall = perf_counter() - t0
        passes.append({"out": out, "wall_s": wall, "cpu_s": _cpu_s() - cpu0})
        index += 1
    return passes, code


def main(argv) -> int:
    mode, result_path = argv[0], argv[1]
    if mode == "facts":
        result, code = _facts(), 0
    elif mode == "trace":
        out, verify = argv[2], argv[argv.index("--") + 1 :]
        import qglue.cli  # noqa: F401

        tracer = Tracer()
        tracer.install()
        code = _cli_run(verify + ["--out", out])
        tracer.uninstall()
        result = {"trace": tracer.dump(), "nf_cache_entries": _nf_cache_entries()}
    elif mode == "warm":
        workdir, seconds, min_passes, trace = argv[2], float(argv[3]), int(argv[4]), argv[5]
        verify = argv[argv.index("--") + 1 :]
        import qglue.cli  # noqa: F401

        cold = os.path.join(workdir, "cold.csv")
        code = _cli_run(verify + ["--out", cold])
        passes, warm_code = _timed_passes(verify, workdir, 0, min_passes, seconds)
        code = max(code, warm_code)
        result = {"cold": cold, "passes": passes}
        if trace == "1":
            tracer = Tracer()
            tracer.install()
            traced, traced_code = _timed_passes(verify, workdir, len(passes), len(passes), 0)
            tracer.uninstall()
            code = max(code, traced_code)
            result.update(
                traced=traced,
                trace=tracer.dump(),
                nf_cache_entries=_nf_cache_entries(),
            )
    else:
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
