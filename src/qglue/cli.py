"""Runs what the command line front resolves.

qglue.entry reads the command line (parser, config file, exit codes); this
module runs the suites a resolved RunConfig names and writes the report.
run(argv) does both for an in-process caller: it returns the exit status
and lets an exception that escapes the run through, where the qglue
process prints its traceback and exits EX_SOFTWARE (see entry.main).
Importing this module loads the suites and every module they use.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import asdict

from . import __version__
from .entry import RunConfig, resolve
from .report import Report, timestamp_now
from .suites import SUITES, run_suites


def execute(cfg: RunConfig) -> int:
    """Run the suites cfg names and write the report; 2 when its --out
    file cannot be opened, which is tried before any suite runs."""
    out = contextlib.nullcontext(sys.stdout)
    if cfg.out is not None:
        try:
            out = open(cfg.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"qglue: {cfg.out}: {exc.strerror}", file=sys.stderr)
            return 2

    with out as stream:
        names = cfg.suites if cfg.command == "verify" else ("index",)
        records = run_suites(names, cfg.params, cfg.nmax, cfg.seed)

        report = Report(
            meta={
                "command": cfg.command,
                "version": __version__,
                "params": asdict(cfg.params),
                "nmax": cfg.nmax,
                "seed": cfg.seed,
                "suites": [n for n in SUITES if n in set(names)],
                "timestamp": timestamp_now(),
            }
        )
        report.extend(records)
        stream.write(report.to_json() if cfg.format == "json" else report.to_csv())
    counts = report.counts()
    print(
        f"qglue {cfg.command}: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['warn']} warn",
        file=sys.stderr,
    )
    return report.exit_code()


def run(argv) -> int:
    """The exit status of qglue run on argv, in this process."""
    cfg = resolve(argv)
    return cfg if isinstance(cfg, int) else execute(cfg)
