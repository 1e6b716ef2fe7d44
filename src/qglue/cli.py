"""Command line front end.

Two subcommands share one parameter surface:

    qglue verify [--suite disc --suite chi,index ...] [--format json|csv]
    qglue index  [--nmax 5] [--format csv]

Values resolve as defaults < config file < explicit flags. The config file
is `key = value` lines with # comments, keys matching the long flag names
(suites as a comma-separated list). Exit code 0 means every check passed,
1 means at least one fail record, 2 means the invocation itself was bad
(arguments, config file or parameters, an unknown suite name, an empty
suite selection, or an --out file that cannot be opened, which is tried
before any suite runs). A check that cannot be carried out at the given
parameters is a fail record with the reason as its value (see
suites.run_check), so any exception that escapes a run is a qglue bug: the
process prints its traceback to stderr and exits EX_SOFTWARE (70).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from .opnum import ParamSet
from .report import Report, timestamp_now
from .suites import SUITES, run_suites

FORMATS = ("json", "csv")
# the exit status of a qglue bug, as sysexits.h names it
EX_SOFTWARE = 70


@dataclass
class RunConfig:
    """The settings of one run. param_values holds the ParamSet fields that
    were set; the others keep ParamSet's defaults."""

    nmax: int = 5
    seed: int = 0
    format: str = "json"
    out: str | None = None
    suites: tuple = tuple(SUITES)
    param_values: dict = field(default_factory=dict)

    def params(self) -> ParamSet:
        return ParamSet(**self.param_values)


_PARAM_KEYS = tuple(f.name for f in fields(ParamSet))
_KEYS = _PARAM_KEYS + tuple(f.name for f in fields(RunConfig) if f.name != "param_values")
# config-file number parsers; a ParamSet field parses as the type of its default
_NUMBER_TYPES = {f.name: type(f.default) for f in fields(ParamSet)}
_NUMBER_TYPES.update(nmax=int, seed=int)


def load_config_file(path: str) -> dict:
    """Parse `key = value` lines; unknown or repeated keys and malformed
    lines raise."""
    values: dict = {}
    first_set: dict = {}  # key -> the line that set it
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_set:
                raise ValueError(
                    f"{path}:{lineno}: duplicate key {key!r} (first set on line {first_set[key]})"
                )
            first_set[key] = lineno
            if key in _NUMBER_TYPES:
                number = _NUMBER_TYPES[key]
                try:
                    values[key] = number(value)
                except ValueError:
                    kind = "an integer" if number is int else "a number"
                    raise ValueError(
                        f"{path}:{lineno}: {key} must be {kind}, got {value!r}"
                    ) from None
            elif key == "suites":
                names = tuple(name.strip() for name in value.split(",") if name.strip())
                if not names:
                    raise ValueError(f"{path}:{lineno}: suites needs at least one suite name")
                values["suites"] = names
            elif key == "format" and value not in FORMATS:
                raise ValueError(
                    f"{path}:{lineno}: format must be one of {', '.join(FORMATS)}, "
                    f"got {value!r}"
                )
            elif key == "out" and not value:
                raise ValueError(f"{path}:{lineno}: out needs a file name")
            else:
                values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, help="first deformation parameter in (0, 1)")
    common.add_argument("--p", type=float, help="second deformation parameter in (0, 1)")
    common.add_argument("--s", type=float, help="family parameter in (0, 1]")
    common.add_argument("--d", type=int, help="matrix window size")
    common.add_argument("--w", type=int, help="shift window radius")
    common.add_argument("--tol", type=float, help="residual tolerance for relation checks")
    common.add_argument("--nmax", type=int, help="largest twist degree to sweep")
    common.add_argument("--seed", type=int, help="seed for the randomized checks")
    common.add_argument("--format", choices=FORMATS, help="report format")
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument("--config", help="read defaults from a key = value file")

    parser = argparse.ArgumentParser(
        prog="qglue",
        description="verification workbench for glued quantum-disc algebras",
    )
    parser.add_argument("--version", action="version", version=f"qglue {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify", parents=[common], help="run verification suites and emit a report"
    )
    verify.add_argument(
        "--suite",
        action="append",
        metavar="NAME[,NAME...]",
        help=f"suites to run (default: all). Known: {', '.join(SUITES)}",
    )
    sub.add_parser(
        "index", parents=[common], help="emit the pairing index table as a report"
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    layers = []
    if args.config:
        layers.append(load_config_file(args.config))
    flags: dict = {}
    for key in _PARAM_KEYS + ("nmax", "seed", "format", "out"):
        value = getattr(args, key, None)
        if value is not None:
            flags[key] = value
    if getattr(args, "suite", None):
        names = []
        for chunk in args.suite:
            names.extend(n.strip() for n in chunk.split(",") if n.strip())
        flags["suites"] = tuple(names)
    layers.append(flags)
    for layer in layers:
        for key, value in layer.items():
            if key in _PARAM_KEYS:
                cfg.param_values[key] = value
            else:
                setattr(cfg, key, value)
    if cfg.nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {cfg.nmax}")
    if not cfg.suites:
        raise ValueError("no suite selected: name at least one suite")
    unknown = [name for name in cfg.suites if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite names: {', '.join(sorted(unknown))}")
    return cfg


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _resolve_config(args)
        params = cfg.params()
    except (ValueError, OSError) as exc:
        print(f"qglue: {exc}", file=sys.stderr)
        return 2
    out = contextlib.nullcontext(sys.stdout)
    if cfg.out is not None:
        try:
            out = open(cfg.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"qglue: {cfg.out}: {exc.strerror}", file=sys.stderr)
            return 2

    with out as stream:
        names = cfg.suites if args.command == "verify" else ("index",)
        records = run_suites(names, params, cfg.nmax, cfg.seed)

        report = Report(
            meta={
                "command": args.command,
                "version": __version__,
                "params": asdict(params),
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
        f"qglue {args.command}: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['warn']} warn",
        file=sys.stderr,
    )
    return report.exit_code()


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback an uncaught exception prints
        code = EX_SOFTWARE
    # the process ends here: move every object out of the collector's reach,
    # so interpreter shutdown does not collect what the OS reclaims anyway
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
