"""The process entry point and the command line surface, with no numeric import.

Two subcommands share one parameter surface:

    qglue verify [--suite disc --suite chi,index ...] [--format json|csv]
    qglue index  [--nmax 5] [--format csv]

Values resolve as defaults < config file < explicit flags. The config file
is `key = value` lines with # comments, keys matching the long flag names
(suites, a verify key only, as a comma-separated list). Exit code 0 means
every check passed, 1 means at least one fail record, 2 means the invocation
itself was bad (arguments, config file or parameters, an unknown suite name,
an empty suite selection, or an --out file that cannot be opened, which is tried
before any suite runs). A check that cannot be carried out at the given
parameters is a fail record with the reason as its value (see
suites.run_check), so any exception that escapes a run is a qglue bug: the
process prints its traceback to stderr and exits EX_SOFTWARE (70).

This module reads the command line; qglue.cli runs what it resolves. main
imports cli, and with it numpy and the suites, only when there is a run to
do, so --version, --help and every bad invocation exit without them.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass, fields

from . import __version__
from .params import SUITE_NAMES, ParamSet

FORMATS = ("json", "csv")
# the exit status of a qglue bug, as sysexits.h names it
EX_SOFTWARE = 70


@dataclass
class RunConfig:
    """The settings of one run, resolved from the command line."""

    command: str
    params: ParamSet
    nmax: int = 5
    seed: int = 0
    format: str = "json"
    out: str | None = None
    suites: tuple = SUITE_NAMES


_PARAM_KEYS = tuple(f.name for f in fields(ParamSet))
_RUN_KEYS = tuple(f.name for f in fields(RunConfig) if f.name not in ("command", "params"))
_KEYS = _PARAM_KEYS + _RUN_KEYS
# config-file number parsers; a ParamSet field parses as the type of its default
_NUMBER_TYPES = {f.name: type(f.default) for f in fields(ParamSet)}
_NUMBER_TYPES.update(nmax=int, seed=int)


def load_config_file(path: str, command: str = "verify") -> dict:
    """Parse `key = value` lines for command; a file that cannot be read,
    unknown or repeated keys, a key the command has no flag for (suites for
    index) and malformed lines raise ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values: dict = {}
    first_set: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "suites" and command != "verify":
            raise ValueError(f"{path}:{lineno}: key 'suites' applies to verify, not {command}")
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
        help=f"suites to run (default: all). Known: {', '.join(SUITE_NAMES)}",
    )
    sub.add_parser(
        "index", parents=[common], help="emit the pairing index table as a report"
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config, args.command) if args.config else {}
    for key in _PARAM_KEYS + ("nmax", "seed", "format", "out"):
        value = getattr(args, key, None)
        if value is not None:
            values[key] = value
    if getattr(args, "suite", None):
        names = []
        for chunk in args.suite:
            names.extend(n.strip() for n in chunk.split(",") if n.strip())
        values["suites"] = tuple(names)
    nmax = values.get("nmax", RunConfig.nmax)
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    suites = values.get("suites", RunConfig.suites)
    if not suites:
        raise ValueError("no suite selected: name at least one suite")
    unknown = [name for name in suites if name not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite names: {', '.join(sorted(unknown))}")
    params = ParamSet(**{key: values[key] for key in _PARAM_KEYS if key in values})
    run = {key: values[key] for key in _RUN_KEYS if key in values}
    return RunConfig(args.command, params, **run)


def resolve(argv) -> RunConfig | int:
    """The run argv asks for, or the exit status of an invocation that ends
    here: 0 after --version or --help, 2 after a usage, config or parameter
    error, whose message is printed to stderr."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _resolve_config(args)
    except ValueError as exc:
        print(f"qglue: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        cfg = resolve(sys.argv[1:])
        if isinstance(cfg, int):
            code = cfg
        else:
            from .cli import execute

            code = execute(cfg)
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback an uncaught exception prints
        code = EX_SOFTWARE
    # the process ends here: move every object out of the collector's reach,
    # so interpreter shutdown does not collect what the OS reclaims anyway
    gc.freeze()
    sys.exit(code)
