"""Command line front door for the experiment pipelines.

Subcommands generate structures, run colorings and witness experiments,
self-test the measure algebra and verify previously written reports.
Reports are canonical JSON (sorted keys, exact rationals); a fixed argv
and seed reproduce the bytes exactly.  Exit codes: 0 all certifications
hold, 2 a certification failed (the report is still written), 1 usage or
input error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence

from .serialize import (FormatError, atomic_write_text, canonical_dumps,
                        load_json)
from .structures import FreenessViolation
from .witnesses import (PIPELINES, EmbeddingNotFound, WitnessReport,
                        build_report)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT = 2


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, reading the terminal's width (through shutil,
    an import every run would pay) only when it formats text: add_argument
    builds one for each argument just to check its metavar."""

    def format_help(self):
        sized = argparse.HelpFormatter(self._prog)
        self._width = sized._width
        self._max_help_position = sized._max_help_position
        return super().format_help()


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2 by default; this CLI
    reserves 2 for failed certifications, so remap to 1."""

    def _get_formatter(self):
        return _Formatter(self.prog, width=0)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _get_values(self, action, arg_strings):
        # argparse strips a "--" given as an option's value (--seed=--) and
        # stores [] in its place; every option here takes one string
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(output, text)


def _exit_for(report: WitnessReport) -> int:
    return EXIT_OK if report.all_hold else EXIT_CERT


def _csv(report: WitnessReport) -> str:
    witness = report.witness
    if report.theorem == "measure-algebra":
        lines = ["check,passed,cases"]
        lines += [f"{check},{passed},{witness['cases']}"
                  for check, passed in witness["passed"].items()]
    else:
        lines = ["trial,found,witness"]
        for i, entry in enumerate(witness["results"]):
            found = entry["found"]
            cell = "-".join(str(v) for v in entry["witness"]) if found else ""
            lines.append(f"{i},{int(found)},{cell}")
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    """Run a report subcommand.  The parsed options are the request and
    the report's config.  A failed precondition still writes a report,
    with the failed inequality, and exits 2."""
    theorem = _SUBCOMMANDS[args.subcommand][0]
    config = {key: value for key, value in vars(args).items()
              if value is not None and key != "func"}
    report, document = build_report(theorem, config)
    if "precondition_failed" in report.witness:
        print(f"error: {report.log[0]}", file=sys.stderr)
    if "structure_out" in config:
        atomic_write_text(config["structure_out"],
                          canonical_dumps(report.witness["structure"]))
    if config.get("format") == "csv":
        _emit(_csv(report), config.get("output"))
    else:
        _emit(canonical_dumps(document), config.get("output"))
    return _exit_for(report)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _Absent:
    def __repr__(self):
        return "(absent)"


_ABSENT = _Absent()


def _brief(value) -> str:
    """A value named by its type and size rather than printed whole."""
    if isinstance(value, (dict, list, str)):
        return f"a {type(value).__name__} of length {len(value)}"
    return repr(value)


def _first_difference(recorded, fresh, path: str = ""):
    """Where two JSON values first differ, in sorted key order: the dotted
    path (list items as [i]) and both values there, or None when they are
    equal.  Values of two types are named by their types and sizes, and
    lists of two lengths by both lengths and the first index at which they
    differ, so neither is printed whole.  Equality is Python's, so 1, 1.0
    and true are equal."""
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        pairs = ((f"{path}.{key}" if path else key,
                  recorded.get(key, _ABSENT), fresh.get(key, _ABSENT))
                 for key in sorted(recorded.keys() | fresh.keys()))
    elif isinstance(recorded, list) and isinstance(fresh, list):
        if len(recorded) != len(fresh):
            first = next((i for i, (a, b) in enumerate(zip(recorded, fresh))
                          if a != b), min(len(recorded), len(fresh)))
            return (path, f"a list of length {len(recorded)}",
                    f"a list of length {len(fresh)}; they first differ at "
                    f"[{first}]")
        pairs = ((f"{path}[{i}]", a, b)
                 for i, (a, b) in enumerate(zip(recorded, fresh)))
    elif recorded == fresh:
        return None
    elif type(recorded) is not type(fresh):
        return path, _brief(recorded), _brief(fresh)
    else:
        return path, recorded, fresh
    return next((_first_difference(a, b, sub)
                 for sub, a, b in pairs if a != b), None)


def _not_a_request(theorem: str, why: str) -> FormatError:
    return FormatError(f"report config is not a valid {theorem!r} request "
                       f"({why})")


class _RequestParser(_Parser):
    """The parser of a config whose report tag is prog: a usage error is
    the config's, raised rather than printed."""

    def error(self, message):
        raise _not_a_request(self.prog, message)


def _check_request(theorem: str, config: dict, witness) -> None:
    """Hold a config to the request a run writes: written back as the argv
    of its subcommand, which must write theorem's reports, it must parse
    with that subcommand's arguments to the same options.  A re-typed
    value never does: argparse refuses 1.0 for an int and 0 for a flag,
    reads "20" as 20, and leaves false at a default that is never 0.
    Adversary reports once recorded the ambient's arity as r, which is
    dropped when the witness records the same r."""
    subcommand = config.get("subcommand")
    if not (isinstance(subcommand, str) and subcommand in _SUBCOMMANDS
            and _SUBCOMMANDS[subcommand][0] == theorem):
        raise _not_a_request(theorem, f"subcommand {subcommand!r}")
    options = {key: value for key, value in config.items()
               if key != "subcommand"}
    if (subcommand == "adversary" and type(options.get("r")) is int
            and isinstance(witness, dict)
            and options["r"] == witness.get("r")):
        del options["r"]
    argv = [f"--{key.replace('_', '-')}" + ("" if value is True
                                              else f"={value}")
            for key, value in options.items()
            if value is not False and (key, subcommand) != ("spec", "gen")]
    if subcommand == "gen" and "spec" in options:
        argv += ["--", str(options["spec"])]
    parser = _RequestParser(prog=theorem, add_help=False, allow_abbrev=False)
    _SUBCOMMANDS[subcommand][2](parser)
    parsed = {key: value for key, value in
              vars(parser.parse_args(argv)).items() if value is not None}
    for key in sorted(parsed.keys() | options.keys()):
        have, made = options.get(key, _ABSENT), parsed.get(key, _ABSENT)
        if have != made:
            raise _not_a_request(theorem, f"config {key!r} is {_brief(have)}"
                                          f" but parses as {_brief(made)}")


# how verify names a field under each top-level key
_PARTS = {"inputs": "input"}


def _cmd_verify(args) -> int:
    overrides = {}
    for item in args.input or []:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise FormatError(f"--input needs name=path, got {item!r}")
        overrides[name] = path
    data = load_json(args.report)
    if not isinstance(data, dict):
        raise FormatError("report must be a JSON object")
    theorem, config = data.get("theorem"), data.get("config")
    if not isinstance(theorem, str) or theorem not in PIPELINES:
        raise FormatError(f"unknown theorem tag {theorem!r}")
    if not isinstance(config, dict):
        raise FormatError("config must be an object")
    recorded = data.get("certified")
    if not isinstance(recorded, list):
        raise FormatError("certified must be a list")
    _check_request(theorem, config, data.get("witness"))
    report, rebuilt = build_report(theorem, config, overrides)
    # every certification that does not reproduce, then the first field
    # that differs under each other key of either document
    fresh = rebuilt["certified"]
    for i, entry in enumerate(fresh):
        have = recorded[i] if i < len(recorded) else None
        if entry != have:
            print(f"certification {entry['name']!r} does not reproduce:"
                  f"\n  recorded   {have}\n  recomputed {entry}",
                  file=sys.stderr)
    if len(recorded) != len(fresh):
        print(f"report records {len(recorded)} certifications, "
              f"recomputation yields {len(fresh)}", file=sys.stderr)
    differences = [(key, difference) for key in sorted(
        (data.keys() | rebuilt.keys()) - {"certified"})
        if (difference := _first_difference(
            data.get(key, _ABSENT), rebuilt.get(key, _ABSENT))) is not None]
    for key, (path, have, made) in differences:
        where = (f"{_PARTS.get(key, key)} field {path!r}" if path
                 else f"report key {key!r}")
        print(f"{where} does not reproduce:"
              f"\n  recorded   {have}\n  recomputed {made}", file=sys.stderr)
    if fresh != recorded or differences:
        return EXIT_CERT
    if not report.all_hold:
        print("report reproduces, but contains a failed certification",
              file=sys.stderr)
        return EXIT_CERT
    print(f"verified: {len(fresh)} certifications reproduced")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def _gen_arguments(p) -> None:
    p.add_argument("spec", help="gen:n:r:s:seed=K | circulant:n:d1,d2 | "
                                "searchalpha:n:s:target:budget:seed=K | "
                                "tp2grid:k | file:PATH")
    p.add_argument("--output", help="report path (default stdout)")
    p.add_argument("--structure-out", help="also write the bare structure")


def _color_arguments(p) -> None:
    p.add_argument("--input", required=True,
                   help="weighted hypergraph JSON file")
    p.add_argument("--brute", action="store_true",
                   help="also enumerate all colourings (small inputs)")
    p.add_argument("--output")


def _fam_arguments(p) -> None:
    p.add_argument("--phi", required=True, help="formula in the quantifier-"
                                                "free DSL")
    p.add_argument("--epsilon", required=True, help="rational a/b")
    p.add_argument("--graph", required=True, help="sample graph spec")
    p.add_argument("--ambient", required=True, help="ambient graph spec")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--budget", type=int, help="embedding search node budget")
    p.add_argument("--output")


def _adversary_arguments(p) -> None:
    p.add_argument("--ambient", required=True)
    p.add_argument("--n", type=int, required=True, help="number of tuples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--output")


def _satprobe_arguments(p) -> None:
    p.add_argument("--ambient", required=True)
    p.add_argument("--m-size", type=int, required=True, dest="m_size",
                   help="size of the seeded designated subset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", help="explicit parameters a,b,c")
    p.add_argument("--trials", type=int, help="aggregate mode trial count")
    p.add_argument("--n-params", type=int, dest="n_params",
                   help="aggregate mode parameters per trial")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")


def _tp2_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", help="prebuilt structure JSON (default: "
                                   "constructor grid)")
    p.add_argument("--sample", type=int, help="check this many sampled paths")
    p.add_argument("--seed", type=int)
    p.add_argument("--output")


def _order_arguments(p) -> None:
    p.add_argument("--ambient", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--output")


def _check_measures_arguments(p) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")


def _verify_arguments(p) -> None:
    p.add_argument("report", help="report JSON path")
    p.add_argument("--input", action="append",
                   help="override an input source as name=path")


# each subcommand's report tag (None for verify), its help line and the
# function that adds its arguments, in the order --help lists them
_SUBCOMMANDS = {
    "gen": ("gen", "resolve a structure spec and certify it",
            _gen_arguments),
    "color": ("coloring-bound", "greedy splitting colouring with the exact "
              "guarantee", _color_arguments),
    "fam": ("famnotfim", "average approximation of the isolated vertex "
            "type", _fam_arguments),
    "adversary": ("dfsnotfim-adversary", "vertex falsifying the no-edge "
                  "formula on a guaranteed fraction", _adversary_arguments),
    "satprobe": ("dfsnotfim-sat", "search a subset for a tuple with no edge "
                 "through the parameters", _satprobe_arguments),
    "tp2": ("tp2", "grid rows inconsistent, paths consistent",
            _tp2_arguments),
    "order": ("order", "alternating link pattern witness", _order_arguments),
    "check-measures": ("measure-algebra", "seeded self-test of the measure "
                       "algebra", _check_measures_arguments),
    "verify": (None, "rebuild a report and compare it", _verify_arguments),
}


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser for argv.  When argv starts with a subcommand only that
    subcommand's parser is built, and its usage, help and errors read as
    they do with all nine; otherwise all nine are built, so that --help
    lists them and an unknown name is refused with the choices."""
    parser = _Parser(prog="keisler-lab",
                     description="Finite-scale measure and witness "
                                 "experiments with verifiable reports.")
    names = list(_SUBCOMMANDS)
    chosen = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    # one subparser built: the usage line still names every choice.  The
    # subcommands' usage prefix is given, so no formatter formats it
    sub = parser.add_subparsers(
        dest="subcommand", required=True, prog=parser.prog,
        metavar="{" + ",".join(names) + "}" if chosen else None)
    for name in [chosen] if chosen else names:
        tag, help_text, add_arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=_cmd_report if tag else _cmd_verify)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except FreenessViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmbeddingNotFound, OSError, ValueError) as exc:
        # ValueError covers FormatError, ParseError, FragmentError,
        # DnfCapError and GridTooSmall
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    # The modules, classes and functions imported by now live until exit.
    # Frozen, they sit in the collector's permanent generation, which
    # interpreter shutdown does not walk.  Only the process entry freezes:
    # run() leaves a library caller's heap collectable.
    gc.freeze()
    raise SystemExit(run())


if __name__ == "__main__":
    main()
