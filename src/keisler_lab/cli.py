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
import random
import sys
from typing import Optional, Sequence

from .coloring import WeightedHypergraph
from .logic import ParseError, parse_phi
from .serialize import (FormatError, atomic_write_text, canonical_dumps,
                        digest, load_json, load_structure, load_weighted,
                        parse_rational, parse_structure_spec,
                        structure_digest, structure_to_json, weighted_to_json)
from .structures import (Feq2Structure, FreenessViolation, Hypergraph,
                         build_tp2_grid)
from .witnesses import (PIPELINES, EmbeddingNotFound, PreconditionFailed,
                        WitnessReport, _check_tuple_count, adversary_witness,
                        color_witness, fam_witness, gen_witness,
                        measures_witness, order_witness, recompute_certified,
                        sat_probe, tp2_witness)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT = 2


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2 by default; this CLI
    reserves 2 for failed certifications, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(output, text)


def _exit_for(report: WitnessReport) -> int:
    return EXIT_OK if report.all_hold else EXIT_CERT


def _write_report(args, report: WitnessReport) -> int:
    """Emit the report under its config, the parsed options as given."""
    config = {key: value for key, value in vars(args).items()
              if value is not None and key != "func"}
    _emit(canonical_dumps({"config": config, **report.to_json_dict()}),
          args.output)
    return _exit_for(report)


def _input_entry(obj, source: str) -> dict:
    """How a report records an input: its kind, digest and source."""
    if isinstance(obj, WeightedHypergraph):
        return {"kind": "weighted-hypergraph",
                "digest": digest(weighted_to_json(obj)), "source": source}
    # one serialisation serves both the kind and the digest
    sjson = structure_to_json(obj)
    return {"kind": sjson["kind"], "digest": structure_digest(obj, sjson),
            "source": source}


def _run_witness(args, theorem: str, sources: dict, builder) -> int:
    """Run a witness builder and record its inputs, {name: (source,
    object)}; a failed precondition still writes a report, with the failed
    inequality, and exits 2."""
    try:
        report = builder()
    except PreconditionFailed as exc:
        report = exc.report(theorem)
        print(f"error: {exc}", file=sys.stderr)
    for name, (source, obj) in sources.items():
        report.inputs[name] = _input_entry(obj, source)
    return _write_report(args, report)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    report = gen_witness(args.spec)
    if args.structure_out is not None:
        atomic_write_text(args.structure_out,
                          canonical_dumps(report.witness["structure"]))
    return _write_report(args, report)


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------

def _cmd_color(args) -> int:
    wh = load_weighted(args.input)
    sources = {"weighted": (args.input, wh)}
    return _run_witness(args, "coloring-bound", sources,
                        lambda: color_witness(wh, args.brute))


# ---------------------------------------------------------------------------
# check-measures
# ---------------------------------------------------------------------------

def _cmd_check_measures(args) -> int:
    report = measures_witness(args.seed, args.cases)
    if args.format == "csv":
        lines = ["check,passed,cases"]
        lines += [f"{check},{passed},{args.cases}"
                  for check, passed in report.witness["passed"].items()]
        _emit("\n".join(lines) + "\n", args.output)
        return _exit_for(report)
    return _write_report(args, report)


# ---------------------------------------------------------------------------
# witness subcommands
# ---------------------------------------------------------------------------

def _cmd_fam(args) -> int:
    try:
        phi = parse_phi(args.phi)
    except ParseError as exc:
        raise FormatError(f"--phi: {exc}") from None
    epsilon = parse_rational(args.epsilon)
    graph = parse_structure_spec(args.graph)
    ambient = parse_structure_spec(args.ambient)
    if not isinstance(graph, Hypergraph) or not isinstance(ambient, Hypergraph):
        raise FormatError("fam needs hypergraph inputs")
    sources = {"ambient": (args.ambient, ambient),
               "graph": (args.graph, graph)}
    return _run_witness(
        args, "famnotfim", sources,
        lambda: fam_witness(phi, epsilon, ambient, graph, args.s,
                            embed_budget=args.budget))


def _cmd_adversary(args) -> int:
    ambient = parse_structure_spec(args.ambient)
    if not isinstance(ambient, Hypergraph):
        raise FormatError("adversary needs a hypergraph ambient")
    if args.r is None:
        args.r = ambient.r  # the report's config records the resolved r
    tuples = _draw_tuples(args.seed, args.n, args.r, ambient)
    sources = {"ambient": (args.ambient, ambient)}
    return _run_witness(args, "dfsnotfim-adversary", sources,
                        lambda: adversary_witness(tuples, ambient, args.s))


def _draw_tuples(seed: int, n: int, r: int,
                 ambient: Hypergraph) -> list[tuple[int, ...]]:
    """An adversary's n tuples of r - 1 ambient vertices, drawn from the
    generator seeded with --seed.  verify draws them again from the
    report's config."""
    if r != ambient.r:
        raise FormatError(f"--r {r} does not match the ambient arity "
                          f"{ambient.r}")
    if n < 1:
        raise FormatError("--n must be positive")
    _check_tuple_count(n)
    if ambient.n == 0:
        raise FormatError("ambient has no vertices to draw tuples from")
    rng = random.Random(seed)
    return [tuple(rng.randrange(ambient.n) for _ in range(r - 1))
            for _ in range(n)]


def _draw_subset(rng: random.Random, n: int, m_size: int) -> list[int]:
    """A satprobe's designated subset: the first draw of the generator
    seeded with --seed.  verify draws it again from the report's config."""
    if not 1 <= m_size <= n:
        raise FormatError(f"--m-size must lie in 1..{n} for this ambient")
    return sorted(rng.sample(range(n), m_size))


def _cmd_satprobe(args) -> int:
    ambient = parse_structure_spec(args.ambient)
    if not isinstance(ambient, Hypergraph):
        raise FormatError("satprobe needs a hypergraph ambient")
    rng = random.Random(args.seed)
    subset = _draw_subset(rng, ambient.n, args.m_size)
    aggregate = args.params is None
    if aggregate and args.n_params is None:
        raise FormatError("need --params or --n-params")
    if not aggregate and (args.trials is not None
                          or args.n_params is not None):
        raise FormatError("--params excludes --trials/--n-params")
    if args.format == "csv" and not aggregate:
        raise FormatError("csv output is only defined for aggregate mode")
    if aggregate:
        trials = args.trials if args.trials is not None else 1
        probe_seed = rng.randrange(2 ** 63)
        report = sat_probe(ambient, subset, trials=trials,
                           n_params=args.n_params, seed=probe_seed)
    else:
        params = _parse_int_list(args.params, "--params")
        report = sat_probe(ambient, subset, params)
    report.inputs["ambient"] = _input_entry(ambient, args.ambient)
    if args.format == "csv":
        lines = ["trial,found,witness"]
        for i, entry in enumerate(report.witness["results"]):
            found = entry["found"]
            cell = "-".join(str(v) for v in entry["witness"]) if found else ""
            lines.append(f"{i},{int(found)},{cell}")
        _emit("\n".join(lines) + "\n", args.output)
        return _exit_for(report)
    return _write_report(args, report)


def _cmd_tp2(args) -> int:
    if args.input is not None:
        structure = load_structure(args.input)
        if not isinstance(structure, Feq2Structure):
            raise FormatError("tp2 needs a parameterized equivalence input")
        source = args.input
    else:
        structure = build_tp2_grid(args.k)
        source = f"tp2grid:{args.k}"
    return _run_witness(args, "tp2", {"structure": (source, structure)},
                        lambda: tp2_witness(structure, args.k,
                                            sample=args.sample,
                                            seed=args.seed))


def _cmd_order(args) -> int:
    ambient = parse_structure_spec(args.ambient)
    if not isinstance(ambient, Hypergraph):
        raise FormatError("order needs a hypergraph ambient")
    sources = {"ambient": (args.ambient, ambient)}
    return _run_witness(args, "order", sources,
                        lambda: order_witness(ambient, args.s, args.q))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _resolve_input(name: str, entry: dict, overrides: dict):
    if not isinstance(entry, dict) or "digest" not in entry \
            or "kind" not in entry:
        raise FormatError(f"input {name!r} entry is malformed")
    if name in overrides:
        source = overrides[name]
    elif "source" in entry:
        source = entry["source"]
    else:
        raise FormatError(
            f"input {name!r} has no recorded source; pass --input {name}=PATH")
    if entry["kind"] == "weighted-hypergraph":
        obj = load_weighted(source)
    else:
        obj = parse_structure_spec(source)
    actual = _input_entry(obj, source)
    if actual["kind"] != entry["kind"]:
        raise FormatError(
            f"input {name!r} resolved to kind {actual['kind']!r}, "
            f"report says {entry['kind']!r}")
    return obj, actual["digest"], entry["digest"]


def _undrawn(theorem: str, config, witness: dict,
             resolved: dict) -> Optional[str]:
    """Draw again what an adversary or satprobe report drew from --seed,
    which only its config records, and hold a probe's request (params, or
    trials and n_params) to the config's; the message naming the first
    witness field that differs, or None."""
    if (theorem not in ("dfsnotfim-adversary", "dfsnotfim-sat")
            or "precondition_failed" in witness):
        return None
    ambient = resolved["ambient"]
    if not isinstance(config, dict):
        raise FormatError("report has no config object to draw from")
    seed = config.get("seed")
    if theorem == "dfsnotfim-adversary":
        n, r = config.get("n"), config.get("r")
        if not all(isinstance(v, int) for v in (seed, n, r)):
            raise FormatError("adversary config needs integer seed, n and r")
        tuples = _draw_tuples(seed, n, r, ambient)
        if witness["tuples"] != [list(t) for t in tuples]:
            return ("witness field 'tuples' is not the tuples drawn from the "
                    "config's seed, n and r")
        return None
    m_size = config.get("m_size")
    if not isinstance(seed, int) or not isinstance(m_size, int):
        raise FormatError("satprobe config needs integer seed and m_size")
    rng = random.Random(seed)
    if witness["m_subset"] != _draw_subset(rng, ambient.n, m_size):
        return ("witness field 'm_subset' is not the subset drawn from the "
                "config's seed and m_size")
    if witness["mode"] == "single":
        params = config.get("params")
        if not isinstance(params, str) or witness["params"] != (
                _parse_int_list(params, "--params")):
            return "witness field 'params' is not the config's params"
        return None
    for key, asked in (("trials", config.get("trials", 1)),
                       ("n_params", config.get("n_params"))):
        if witness[key] != asked:
            return f"witness field {key!r} is not the config's {key}"
    if witness["seed"] != rng.randrange(2 ** 63):
        return ("witness field 'seed' is not the probe seed drawn after the "
                "subset from the config's seed")
    return None


class _Absent:
    def __repr__(self):
        return "(absent)"


_ABSENT = _Absent()


def _first_difference(recorded, fresh, path: str = ""):
    """Where two JSON values first differ, in sorted key order: the dotted
    path (list items as [i]) and both values there, or None when they are
    equal.  Equality is Python's, so 1, 1.0 and true are equal."""
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        pairs = ((f"{path}.{key}" if path else key,
                  recorded.get(key, _ABSENT), fresh.get(key, _ABSENT))
                 for key in sorted(recorded.keys() | fresh.keys()))
    elif (isinstance(recorded, list) and isinstance(fresh, list)
          and len(recorded) == len(fresh)):
        pairs = ((f"{path}[{i}]", a, b)
                 for i, (a, b) in enumerate(zip(recorded, fresh)))
    else:
        return None if recorded == fresh else (path, recorded, fresh)
    return next((_first_difference(a, b, sub)
                 for sub, a, b in pairs if a != b), None)


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
    for key in ("theorem", "inputs", "witness", "certified", "log"):
        if key not in data:
            raise FormatError(f"report is missing the {key!r} key")
    theorem = data["theorem"]
    if theorem not in PIPELINES:
        raise FormatError(f"unknown theorem tag {theorem!r}")
    if not isinstance(data["inputs"], dict):
        raise FormatError("inputs must be an object")
    if not isinstance(data["certified"], list):
        raise FormatError("certified must be a list")

    resolved = {}
    for name, entry in data["inputs"].items():
        obj, actual, recorded = _resolve_input(name, entry, overrides)
        if actual != recorded:
            print(f"digest mismatch on input {name!r}: report has "
                  f"{recorded}, resolved input has {actual}",
                  file=sys.stderr)
            return EXIT_CERT
        resolved[name] = obj
    witness = data["witness"]
    try:
        recomputed = recompute_certified(theorem, witness, resolved)
        undrawn = _undrawn(theorem, data.get("config"), witness, resolved)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise FormatError(
            f"report payload does not match the {theorem!r} schema "
            f"({exc!r})") from None
    if undrawn is not None:
        print(undrawn, file=sys.stderr)
        return EXIT_CERT
    fresh = [c.to_json_dict() for c in recomputed.certified]
    recorded = data["certified"]
    if fresh != recorded:
        for i, entry in enumerate(fresh):
            have = recorded[i] if i < len(recorded) else None
            if entry != have:
                print(f"certification {entry['name']!r} does not reproduce:"
                      f"\n  recorded   {have}\n  recomputed {entry}",
                      file=sys.stderr)
        if len(recorded) != len(fresh):
            print(f"report records {len(recorded)} certifications, "
                  f"recomputation yields {len(fresh)}", file=sys.stderr)
        return EXIT_CERT
    difference = _first_difference(witness, recomputed.witness)
    if difference is not None:
        path, have, made = difference
        print(f"witness field {path!r} does not reproduce:"
              f"\n  recorded   {have}\n  recomputed {made}", file=sys.stderr)
        return EXIT_CERT
    if not recomputed.all_hold:
        print("report reproduces, but contains a failed certification",
              file=sys.stderr)
        return EXIT_CERT
    print(f"verified: {len(fresh)} certifications reproduced")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise FormatError(f"{what} needs comma-separated integers, "
                          f"got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="keisler-lab",
                     description="Finite-scale measure and witness "
                                 "experiments with verifiable reports.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="resolve a structure spec and certify it")
    p.add_argument("spec", help="gen:n:r:s:seed=K | circulant:n:d1,d2 | "
                                "searchalpha:n:s:target:budget:seed=K | "
                                "tp2grid:k | file:PATH")
    p.add_argument("--output", help="report path (default stdout)")
    p.add_argument("--structure-out", help="also write the bare structure")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="greedy splitting colouring with the "
                                     "exact guarantee")
    p.add_argument("--input", required=True,
                   help="weighted hypergraph JSON file")
    p.add_argument("--brute", action="store_true",
                   help="also enumerate all colourings (small inputs)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("fam", help="average approximation of the isolated "
                                   "vertex type")
    p.add_argument("--phi", required=True, help="formula in the quantifier-"
                                                "free DSL")
    p.add_argument("--epsilon", required=True, help="rational a/b")
    p.add_argument("--graph", required=True, help="sample graph spec")
    p.add_argument("--ambient", required=True, help="ambient graph spec")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--budget", type=int, help="embedding search node budget")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fam)

    p = sub.add_parser("adversary", help="vertex falsifying the no-edge "
                                         "formula on a guaranteed fraction")
    p.add_argument("--ambient", required=True)
    p.add_argument("--n", type=int, required=True, help="number of tuples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--r", type=int, help="must match the ambient arity")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("satprobe", help="search a subset for a tuple with "
                                        "no edge through the parameters")
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
    p.set_defaults(func=_cmd_satprobe)

    p = sub.add_parser("tp2", help="grid rows inconsistent, paths consistent")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", help="prebuilt structure JSON (default: "
                                   "constructor grid)")
    p.add_argument("--sample", type=int, help="check this many sampled paths")
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_tp2)

    p = sub.add_parser("order", help="alternating link pattern witness")
    p.add_argument("--ambient", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("check-measures", help="seeded self-test of the "
                                              "measure algebra")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_check_measures)

    p = sub.add_parser("verify", help="recompute a report's certifications")
    p.add_argument("report", help="report JSON path")
    p.add_argument("--input", action="append",
                   help="override an input source as name=path")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    raise SystemExit(run())


if __name__ == "__main__":
    main()
