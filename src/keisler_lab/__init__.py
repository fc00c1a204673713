"""Exact finite-scale experiments on measures over small structures.

The package builds hypergraphs and parameterized equivalences, computes
finitely supported measures and their products in
exact rational arithmetic, colors weighted hypergraphs with a certified
splitting guarantee, and runs end-to-end witness experiments whose
reports a separate verifier can recompute.
"""

from .structures import (AlphaResult, EmbedResult, Feq2Structure,
                         FreenessViolation, Hypergraph, SearchResult,
                         add_vertex_with_links, alpha_s, build_tp2_grid,
                         cyclic_graph, embed_search, find_clique,
                         grid_object, grid_target, is_free,
                         is_induced_embedding, is_maximal_free,
                         random_maximal_free, search_small_alpha)
from .logic import (And, DisjunctProfile, DnfCapError, Eq, EvalError,
                    FragmentError, Not, ObjectVar, Or, ParamVar, ParseError,
                    PhiAnalysis, PhiPartition, Rel, analyze_phi,
                    compile_mask, evaluate, format_formula, make_assignment,
                    parse_formula, parse_phi, to_dnf, variables)
from .measures import (ApproxReport, FiniteMeasure, SelfTestOutcome,
                       ZeroMassError, localize, make_measure,
                       measure_algebra_selftest, mu_eval, product, sup_error)
from .coloring import (BruteResult, WeightedHypergraph, brute_best,
                       greedy_coloring, guarantee_value, weight_of,
                       weighted_hypergraph)
from .serialize import (FormatError, canonical_dumps, digest, load_structure,
                        load_weighted, parse_rational, parse_structure_spec,
                        structure_from_json, structure_to_json,
                        weighted_from_json, weighted_to_json)
from .witnesses import (Certified, EmbeddingNotFound, GridTooSmall,
                        PreconditionFailed, WitnessReport, adversary_fraction,
                        adversary_witness, build_report, fam_witness,
                        order_witness, sat_probe, tp2_witness)

__version__ = "0.1.0"

__all__ = [
    "AlphaResult", "And", "ApproxReport", "BruteResult", "Certified",
    "DisjunctProfile", "DnfCapError", "EmbedResult", "EmbeddingNotFound",
    "Eq", "EvalError", "Feq2Structure", "FiniteMeasure", "FormatError",
    "FragmentError", "FreenessViolation", "GridTooSmall", "Hypergraph",
    "Not", "ObjectVar", "Or", "ParamVar",
    "ParseError", "PhiAnalysis", "PhiPartition", "PreconditionFailed", "Rel",
    "SearchResult", "SelfTestOutcome", "WeightedHypergraph", "WitnessReport",
    "ZeroMassError", "add_vertex_with_links", "adversary_fraction",
    "adversary_witness", "alpha_s", "analyze_phi", "brute_best",
    "build_report", "build_tp2_grid", "canonical_dumps", "compile_mask",
    "cyclic_graph", "digest",
    "embed_search", "evaluate", "fam_witness", "find_clique",
    "format_formula", "greedy_coloring", "grid_object", "grid_target",
    "guarantee_value", "is_free", "is_induced_embedding", "is_maximal_free",
    "load_structure", "load_weighted", "localize", "make_assignment",
    "make_measure", "measure_algebra_selftest", "mu_eval", "order_witness",
    "parse_formula", "parse_phi", "parse_rational", "parse_structure_spec",
    "product", "random_maximal_free",
    "sat_probe", "search_small_alpha", "structure_from_json",
    "structure_to_json", "sup_error", "to_dnf", "tp2_witness",
    "variables", "weight_of", "weighted_from_json", "weighted_hypergraph",
    "weighted_to_json",
]
