"""Command-line interface.

One subcommand per capability; machine output is a single JSON document on
stdout.  Exit codes: 0 for success and positive verdicts, 1 for negative
verdicts (not a preserver, not canonical, failed suite), 2 for usage or input
errors, 3 for an inconclusive (unknown) verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .density import (
    constant_one,
    entry_constraint,
    lift_rank,
    subpermanent_constraint,
)
from .errors import DecompositionError, InvalidRange, NotBijectiveMap, PermrankError
from .fields import QQ, PrimeField, field_from_name
from .harness import (
    verify_converse_sampled,
    verify_density_chain,
    verify_forward_exhaustive,
    verify_invariance,
    verify_theta,
)
from .matrices import Permutation, matrix_from_json, matrix_to_json
from .permanent import per_fast, prk
from .preserver import (
    NOT_BIJECTIVE,
    NOT_PRESERVER,
    PRESERVER,
    CanonicalPreserver,
    canonical_to_json,
    check_equality_variant,
    check_preserves,
    compose_canonical,
    decompose,
    linear_map_from_json,
    linear_map_to_json,
    verdict_to_json,
)
from .subspace import SubspaceBasis, classify_maximal
from .theta import build_theta, build_theta_hat, graph_json, to_dot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_matrix(path: str):
    return matrix_from_json(_load_json(path))


def _load_map(path: str):
    return linear_map_from_json(_load_json(path))


def _parse_int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise InvalidRange(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permrank",
        description="Exact permanental rank computations and preserver decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("per", help="permanent of a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("prk", help="permanental rank (optionally with witness)")
    p.add_argument("matrix")
    p.add_argument("--witness", action="store_true", help="emit the witness JSON")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify-subspace", help="recognize a maximal bounded-rank subspace")
    p.add_argument("basis", help="JSON list of matrix objects")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("theta", help="maximal subspace graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--hat", action="store_true", help="threshold subgraph only")
    p.add_argument("--format", choices=("human", "json", "dot"), default="human")

    p = sub.add_parser("compose", help="build a canonical preserver operator")
    p.add_argument("--field", required=True, help='"Q" or "Fp:<p>"')
    p.add_argument("--d1", required=True, help="comma-separated nonzero scalars")
    p.add_argument("--sigma1", required=True, help="comma-separated images, 1-based")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--sigma2", required=True)
    p.add_argument("--d2", required=True)

    p = sub.add_parser("decompose", help="canonical tuple of an operator")
    p.add_argument("map", help="linear map JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-preserver", help="decide the preserver property")
    p.add_argument("map")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--mode", choices=("structural", "exhaustive", "sample"), default="structural"
    )
    p.add_argument("--equality", action="store_true", help="two-sided variant")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lift", help="raise permanental rank by one (rationals)")
    p.add_argument("matrix")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument(
        "--constraint",
        default="one",
        help='"one", "entry:i,j", or "perminor:<rows>:<cols>" (comma-separated sets)',
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=("invariance", "thm12-forward", "thm12-converse", "theta", "density"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")

    return parser


def _parse_constraint(spec: str):
    parts = spec.split(":")
    if parts[0] == "one" and len(parts) == 1:
        return constant_one()
    if parts[0] == "entry" and len(parts) == 2:
        position = _parse_int_list(parts[1])
        if len(position) == 2:
            return entry_constraint(*position)
    if parts[0] == "perminor" and len(parts) == 3:
        return subpermanent_constraint(_parse_int_list(parts[1]), _parse_int_list(parts[2]))
    raise PermrankError(f"unknown constraint spec {spec!r}")


def _require_seed(args, parser, what: str) -> int:
    if args.seed is None:
        if args.json:
            parser.error(f"--seed is required with --json for {what}")
        return 0
    return args.seed


def _cmd_per(args, parser) -> int:
    value = per_fast(_load_matrix(args.matrix))
    if args.json:
        _emit_json({"per": str(value)})
    else:
        print(value)
    return EXIT_OK


def _cmd_prk(args, parser) -> int:
    witness = prk(_load_matrix(args.matrix))
    if args.witness:
        _emit_json(
            {"rank": witness.rank, "I": list(witness.row_set), "J": list(witness.col_set)}
        )
    elif args.json:
        _emit_json({"rank": witness.rank})
    else:
        print(witness.rank)
    return EXIT_OK


def _cmd_classify_subspace(args, parser) -> int:
    docs = _load_json(args.basis)
    if not isinstance(docs, list):
        raise PermrankError("basis file must hold a JSON list of matrices")
    mats = [matrix_from_json(d) for d in docs]
    if not mats:
        raise PermrankError("basis file holds no matrices")
    v = SubspaceBasis.span(mats[0].rows, mats[0].field, mats)
    result = classify_maximal(v, args.k)
    if result is None:
        if args.json:
            _emit_json({"classification": "not_canonical"})
        else:
            print("not canonical")
        return EXIT_NEGATIVE
    if args.json:
        _emit_json(
            {"classification": result.orientation, "support": list(result.support)}
        )
    else:
        print(f"{result.orientation} {{{','.join(map(str, result.support))}}}")
    return EXIT_OK


def _cmd_theta(args, parser) -> int:
    graph = build_theta(args.n, args.k)
    obj = build_theta_hat(graph) if args.hat else graph
    if args.format == "dot":
        sys.stdout.write(to_dot(obj))
    elif args.format == "json":
        _emit_json(graph_json(obj))
    else:
        doc = graph_json(obj)
        print(f"vertices: {len(doc['vertices'])}")
        print(f"edges: {len(doc['edges'])}")
        print(f"components: {len(doc['components'])}")
        for comp in doc["components"]:
            print("  " + " ".join(comp))
    return EXIT_OK


def _cmd_compose(args, parser) -> int:
    field = field_from_name(args.field)
    cp = CanonicalPreserver(
        d1=tuple(field(v) for v in args.d1.split(",")),
        sigma1=Permutation(_parse_int_list(args.sigma1)),
        transpose_flag=args.transpose,
        sigma2=Permutation(_parse_int_list(args.sigma2)),
        d2=tuple(field(v) for v in args.d2.split(",")),
    )
    _emit_json(linear_map_to_json(compose_canonical(cp)))
    return EXIT_OK


def _cmd_decompose(args, parser) -> int:
    tmap = _load_map(args.map)
    try:
        cp = decompose(tmap, args.k)
    except (DecompositionError, NotBijectiveMap) as exc:
        if args.json:
            _emit_json({"error": type(exc).__name__, "detail": str(exc)})
        else:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit_json(canonical_to_json(cp))
    return EXIT_OK


def _cmd_check_preserver(args, parser) -> int:
    tmap = _load_map(args.map)
    seed = args.seed
    if seed is None:
        if args.json and args.mode == "sample":
            parser.error("--seed is required with --json in sample mode")
        seed = 0
    check = check_equality_variant if args.equality else check_preserves
    verdict = check(tmap, args.k, mode=args.mode, samples=args.samples, seed=seed)
    doc = verdict_to_json(verdict)
    if args.json:
        _emit_json(doc)
    else:
        print(f"verdict: {verdict.kind}")
        if verdict.detail:
            print(f"detail: {verdict.detail}")
        if verdict.canonical is not None:
            _emit_json(canonical_to_json(verdict.canonical))
        if verdict.counterexample is not None:
            _emit_json(matrix_to_json(verdict.counterexample))
    if verdict.kind == PRESERVER:
        return EXIT_OK
    if verdict.kind in (NOT_PRESERVER, NOT_BIJECTIVE):
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _cmd_lift(args, parser) -> int:
    a = _load_matrix(args.matrix)
    constraint = _parse_constraint(args.constraint)
    position = None
    if (args.i is None) != (args.j is None):
        parser.error("--i and --j must be given together")
    if args.i is not None:
        position = (args.i, args.j)
    _emit_json(matrix_to_json(lift_rank(a, constraint, position)))
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    suite = args.suite
    p = 3 if args.p is None else args.p
    # the suite signatures hold the default trial counts
    trials = {} if args.trials is None else {"trials": args.trials}
    if suite == "invariance":
        field = QQ if args.p is None else PrimeField(args.p)
        seed = _require_seed(args, parser, "randomized suites")
        report = verify_invariance(args.n, field, seed=seed, **trials)
    elif suite == "thm12-forward":
        if args.k is None:
            parser.error("--k is required for this suite")
        report = verify_forward_exhaustive(args.n, args.k, p)
    elif suite == "thm12-converse":
        if args.k is None:
            parser.error("--k is required for this suite")
        seed = _require_seed(args, parser, "randomized suites")
        report = verify_converse_sampled(args.n, args.k, p, seed=seed, **trials)
    elif suite == "theta":
        if args.k is None:
            parser.error("--k is required for this suite")
        report = verify_theta(args.n, args.k)
    else:  # density
        if args.k is None:
            parser.error("--k is required for this suite")
        seed = _require_seed(args, parser, "randomized suites")
        report = verify_density_chain(args.n, args.k, seed=seed, **trials)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"suite: {report.suite}")
        print(f"params: {report.params}")
        print(f"cases: {report.cases}")
        print(f"failures: {len(report.failures)}")
        print(f"seconds: {report.seconds:.2f}")
        for failure in report.failures[:5]:
            print(f"  {failure}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


_HANDLERS = {
    "per": _cmd_per,
    "prk": _cmd_prk,
    "classify-subspace": _cmd_classify_subspace,
    "theta": _cmd_theta,
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "check-preserver": _cmd_check_preserver,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, parser)
    except PermrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
