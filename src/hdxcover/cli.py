"""Command-line entry points for the experiment pipelines.

Exit codes: 0 clean, 2 resampling budget exhausted, 3 audit failure,
4 input error, a bad flag as a bad spec.  Each pipeline command's flags
are its spec keys in `harness.PARAMS`, with dashes for underscores.
"""
from __future__ import annotations

import argparse
import json
import sys

from .complexes import check_suitable, complete_complex, save_complex, tensor_with_complete
from .harness import (DERIVED, EXIT_AUDIT, EXIT_CLEAN, EXIT_INPUT, INPUT, INPUT_ERRORS, PARAMS,
                      emit_report, load_complex_input, load_graph_input, run_experiment)
from .spectral import adjacency_spectrum, eml_discrepancy, converse_eml_bound, is_hdx

# the pipeline each pipeline command runs
PIPELINE_COMMANDS = {"prune": "prune", "cover-family": "cover-family",
                     "sparsify": "sparsify", "combine": "combine",
                     "scan-gensets": "scan"}


def _add_param_flag(p, key, default):
    flag = "--" + key.replace("_", "-")
    if default is INPUT:
        p.add_argument(flag, dest=key, required=True)
    else:
        kind = float if default is DERIVED else type(default)
        p.add_argument(flag, dest=key, type=kind, default=default)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, whose errors exit
    EXIT_INPUT rather than argparse's 2, the budget-exhausted code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(prog="hdxcover")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-complete", help="write a complete complex JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tensor", help="tensor a complex with a complete complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check-suitable")
    p.add_argument("--complex", required=True)
    for key in ("c", "r", "eta"):
        _add_param_flag(p, key, PARAMS["prune"][key])

    p = sub.add_parser("verify-hdx")
    p.add_argument("--complex", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, required=True)
    p.add_argument("--mode", default="two_sided")

    p = sub.add_parser("eml")
    p.add_argument("--graph", required=True)
    p.add_argument("--exact-subset-limit", type=int, default=14)
    p.add_argument("--samples", type=int, default=0,
                   help="use sampled mode with this many draws")
    p.add_argument("--seed", type=int, default=0)

    for command, kind in PIPELINE_COMMANDS.items():
        p = sub.add_parser(command, help=f"run the {kind} pipeline")
        for key, default in PARAMS[kind].items():
            _add_param_flag(p, key, default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="out")
    return ap


def _run_pipeline(args):
    """Run a pipeline command's spec, every flag with a value as a param."""
    kind = PIPELINE_COMMANDS[args.command]
    given = vars(args)
    params = {key: given[key] for key in PARAMS[kind] if given[key] is not None}
    report = run_experiment({"kind": kind, "params": params, "seed": args.seed})
    paths = emit_report(report, args.out_dir)
    print(f"status: {report.status}")
    for p in paths:
        print(f"wrote {p}")
    return report.exit_code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command in PIPELINE_COMMANDS:
            return _run_pipeline(args)
        if args.command == "build-complete":
            save_complex(complete_complex(args.n, args.dim), args.out)
            print(f"wrote {args.out}")
            return EXIT_CLEAN
        if args.command == "tensor":
            result = tensor_with_complete(load_complex_input(args.complex), args.t)
            save_complex(result.complex, args.out)
            print(f"wrote {args.out} ({len(result.complex.top_faces)} top faces)")
            return EXIT_CLEAN
        if args.command == "check-suitable":
            rep = check_suitable(load_complex_input(args.complex), args.c, args.r, args.eta)
            print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
            return EXIT_CLEAN if rep.passed else EXIT_AUDIT
        if args.command == "verify-hdx":
            rep = is_hdx(load_complex_input(args.complex), args.lambda_, mode=args.mode)
            print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
            return EXIT_CLEAN if rep.passes else EXIT_AUDIT
        # eml
        G = load_graph_input(args.graph)
        if args.samples:
            rep = eml_discrepancy(G, "sampled", samples=args.samples, rng=args.seed)
        else:
            rep = eml_discrepancy(G, "exact", exact_limit=args.exact_subset_limit)
        out = {
            "alpha": rep.alpha,
            "eml_ratio": rep.eml_ratio,
            "two_sided_lambda": adjacency_spectrum(G).two_sided,
            "converse_bound": converse_eml_bound(rep.alpha) if rep.alpha > 0 else None,
            "exact": rep.exact,
        }
        print(json.dumps(out, sort_keys=True, indent=2))
        return EXIT_CLEAN
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
