"""Command-line entry points for the experiment pipelines.

Exit codes: 0 clean, 2 resampling budget exhausted, 3 audit failure,
4 input error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .complexes import (
    check_suitable,
    complete_complex,
    load_complex,
    save_complex,
    tensor_with_complete,
)
from .errors import HdxError
from .harness import PRUNE_MODE, _load_graph_input, emit_report, run_experiment
from .pruning import MODES
from .spectral import adjacency_spectrum, eml_discrepancy, converse_eml_bound, is_hdx


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")


def _add_prune_flags(p):
    p.add_argument("--complex", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--genset", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.9)
    p.add_argument("--r", type=float, default=1.5)
    p.add_argument("--c", type=float, default=1.1)
    p.add_argument("--eta", type=float, default=0.3)
    p.add_argument("--max-resamples", type=int, default=10_000)
    p.add_argument("--mode", choices=MODES, default=PRUNE_MODE)
    _add_common(p)


def build_parser():
    ap = argparse.ArgumentParser(prog="hdxcover")
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
    p.add_argument("--c", type=float, default=1.1)
    p.add_argument("--r", type=float, default=1.5)
    p.add_argument("--eta", type=float, default=0.3)

    p = sub.add_parser("verify-hdx")
    p.add_argument("--complex", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, required=True)
    p.add_argument("--mode", choices=("two_sided", "one_sided"), default="two_sided")

    p = sub.add_parser("eml")
    p.add_argument("--graph", required=True)
    p.add_argument("--exact-subset-limit", type=int, default=14)
    p.add_argument("--samples", type=int, default=0,
                   help="use sampled mode with this many draws")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prune")
    _add_prune_flags(p)

    p = sub.add_parser("cover-family")
    _add_prune_flags(p)
    p.add_argument("--index-cap", type=int, default=64)

    p = sub.add_parser("sparsify")
    p.add_argument("--graph", required=True)
    p.add_argument("--p-split", type=float, default=0.3)
    p.add_argument("--p-edge", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)

    p = sub.add_parser("combine")
    p.add_argument("--complex", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p.add_argument("--max-resamples", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("scan-gensets")
    p.add_argument("--group", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--max-size", type=int, default=8)
    _add_common(p)
    return ap


def _prune_params(args):
    return {
        "complex": args.complex,
        "group": args.group,
        "genset": args.genset,
        "lambda": args.lambda_,
        "r": args.r,
        "c": args.c,
        "eta": args.eta,
        "max_resamples": args.max_resamples,
        "mode": args.mode,
    }


def _run_and_emit(kind, params, args):
    report = run_experiment({"kind": kind, "params": params, "seed": args.seed})
    paths = emit_report(report, args.out_dir)
    print(f"status: {report.status}")
    for p in paths:
        print(f"wrote {p}")
    return report.exit_code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "build-complete":
            save_complex(complete_complex(args.n, args.dim), args.out)
            print(f"wrote {args.out}")
            return 0
        if args.command == "tensor":
            result = tensor_with_complete(load_complex(args.complex), args.t)
            save_complex(result.complex, args.out)
            print(f"wrote {args.out} ({len(result.complex.top_faces)} top faces)")
            return 0
        if args.command == "check-suitable":
            rep = check_suitable(load_complex(args.complex), args.c, args.r, args.eta)
            print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
            return 0 if rep.passed else 3
        if args.command == "verify-hdx":
            rep = is_hdx(load_complex(args.complex), args.lambda_, mode=args.mode)
            print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
            return 0 if rep.passes else 3
        if args.command == "eml":
            G = _load_graph_input(args.graph)
            if args.samples:
                rep = eml_discrepancy(G, "sampled", samples=args.samples,
                                      rng=args.seed)
            else:
                rep = eml_discrepancy(G, "exact",
                                      exact_limit=args.exact_subset_limit)
            lam = adjacency_spectrum(G).two_sided
            out = {
                "alpha": rep.alpha,
                "eml_ratio": rep.eml_ratio,
                "two_sided_lambda": lam,
                "converse_bound": converse_eml_bound(rep.alpha)
                if rep.alpha > 0
                else None,
                "exact": rep.exact,
            }
            print(json.dumps(out, sort_keys=True, indent=2))
            return 0
        if args.command == "prune":
            return _run_and_emit("prune", _prune_params(args), args)
        if args.command == "cover-family":
            params = _prune_params(args)
            params["index_cap"] = args.index_cap
            return _run_and_emit("cover-family", params, args)
        if args.command == "sparsify":
            params = {
                "graph": args.graph,
                "p_split": args.p_split,
                "p_edge": args.p_edge,
                "trials": args.trials,
            }
            return _run_and_emit("sparsify", params, args)
        if args.command == "combine":
            params = {
                "complex": args.complex,
                "target": args.target,
                "max_resamples": args.max_resamples,
            }
            if args.lambda_ is not None:
                params["lambda"] = args.lambda_
            return _run_and_emit("combine", params, args)
        if args.command == "scan-gensets":
            params = {
                "group": args.group,
                "dim": args.dim,
                "max_size": args.max_size,
            }
            if args.eta is not None:
                params["eta"] = args.eta
            return _run_and_emit("scan", params, args)
    except HdxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
