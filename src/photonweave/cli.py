"""Command-line front end: simulate, classify, verify, montecarlo, export.

Every verb emits a self-describing JSON report that echoes its inputs;
identical commands (and seeds) produce byte-identical reports except for
the timing field.  Exit codes: 0 success (and pass, where applicable),
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from . import minors, optics as po, protocols as pr
from .graphs import (Graph, InputShapeError, graph_as_dict, graph_from_json, graph_to_dot,
                     graph_to_json)
from .verify import SUITES, run_suite

SCHEMA_VERSION = "1"

class UsageError(Exception):
    pass


def _round_floats(value):
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def stable_json(payload: dict) -> str:
    """Strict JSON (RFC 8259): a NaN or an infinity raises ValueError rather than print."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def protocol_result_as_dict(res: pr.ProtocolResult) -> dict:
    return {
        "protocol": res.protocol,
        "final_graph": graph_as_dict(res.final_graph),
        "probability": {
            "exponent": res.success_exponent,
            "value": float(res.success_probability),
        },
        "measurement_record": [list(item) for item in res.measurement_record],
        "m_minus": res.m_minus,
        "corrections": [list(item) for item in res.corrections],
        "resources": dict(sorted(res.resources.items())),
    }


def _write(text: str, path: str) -> None:
    """Write an output file: the report, a CSV log or an exported artifact.

    A bare filename goes under ``$PHOTONWEAVE_OUT_DIR`` when that is set.
    Missing directories are created, and the file appears whole, with the
    umask's default mode, or not at all.
    """
    if not os.path.dirname(path):
        path = os.path.join(os.environ.get("PHOTONWEAVE_OUT_DIR", ""), path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report(verb: str, command: dict, results: dict, passed: bool | None, t0: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"verb": verb, **command},
        "results": results,
        "pass": passed,
        "timing_seconds": time.time() - t0,
    }


#: the flag of each request key whose name differs; the other keys are their own flags
_FLAG_OF = {"M": "users", "keep_server_ends": "keep_ends"}
#: how a flag's text becomes its request value; the other values pass as parsed
_PARSE = {"layout": lambda text: text.split(","), "blocks": lambda text: text.split(","),
          "plan": list}
#: the flags each ``verify`` suite reads; the other suites, and ``all``, read none
_SUITE_FLAGS = {"appendix-b": ("n",), "monte-carlo": ("trials", "seed")}
#: ``simulate`` echoes these protocol flags only when they are set
_ECHO_WHEN_SET = ("outcomes", "keep_ends")
#: request keys named even when their switch is unset (``montecarlo`` reports echo ``close``)
_NAMED_WHEN_UNSET = ("close",)


def _is_set(value) -> bool:
    return value is not None and value is not False


def _reject_unread(args, reads: tuple[str, ...], what: str) -> None:
    """Raise ``UsageError`` for any flag set on the command line that ``what`` does not read."""
    for flag, value in vars(args).items():
        if flag in ("verb", "protocol", "suite", "out") or flag in reads:
            continue
        if _is_set(value):
            raise UsageError(f"{what} does not read --{flag.replace('_', '-')}")


def _request(args, also_reads: tuple[str, ...]) -> tuple[dict, tuple[str, ...]]:
    """The protocol request named by ``simulate``/``montecarlo`` flags, and the flags it reads.

    Each request key the protocol reads (``protocols.REQUESTS``) comes from
    its flag; ``run_request`` checks its keys and the runner their values.
    """
    _, required, optional = pr.REQUESTS[args.protocol]
    flags = {key: _FLAG_OF.get(key, key) for key in required + optional}
    _reject_unread(args, (*flags.values(), *also_reads), f"the {args.protocol} protocol")
    request = {"protocol": args.protocol}
    for key, flag in flags.items():
        value = getattr(args, flag, None)  # montecarlo has no --outcomes or --keep-ends
        if _is_set(value) or key in _NAMED_WHEN_UNSET:
            request[key] = _PARSE[key](value) if key in _PARSE else value
    return request, tuple(flags.values())


# -- verbs ---------------------------------------------------------------------

#: a failed chain's result: the empty graph at no cost
_FAILED_CHAIN_RESULT = protocol_result_as_dict(pr.ProtocolResult("chain", Graph([]), 0, (), ()))


def _cmd_simulate(args) -> tuple[dict, bool | None, dict]:
    seed = ("seed",) if args.protocol == "chain" else ()
    request, flags = _request(args, also_reads=seed)
    if seed and args.seed is None:
        raise UsageError("--seed is required when fusions are sampled")
    command = {"protocol": args.protocol}
    command.update((flag, getattr(args, flag)) for flag in (*flags, *seed)
                   if flag not in _ECHO_WHEN_SET or _is_set(getattr(args, flag)))
    if not seed:
        return command, True, {"result": protocol_result_as_dict(pr.run_request(request))}
    coins = iter(partial(np.random.default_rng(args.seed).integers, 0, 2), None)  # fusion coins
    res = pr.run_request(request, coins)
    results = {
        "chain": {
            "succeeded": res.succeeded,
            "blocks_consumed": res.blocks_consumed,
            "bell_pairs_used": res.bell_pairs_used,
            "fusion_attempts": res.fusion_attempts,
        },
        "result": protocol_result_as_dict(res.result) if res.succeeded else _FAILED_CHAIN_RESULT,
    }
    return command, res.succeeded, results


def _cmd_classify(args) -> tuple[dict, bool | None, dict]:
    if not args.word:
        raise UsageError("--word must be a nonempty string over X/Y/Z")
    if args.open and args.n is not None:
        raise UsageError("--open does not combine with --n: the resource fixes the closure")
    if args.n is None:
        _reject_unread(args, ("word", "open"), "classify without --n")
    resource = args.resource or "zigzag"
    command = {"word": args.word, "resource": resource, "close": not args.open}
    minors.check_word(args.word)
    if args.n is None:
        shape = minors.predict_class(args.word, close=not args.open)
        return command, None, {
            "word": args.word,
            "predicted": shape.label,
            "contiguous_leaves": shape.contiguous_leaves,
        }
    report = minors.crosscheck_report(args.n, args.word, resource)
    command.update(n=args.n, close=minors.spine_leaf_word(resource, args.word)[1])
    return command, report["equivalent"], report


def _cmd_verify(args) -> tuple[dict, bool | None, dict]:
    _reject_unread(args, _SUITE_FLAGS.get(args.suite, ()), f"the {args.suite} suite")
    command = {"suite": args.suite}
    kwargs = {}
    if args.n is not None:
        kwargs["zigzag_sizes"] = (args.n,)
        command["n"] = args.n
    # a fixed default seed keeps monte-carlo reruns byte-identical; never wall clock
    if args.seed is not None:
        kwargs["seed"] = command["seed"] = args.seed
    if args.trials is not None:
        if args.trials < 1:
            raise UsageError("--trials must be a positive integer")
        kwargs["trials"] = command["trials"] = args.trials
    criteria = run_suite(args.suite, **kwargs)
    results = {"criteria": [asdict(c) for c in criteria]}
    return command, all(c.passed for c in criteria), results


def _cmd_montecarlo(args) -> tuple[dict, bool | None, dict]:
    if args.seed is None:
        raise UsageError("--seed is required for montecarlo")
    if args.trials is None or args.trials < 1:
        raise UsageError("--trials must be a positive integer")
    request, _ = _request(args, also_reads=("trials", "seed", "csv"))
    trial_log: list | None = [] if args.csv else None
    stats = pr.monte_carlo(request, args.trials, args.seed, trial_log=trial_log)
    if args.csv:
        rows = [("trial", "success", *stats.resource_means), *trial_log]
        _write("".join(",".join(str(x) for x in row) + "\n" for row in rows), args.csv)
    command = {
        "protocol": args.protocol,
        "request": request,
        "trials": args.trials,
        "seed": args.seed,
    }
    return command, not stats.flagged, {"stats": stats.as_dict()}


def _cmd_export(args) -> tuple[dict, bool | None, dict]:
    with open(args.infile) as fh:
        text = fh.read()
    payload = json.loads(text)
    command = {"in": os.path.basename(args.infile), "format": args.format}
    keys = payload.keys() if isinstance(payload, dict) else set()
    if {"vertices", "edges"} <= keys:
        g = graph_from_json(text)
        if args.format == "dot":
            content = graph_to_dot(g)
        elif args.format == "json":
            content = graph_to_json(g) + "\n"
        else:
            raise UsageError(f"format {args.format!r} unsupported for graphs")
    elif "terms" in keys:
        state = po.state_from_json(text)
        if args.format == "json":
            content = po.state_to_json(state) + "\n"
        elif args.format == "csv":
            lines = ["occupations,re,im"]
            for term in po.state_to_json_dict(state)["terms"]:
                occ = "|".join(f"{p}:{pol}:{c}" for p, pol, c in term["occupations"])
                re_part, im_part = term["amplitude"]
                lines.append(f"{occ},{format(re_part, '.12g')},{format(im_part, '.12g')}")
            content = "\n".join(lines) + "\n"
        else:
            raise UsageError(f"format {args.format!r} unsupported for states")
    else:
        raise UsageError("input is neither a graph JSON nor a state dump JSON")
    if args.out is not None:  # the artifact goes to --out; the report to stdout either way
        _write(content, args.out)
    return command, None, {"format": args.format, "content": content}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonweave",
        description="Simulate and classify the graph states a photon-weaving server distributes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    # the protocol flags simulate and montecarlo share (see _request);
    # simulate alone reads --outcomes and --keep-ends
    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--protocol", required=True, choices=list(pr.REQUESTS))
    protocol.add_argument("--users", type=int)
    protocol.add_argument("--server", action="store_true", help="server keeps a qubit")
    protocol.add_argument("--layout", help="comma list of spine/leaf per user")
    protocol.add_argument("--close", action="store_true", help="close into a cycle")
    protocol.add_argument("--blocks", help="comma list of path4/star4/three")
    protocol.add_argument("--plan", help="per-joint measurement letters, e.g. 'YY'")
    protocol.add_argument("--seed", type=int)
    protocol.add_argument("--out")

    sim = sub.add_parser("simulate", parents=[protocol],
                         help="run one protocol and report the distributed state")
    sim.add_argument("--outcomes", help="detector outcomes, e.g. '+-+'")
    sim.add_argument("--keep-ends", action="store_true", help="keep outer server photons")

    cls = sub.add_parser("classify", help="classify a measurement word")
    cls.add_argument("--word", required=True)
    cls.add_argument("--resource", choices=list(minors.RESOURCES),
                     help="checked at --n (default zigzag)")
    cls.add_argument("--n", type=int)
    cls.add_argument("--open", action="store_true", help="treat the word as open")
    cls.add_argument("--out")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    ver.add_argument("--n", type=int)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--out")

    mc = sub.add_parser("montecarlo", parents=[protocol], help="seeded Monte Carlo estimation")
    mc.add_argument("--trials", type=int)
    mc.add_argument("--csv", help="write a per-trial CSV log here")

    exp = sub.add_parser("export", help="re-emit a graph or state artifact")
    exp.add_argument("--in", dest="infile", required=True)
    exp.add_argument("--format", required=True, choices=["json", "dot", "csv"])
    exp.add_argument("--out")

    return parser


HANDLERS = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "montecarlo": _cmd_montecarlo,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    t0 = time.time()
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        command, passed, results = HANDLERS[args.verb](args)
        text = stable_json(_report(args.verb, command, results, passed, t0))
        if args.verb == "export" or args.out is None:
            sys.stdout.write(text)
        else:
            _write(text, args.out)
    except (UsageError, InputShapeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed in (True, None) else 1


if __name__ == "__main__":
    sys.exit(main())
