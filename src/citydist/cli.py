"""Command-line interface.

Subcommands: evaluate, compare, optimize, sweep, validate.  Exit codes:
0 success, 2 scenario/validation error, 3 infeasible model, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import import_module

from .model import DomainError, InfeasibleError, ModelError
from .report import emit_report
from .scenario import ScenarioError, load_scenario
from .schemes import LayerMode, compare_schemes

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

# `optimize` and `sweep` import their modules on first use, through this
# module's attributes, so a wrapper set on them (a tracer's) is what runs.
_DEFERRED = {"simulated_annealing": "optimize", "brute_force_grid": "optimize",
             "sweep_parameter": "sweep"}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fn = globals()[name] = getattr(import_module("." + _DEFERRED[name], __package__), name)
    return fn


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citydist",
        description="Evaluate and optimize multi-echelon urban freight distribution schemes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--output", default=None, help="write the report to this file")
        p.add_argument("--format", default="table", choices=("table", "json", "csv"))

    p = sub.add_parser("evaluate", help="KPIs of one scheme")
    add_common(p)
    p.add_argument("--scheme", required=True)

    p = sub.add_parser("compare", help="KPIs of several schemes side by side")
    add_common(p)
    p.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p.add_argument("--baseline", default=None, help="baseline scheme (default: first)")

    p = sub.add_parser("optimize", help="optimize unit-to-vehicle allocation of one layer")
    add_common(p)
    p.add_argument("--scheme", required=True)
    p.add_argument("--layer", type=int, required=True, help="1-based layer number")
    p.add_argument("--vehicles", default=None,
                   help="comma-separated vehicle ids (default: scenario optimization block)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive grid search instead of annealing; above "
                        "its budget, the best vertex allocation")
    p.add_argument("--trace", action="store_true", help="include the best-so-far trace")

    p = sub.add_parser("sweep", help="sweep one numeric parameter of one layer")
    add_common(p)
    p.add_argument("--scheme", required=True)
    p.add_argument("--layer", type=int, required=True, help="1-based layer number")
    p.add_argument("--param", required=True,
                   help="NetworkParams field, or speed_kmh for the fleet speed")
    p.add_argument("--range", required=True, dest="range_",
                   metavar="START:STOP:STEP")

    p = sub.add_parser("validate", help="check a scenario file and exit")
    p.add_argument("--scenario", required=True)
    return parser


def _layer_index(scheme, number: int) -> int:
    if not (1 <= number <= len(scheme.layers)):
        raise DomainError(
            f"scheme '{scheme.name}' has {len(scheme.layers)} layers; got --layer {number}")
    return number - 1


def _entries(flag: str, text: str) -> list[str]:
    """The comma-separated entries of a flag's value; an empty one is refused."""
    entries = text.split(",")
    if "" in entries:
        raise DomainError(f"{flag}: entry {entries.index('') + 1} of {text!r} is empty")
    return entries


def _optimize(args, scenario) -> object:
    from .optimize import GridTooLargeError, vertex_optimum
    scheme = scenario.scheme(args.scheme)
    idx = _layer_index(scheme, args.layer)
    layer = scheme.layers[idx]
    if layer.mode is not LayerMode.ANALYTICAL:
        raise DomainError(f"layer {args.layer} of '{args.scheme}' is not an analytical layer")
    if args.vehicles is None:
        vehicle_ids = scenario.optimization_vehicles
    else:
        vehicle_ids = _entries("--vehicles", args.vehicles)
        for i, v in enumerate(vehicle_ids):
            if v in vehicle_ids[:i]:
                raise DomainError(f"--vehicles: vehicle id '{v}' is given twice")
    if not vehicle_ids:
        raise DomainError("no vehicles given: pass --vehicles or add an "
                          "optimization block to the scenario")
    unknown = [v for v in vehicle_ids if v not in scenario.vehicles]
    if unknown:
        raise DomainError(f"unknown vehicle id(s): {', '.join(unknown)}")
    fleet = [scenario.vehicles[v] for v in vehicle_ids]
    units = [u for a in layer.fleet for u in a.demand.units]
    if not units:
        raise DomainError(f"layer {args.layer} of '{args.scheme}' carries no unit demand")
    config = scenario.sa
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.oracle:
        try:
            return _cli.brute_force_grid(fleet, units, layer.params,
                                         external_factors=scheme.external_factors)
        except GridTooLargeError:
            result = vertex_optimum(fleet, units, layer.params, scheme.external_factors)
            print(f"grid over budget: best of {result.evaluations} vertex allocations",
                  file=sys.stderr)
            return result
    return _cli.simulated_annealing(fleet, units, layer.params, config,
                                    external_factors=scheme.external_factors,
                                    keep_trace=args.trace)


def _sweep(args, scenario) -> object:
    from .sweep import SweepSpec
    scheme = scenario.scheme(args.scheme)
    idx = _layer_index(scheme, args.layer)
    try:
        start, stop, step = (float(x) for x in args.range_.split(":"))
    except ValueError as exc:
        raise DomainError(f"--range must be START:STOP:STEP, got '{args.range_}'") from exc
    return _cli.sweep_parameter(SweepSpec(parameter=args.param, start=start, stop=stop,
                                          step=step, scheme=scheme, layer_index=idx))


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "validate":
            print(f"scenario '{scenario.name}' is valid: "
                  f"{len(scenario.vehicles)} vehicles, {len(scenario.suppliers)} suppliers, "
                  f"schemes: {', '.join(scenario.scheme_names())}")
            return EXIT_OK
        if args.command == "evaluate":
            from .schemes import evaluate_scheme
            report = evaluate_scheme(scenario.scheme(args.scheme))
        elif args.command == "compare":
            names = _entries("--schemes", args.schemes)
            if args.baseline == "":
                raise DomainError("--baseline: the scheme name is empty")
            report = compare_schemes([scenario.scheme(n) for n in names],
                                     baseline_name=args.baseline)
        elif args.command == "optimize":
            report = _optimize(args, scenario)
        else:  # sweep; argparse admits no other command
            report = _sweep(args, scenario)
        try:
            text = emit_report(report, fmt=args.format, path=args.output)
        except OSError as exc:  # emit_report's only I/O is the --output file
            raise DomainError(f"cannot write --output {args.output!r}: "
                              f"{exc.strerror or exc}") from exc
        if args.output is None:
            sys.stdout.write(text)
        return EXIT_OK
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DomainError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    """The process entry point: run the command, flush its output and end
    the process with os._exit, skipping interpreter teardown (module
    clearing, the final garbage collection), which a one-shot process does
    not need.  run() is the in-process API and returns normally.

    This holds because nothing in citydist registers an atexit handler or
    leaves a file open when run() returns: emit_report closes --output in
    its ``with``, and the only buffers left are stdout's and stderr's,
    flushed here.  An exception escaping run(), and argparse's SystemExit
    (--help, a bad subcommand), end the process as usual.  A closed stdout
    (BrokenPipeError from the command or the flush) exits 1 with no
    traceback: stdout is pointed at os.devnull, as the Python docs advise.
    """
    try:
        code = run()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without it
                stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    os._exit(code)


if __name__ == "__main__":
    main()
