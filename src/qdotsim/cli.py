"""Command-line front door.

Subcommands: resources, channel, teleport, qec, simulate. Every command
emits canonical JSON (stable key order, 17-significant-digit floats) on
stdout and optionally into --out DIR. Exit codes: 0 success, 2 schema,
file or option-value problems, 3 physics/protocol violations, 4 numerical
state errors, 64 unknown subcommand.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import pulses, qec, scenario as scenario_mod
from .device import MaterialParams
from .errors import (
    AdjacencyError,
    BlockadeError,
    ProtocolError,
    QdotsimError,
    RoutingError,
    SchemaError,
    StateError,
)
from .report import dumps_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64

_PHYSICS_ERRORS = (BlockadeError, AdjacencyError, RoutingError, ProtocolError)


@lru_cache(maxsize=64)  # MaterialParams is frozen, so one per (preset, t2) is shared
def _material(preset: str, t2: float | None) -> MaterialParams:
    """--preset and --t2 resolve like a scenario's material field."""
    return scenario_mod.build_material(
        {"preset": preset} if t2 is None else {"preset": preset, "noise": {"T2": t2}})


def _flag(dest: str) -> str:
    """The option that sets args.<dest>; a closed-form option's dest is its analytics field."""
    return {"fidelity_threshold": "--threshold", "rounds": "--purification-rounds"}.get(
        dest, "--" + dest.replace("_", "-"))


_COMMON = ("command", "handler", "preset", "t2", "out", "kind")  # the entries that are no field
_CHANNELS = {"swap": "swap_channel", "tunnel": "tunnel_channel", "teleport": "teleport_bandwidth"}


def _analytics(args, kind: str, label: str) -> dict:
    """The options given to a closed-form command, run as one analytics request of `kind`:
    an option the kind does not read is an unknown field, named by its flag."""
    request = {"kind": kind, **{dest: value for dest, value in vars(args).items()
                                if value is not None and dest not in _COMMON}}
    scenario_mod.check_analytics(request, label, _flag)
    return scenario_mod.run_analytics(request, _material(args.preset, args.t2), label, _flag)


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_report(payload)
    sys.stdout.write(text)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(text)


def cmd_resources(args) -> int:
    _emit({**_analytics(args, "resources", "resources"), "preset": args.preset, "zeeman": {
        "field_ratio_gaas_over_inas_bulk": pulses.equal_splitting_field_ratio(
            pulses.GAAS_G_FACTOR, pulses.INAS_BULK_G_FACTOR),
        "note": "exact equal-splitting ratio; commonly rounded to '30x'",
    }}, args.out)
    return EXIT_OK


def cmd_channel(args) -> int:
    if args.distance_m is None and args.length_qubits is None:
        args.length_qubits = 10  # every kind's default line, teleport's too
    report = _analytics(args, _CHANNELS[args.kind], f"--kind {args.kind}")
    _emit({"kind": args.kind, **report}, args.out)
    return EXIT_OK


def _run_scenario(args, strict: bool | None = None) -> tuple[dict, dict]:
    data = scenario_mod.load_scenario(args.scenario)
    return data, scenario_mod.run_scenario(
        data, shots=args.shots, seed_override=args.seed, strict=strict
    )


def cmd_teleport(args) -> int:
    """Run --scenario; enumerate the bundled teleport.scenario's branches, whatever it names."""
    _, report = _run_scenario(args)
    teleport = resources.files("qdotsim") / "scenarios" / "teleport.scenario"
    branch_check = [{"phase_bit": int(leaf["bits"][0]), "amplitude_bit": int(leaf["bits"][1]),
                     "probability": leaf["probability"],
                     "fidelity": leaf["fidelity_checks"][-1]["payload_fidelity"]}  # the teleport
                    for leaf in scenario_mod.outcome_tree(json.loads(teleport.read_text()))]
    _emit({"run": report, "branch_verification": {
        "payload": "(|0> + i|1>)/sqrt(2)", "branches": branch_check,
        "min_fidelity": min(b["fidelity"] for b in branch_check)}}, args.out)
    return EXIT_OK


def cmd_qec(args) -> int:
    material = _material(args.preset, args.t2)
    if not (0.0 <= args.p <= 1.0 and 0 <= args.cycles <= 2**32
            and 1 <= args.pulses_per_cycle < 2**63 and args.seed >= 0):
        raise SchemaError("need 0 <= --p <= 1, 0 <= --cycles <= 2**32, "
                          "1 <= --pulses-per-cycle < 2**63 and --seed >= 0")
    run = qec.memory_experiment(args.cycles, args.p,
                                np.random.default_rng([args.seed, 0x5EC]),
                                args.pulses_per_cycle)
    counts = qec.syndrome_pulse_counts()
    compiled = [counts[key] for key in run["syndrome_histogram"]]
    payload = {
        "cycles": args.cycles,
        "per_pulse_error_probability": args.p,
        "logical_error_rate": run["failures"] / args.cycles if args.cycles else 0.0,
        "syndrome_histogram": dict(sorted(run["syndrome_histogram"].items())),
        "pulse_counts": {
            "compiled_min": min(compiled, default=0),
            "compiled_max": max(compiled, default=0),
            "conventional_cycle": args.pulses_per_cycle,
            "note": "compiled counts come from the fixed encoder circuit; the "
                    "500-pulse figure is the conventional budget",
        },
        "budget": qec.pulse_budget(material, args.pulses_per_cycle),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    data, report = _run_scenario(args, args.strict or None)
    sys.stdout.write(dumps_report({"scenario_digest": report["scenario_digest"],
                                   "final_clock_s": report["final_clock_s"],
                                   "measurement_counts": report["measurement_counts"]}))
    out_dir = args.out or data.get("output") or "out"
    scenario_mod.write_report(report, out_dir)
    return EXIT_OK


@lru_cache(maxsize=1)  # built once: parsing leaves the parsers unchanged
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="qdotsim",
        description="Quantum-dot array computer simulator",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, handler, material=False, seeded=False):
        p.set_defaults(handler=handler)
        if material:  # scenario runs take their material from the scenario
            p.add_argument("--preset", choices=("inas", "si"), default="inas")
            p.add_argument("--t2", type=float, default=None,
                           help="override T2 in seconds (required for --preset si)")
        if seeded:  # resources and channel are closed-form and draw nothing
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed; simulate/teleport default to the scenario's")
        p.add_argument("--out", default=None, help="directory for report.json")

    p = sub.add_parser("resources", help="Rabi drive and exchange figures")
    common(p, cmd_resources, material=True)
    p.add_argument("--rabi-period", type=float, help="default: the material's, 100 ns")
    p.add_argument("--load-ohms", type=float, help="default 50")

    p = sub.add_parser("channel", help="transport channel figures")
    common(p, cmd_channel, material=True)
    p.add_argument("--kind", choices=tuple(_CHANNELS), default="swap")
    p.add_argument("--length-qubits", type=int, default=None, dest="length_qubits",
                   help="line length (default 10); teleport takes it or --distance-m")
    p.add_argument("--distance-m", type=float, default=None, dest="distance_m")
    p.add_argument("--t-hop", type=float, default=None, dest="t_hop")
    p.add_argument("--lambda", type=float, default=None, dest="lambda")
    p.add_argument("--threshold", type=float, default=None, dest="fidelity_threshold",
                   help="fidelity threshold of the reach (default 1e-4)")
    p.add_argument("--purification-rounds", type=int, default=None, dest="rounds",
                   help="teleport only (default 0, at most 4096)")

    p = sub.add_parser("teleport", help="run the teleportation protocol")
    common(p, cmd_teleport, seeded=True)
    p.add_argument("--scenario", default="teleport.scenario")
    p.add_argument("--shots", type=int, default=1)

    p = sub.add_parser("qec", help="run five-qubit correction cycles")
    common(p, cmd_qec, material=True, seeded=True)
    p.set_defaults(seed=0)
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--p", type=float, default=0.0,
                   help="per-pulse Pauli error probability")
    p.add_argument("--pulses-per-cycle", type=int, default=500,
                   dest="pulses_per_cycle")

    p = sub.add_parser("simulate", help="run a scenario file")
    common(p, cmd_simulate, seeded=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--strict", action="store_true")

    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    ended = argv[:1] == ["--"]  # no top-level options: what follows is the subcommand
    if ended:
        argv = argv[1:]
    if argv and argv[0] in commands:  # parse_args's work, minus its second dispatch
        args, extras = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    elif argv and (ended or not argv[0].startswith("-")):
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"qdotsim: unknown subcommand {argv[0]!r}\n")
        return EXIT_USAGE
    else:  # help, usage and options before any subcommand
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SchemaError(f"{_flag(name)} must be a finite number")
        return args.handler(args)
    except (SchemaError, OSError) as exc:  # OSError: an --out or output that cannot be a directory
        sys.stderr.write(dumps_report({"error": "schema", "message": str(exc)}))
        return EXIT_SCHEMA
    except _PHYSICS_ERRORS as exc:
        sys.stderr.write(dumps_report({"error": "physics", "message": str(exc)}))
        return EXIT_PHYSICS
    except (StateError, QdotsimError) as exc:
        sys.stderr.write(dumps_report({"error": "state", "message": str(exc)}))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
