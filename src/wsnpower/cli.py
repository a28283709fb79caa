"""Command-line batch driver: topology generation, config validation,
scenario runs, and mode-to-mode comparison.

Exit codes: 0 success, 2 bad input (every check on a config, flag, layout
file or report raises ``ValueError``, as does one of those files that
cannot be read), 1 IO failures writing outputs.
"""

import argparse
import json
import sys

from . import experiment, topology
from .channel import _number


def _parse_modes(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_generate_topology(args) -> int:
    topo = topology.random_topology(args.nodes, area=args.area, seed=args.seed)
    if args.out:
        topology.save_topology(topo, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(topology.topology_to_json_dict(topo), indent=2, sort_keys=True))
    return 0


def _reject_constant(name):
    raise ValueError(f"config holds the non-finite number {name}; every number must be finite")


def _load_config(args) -> experiment.ScenarioConfig:
    """The checked config of ``--config``: a JSON object without the NaN and
    +-Infinity literals that Python's ``json`` accepts by default.  ``run``'s
    ``--modes`` and ``--seed-override`` are written into it first, so that
    ``validate_config`` checks them with the rest."""
    data = topology._read_json(args.config, parse_constant=_reject_constant)
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    if args.modes is not None:
        data["modes"] = list(_parse_modes(args.modes))
    if args.seed_override is not None:
        # One switch re-seeds the whole scenario: layout, shadowing, traffic.
        defaults = experiment.ScenarioConfig().to_json_dict()
        for key in ("topology", "path_loss", "traffic"):
            section = data.get(key, defaults[key])
            if isinstance(section, dict) and "file" not in section:
                data[key] = {**section, "seed": args.seed_override}
    config, message = experiment.validate_config(data)
    if config is None:
        raise ValueError(message)
    return config


def _cmd_validate(args) -> int:
    _load_config(args)
    print("ok")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = experiment.run_scenario(config)
    created = experiment.emit(report, args.out)
    if not report.full_power_connected:
        print("WARNING: full-power adjacency is disconnected; "
              "degree constraints cannot be met network-wide", file=sys.stderr)
    for mode in config.modes:
        sec = report.sections[mode]
        print(f"{mode}: avg_prr={sec.metrics.avg_prr:.4f} "
              f"relative_energy={sec.metrics.relative_energy:.4f} "
              f"converged={sec.result.converged} sweeps={sec.result.sweeps_used}")
    for path in created:
        print(f"wrote {path}")
    return 0


def _json_object(value, where):
    if not isinstance(value, dict):
        raise ValueError(f"{where} is not a JSON object")
    return value


def _section_from_report(path, mode):
    """The (digest, analytic avg PRR, avg PRR, relative energy) of one mode
    of a report whose ``schema_version`` is ``experiment.SCHEMA_VERSION``.
    Each number passes the number rule, ``channel._number``, so a string, a
    bool, or a NaN or Infinity literal is rejected naming its field."""
    report = f"report {path}"
    data = _json_object(topology._read_json(path), report)
    version = _number(data.get("schema_version"), f"{report} schema_version", integral=True)
    if version != experiment.SCHEMA_VERSION:
        raise ValueError(f"{report} schema_version is {version}; this wsnpower reads "
                         f"{experiment.SCHEMA_VERSION}")
    sections = _json_object(data.get("modes", {}), f"{report} modes")
    if mode not in sections:
        raise ValueError(f"{report} has no mode {mode!r}; available: {sorted(sections)}")
    where = f"{report} mode {mode!r}"
    sec = _json_object(sections[mode], where)
    try:
        metrics = _json_object(sec["metrics"], f"{where} metrics")
        fields = (("analytic_avg_prr", sec["analytic_avg_prr"]),
                  ("metrics avg_prr", metrics["avg_prr"]),
                  ("metrics relative_energy", metrics["relative_energy"]))
        digest = sec["topology_digest"]
    except KeyError as exc:
        raise ValueError(f"{where} has no {exc} field") from None
    return (digest, *(_number(value, f"{where} {name}") for name, value in fields))


def _cmd_compare(args) -> int:
    modes = _parse_modes(args.modes)
    if len(modes) != 2:
        raise ValueError("--modes needs exactly two comma-separated mode names")
    deltas = experiment._mode_deltas(_section_from_report(args.report, modes[0]),
                                     _section_from_report(args.report_b or args.report,
                                                          modes[1]))
    payload = json.dumps(deltas, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnpower",
        description="Game-based transmit power control: scenario runner and tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-topology", help="write a random node layout as JSON")
    p.add_argument("--nodes", type=int, default=80)
    p.add_argument("--area", type=float, nargs=2, default=[100.0, 100.0],
                   metavar=("WIDTH", "HEIGHT"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_generate_topology)

    p = sub.add_parser("validate", help="check a scenario config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate, modes=None, seed_override=None)

    p = sub.add_parser("run", help="run a scenario and emit reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--modes", help="comma-separated subset of modes to run")
    p.add_argument("--seed-override", type=int, default=None,
                   help="re-seed topology, shadowing, and traffic")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="delta summary between two report mode sections")
    p.add_argument("--report", required=True, help="report.json path")
    p.add_argument("--report-b", help="second report (defaults to --report)")
    p.add_argument("--modes", required=True, help="MODE_A,MODE_B")
    p.add_argument("--out", help="write deltas to a file instead of stdout")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())