"""Command-line batch driver: topology generation, config validation,
scenario runs, and mode-to-mode comparison.

Exit codes: 0 success, 2 config/usage errors, 1 IO or unexpected failures.
"""

import argparse
import dataclasses
import json
import sys

from . import experiment, topology


def _parse_modes(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_generate_topology(args) -> int:
    topo = topology.random_topology(args.nodes, area=tuple(args.area), seed=args.seed)
    payload = json.dumps(topology.topology_to_json_dict(topo), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


def _load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_validate(args) -> int:
    try:
        data = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok, message = experiment.validate_config(data)
    print(message)
    return 0 if ok else 2


def _cmd_run(args) -> int:
    try:
        data = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.modes:
        data["modes"] = list(_parse_modes(args.modes))
    ok, message = experiment.validate_config(data)
    if not ok:
        print(f"error: {message}", file=sys.stderr)
        return 2
    config = experiment.ScenarioConfig.from_json_dict(data)
    if args.seed_override is not None:
        # One switch re-seeds the whole scenario: layout, shadowing, traffic.
        spec = dict(config.topology_spec)
        if "file" not in spec:
            spec["seed"] = args.seed_override
        config.topology_spec = spec
        config.path_loss = dataclasses.replace(config.path_loss, seed=args.seed_override)
        config.traffic = dataclasses.replace(config.traffic, seed=args.seed_override)
    try:
        report = experiment.run_scenario(config)
    except ValueError as exc:  # e.g. an update_order that misfits a topology file
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def _section_from_report(path, mode):
    """The (digest, analytic avg PRR, avg PRR, relative energy) of one mode."""
    with open(path) as fh:
        data = json.load(fh)
    sections = data.get("modes", {})
    if mode not in sections:
        raise ValueError(f"report {path} has no mode {mode!r}; "
                         f"available: {sorted(sections)}")
    sec = sections[mode]
    return (sec["topology_digest"], sec["analytic_avg_prr"], sec["metrics"]["avg_prr"],
            sec["metrics"]["relative_energy"])


def _cmd_compare(args) -> int:
    modes = _parse_modes(args.modes)
    if len(modes) != 2:
        print("error: --modes needs exactly two comma-separated mode names",
              file=sys.stderr)
        return 2
    report_b = args.report_b or args.report
    try:
        deltas = experiment._mode_deltas(_section_from_report(args.report, modes[0]),
                                         _section_from_report(report_b, modes[1]))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    p.set_defaults(func=_cmd_validate)

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())