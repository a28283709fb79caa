"""The four-mode comparison on the default 80-node scenario, end to end:
continuous game, rounded solution, native grid game, full-power baseline.

Equivalent shell session:

    wsnpower generate-topology --nodes 80 --seed 0 --out layout.json
    wsnpower validate --config config.json
    wsnpower run --config config.json --out results/
    wsnpower compare --report results/report.json --modes continuous,full-power
"""

import json
import os
import tempfile

from wsnpower import experiment

config = experiment.simulation_default()
print(f"topology: {config.topology_spec['m']} nodes on "
      f"{config.topology_spec['area'][0]:.0f} x {config.topology_spec['area'][1]:.0f} m, "
      f"seed {config.topology_spec['seed']}")
print(f"modes: {', '.join(config.modes)}")

report = experiment.run_scenario(config)
print(f"\ntopology digest: {report.topology_digest}")
print(f"full-power graph connected: {report.full_power_connected}")

print(f"\n{'mode':>20}  {'avg PRR':>8}  {'energy':>7}  {'sweeps':>6}  {'converged'}")
for mode in config.modes:
    sec = report.sections[mode]
    print(f"{mode:>20}  {sec.metrics.avg_prr:8.4f}  "
          f"{sec.metrics.relative_energy:7.4f}  {sec.result.sweeps_used:6d}  "
          f"{sec.result.converged}")

print("\nmode deltas (PRR in percentage points, energy as a fraction):")
for name, entry in sorted(report.deltas.items()):
    print(f"  {name}:")
    print(f"    analytic PRR {entry['delta_analytic_avg_prr_pp']:+.3f} pp, "
          f"empirical PRR {entry['delta_empirical_avg_prr_pp']:+.3f} pp, "
          f"energy {entry['delta_relative_energy']:+.4f}")

with tempfile.TemporaryDirectory() as tmp:
    created = experiment.emit(report, tmp)
    print(f"\nemit wrote {len(created)} files:")
    for path in created:
        print(f"  {os.path.relpath(path, tmp)}")
    with open(os.path.join(tmp, "report.json")) as fh:
        data = json.load(fh)
    cont = data["modes"]["continuous"]
    print(f"\nreport.json carries per-node powers, register ids, traces, and "
          f"metrics per mode ({len(cont['powers'])} power entries for continuous)")

print("\nrunning the same config twice is byte-identical; see the acceptance "
      "tests for the check")