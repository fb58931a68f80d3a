#!/usr/bin/env python3
"""Print the headline design figures for the InAs dot array in one table.

Usage: python scripts/design_figures.py
"""
from qdotsim.channels import channel_lambda, line_report, teleport_bandwidth
from qdotsim.device import inas_material
from qdotsim.pulses import drive_report, equal_splitting_field_ratio, min_rabi_field
from qdotsim.qec import cycle_pulse_count, pulse_budget


def main():
    material = inas_material()
    drive = drive_report(material.g_factor, material.rabi_period,
                         material.gate_distance)
    rows = [
        ("Rabi drive field", f"{drive['b_ac_tesla'] * 1e6:.1f} uT"),
        ("drive current", f"{drive['i_ac_ampere'] * 1e6:.1f} uA"),
        ("drive voltage", f"{drive['v_ac_volt'] * 1e3:.2f} mV"),
        ("drive power", f"{drive['power_watt'] * 1e9:.1f} nW"),
        ("minimum useful drive field",
         f"{min_rabi_field(material.g_factor, material.noise.T2) * 1e9:.2f} nT"),
        ("equal-splitting field ratio (g 0.44 vs 15)",
         f"{equal_splitting_field_ratio(0.44, 15.0):.2f}"),
        ("swap window (J_on = 5 ueV)", f"{material.t_swap * 1e9:.3f} ns"),
        ("tunnel hop", f"{material.t_hop * 1e12:.1f} ps"),
    ]
    lam_nominal = channel_lambda(1e-10, material.noise.T2)
    line = line_report("swap", material, 10, t_hop=1e-10, lam=lam_nominal)
    reach = line["max_distance_by_threshold"]
    rows += [
        ("per-hop error lambda (1e-10 s hop)", f"{lam_nominal:.2e}"),
        ("swap line, 10 qubits: fidelity", f"{line['fidelity']:.7f}"),
        ("swap line latency / physical bw",
         f"{line['latency_s'] * 1e9:.1f} ns / "
         f"{line['physical_bandwidth_bits_per_s']:.1e} bits/s"),
        ("swap reach @ 1e-4 / 1e-5 threshold",
         f"{reach['1e-4']:.1f} / {reach['1e-5']:.1f} qubits"),
    ]
    tele = teleport_bandwidth(0.01, material, purification_rounds=0)
    rows += [
        ("teleport bandwidth over 1 cm",
         f"{tele['true_bandwidth_bits_per_s']:.3e} bits/s"),
        ("  segments x length",
         f"{tele['n_segments']} x {tele['segment_length_qubits']} qubits"),
    ]
    budget = pulse_budget(material, 500)
    rows += [
        ("correction cycles in one T2 (500-pulse cycle)",
         f"{budget['cycles_in_T2']}"),
        ("compiled cycle pulse count (typical)",
         f"{cycle_pulse_count(1, 2)}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


if __name__ == "__main__":
    main()
