"""Signoff extras: scan insertion, hold fixing, IR drop, artifact export.

Everything a production hand-off needs beyond the paper's core PPA
numbers, demonstrated on the FIR-filter design:

1. insert a scan chain (DFT) and verify functional mode is unchanged,
2. run the full dual-sided flow,
3. check hold timing and fix violations with delay buffers,
4. check static IR drop of the Power-Tap-Cell PDN,
5. export the LEF/DEF/SPEF/Liberty/Verilog/report file set.

Run with::

    python examples/signoff_extras.py [output_dir]
"""

import sys
import tempfile

from repro.analysis import layout_summary
from repro.core import FlowConfig, run_flow, save_artifacts
from repro.netlist import check_equivalence, parse_verilog, write_verilog
from repro.pnr import analyze_ir_drop
from repro.sta import TimingGraph, analyze_hold, fix_hold
from repro.synth import generate_fir_filter, insert_scan_chain


def main() -> None:
    config = FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                        utilization=0.70, target_frequency_ghz=1.5)

    # Scan insertion happens pre-flow, like DFT in a synthesis netlist.
    def factory():
        from repro.core import prepare_library

        library = prepare_library(config)
        netlist = generate_fir_filter(taps=4, width=6)
        netlist.bind(library)
        reference = parse_verilog(write_verilog(netlist))
        reference.bind(library)
        report = insert_scan_chain(netlist, library)
        print(f"scan: stitched {report.flops} flops "
              f"({report.scan_in} -> {report.scan_out})")
        equivalence = check_equivalence(
            netlist, reference, library, vectors=16,
            extra_inputs={"scan_en": False, "scan_in": False},
        )
        assert equivalence.equivalent, "scan broke functional mode!"
        print("scan: functional mode verified equivalent")
        return netlist

    artifacts = run_flow(factory, config, return_artifacts=True)
    print()
    print(layout_summary(artifacts))

    # Hold signoff: analyze, fix with delay buffers, re-check, all on
    # one timing graph of the routed netlist.
    graph = TimingGraph(artifacts.netlist, artifacts.library)
    hold = analyze_hold(artifacts.netlist, artifacts.library,
                        artifacts.extraction, graph=graph)
    print(f"\nhold: {hold.violations}/{hold.endpoint_count} violations, "
          f"worst {hold.worst_slack_ps:+.2f} ps")
    if not hold.met:
        fixed = fix_hold(artifacts.netlist, artifacts.library,
                         artifacts.extraction,
                         placement=artifacts.placement, graph=graph)
        buffers = sum(1 for n in artifacts.netlist.instances
                      if n.startswith("holdbuf_"))
        print(f"hold: inserted {buffers} delay buffers, "
              f"worst now {fixed.worst_slack_ps:+.2f} ps "
              f"({'closed' if fixed.met else 'still violating'})")

    # IR-drop signoff on the frontside VSS rails (Power Tap Cells).
    ir = analyze_ir_drop(artifacts.netlist, artifacts.library,
                         artifacts.placement, artifacts.powerplan,
                         artifacts.result.total_power_mw)
    print(f"\nIR drop (VSS): worst {ir.worst_drop_mv:.2f} mV "
          f"({ir.worst_drop_fraction:.2%} of VDD) "
          f"{'OK' if ir.ok else 'VIOLATION'}")

    directory = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="ffet_signoff_")
    files = save_artifacts(artifacts, directory)
    print(f"\nwrote {len(files)} hand-off files to {directory}")


if __name__ == "__main__":
    main()
