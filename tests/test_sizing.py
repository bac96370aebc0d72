"""High-fanout buffering and timing-driven sizing tests."""

import signal

import pytest

from repro.netlist import Netlist
from repro.synth import (
    RiscvConfig,
    buffer_high_fanout,
    generate_riscv_core,
    size_for_target,
)

from .reference import synth as reference


def high_fanout_netlist(fanout=50):
    nl = Netlist("hifan")
    nl.add_net("clk", primary_input=True, clock=True)
    nl.add_net("a", primary_input=True)
    nl.add_instance("drv", "INVD1", {"A": "a", "ZN": "big"})
    for i in range(fanout):
        nl.add_instance(f"ff{i}", "DFFD1",
                        {"D": "big", "CK": "clk", "Q": f"q{i}"})
        nl.add_net(f"q{i}", primary_output=True)
    return nl


class TestFanoutBuffering:
    def test_fanout_capped(self, ffet_lib):
        nl = high_fanout_netlist(50)
        nl.bind(ffet_lib)
        added = buffer_high_fanout(nl, ffet_lib, max_fanout=16)
        assert added >= 4  # 50 sinks need at least ceil(50/16) leaves
        for name, net in nl.nets.items():
            if net.is_clock:
                continue
            assert len(net.sinks) <= 16, name

    def test_connectivity_preserved(self, ffet_lib):
        nl = high_fanout_netlist(40)
        nl.bind(ffet_lib)
        buffer_high_fanout(nl, ffet_lib, max_fanout=8)
        # Every flop's D must still trace back to the original driver.
        for i in range(40):
            net = nl.instances[f"ff{i}"].connections["D"]
            seen = set()
            while True:
                driver = nl.nets[net].driver
                assert driver is not None
                inst = nl.instances[driver[0]]
                if inst.name == "drv":
                    break
                assert inst.master.startswith("BUF")
                assert inst.name not in seen
                seen.add(inst.name)
                net = inst.connections["A"]

    def test_clock_left_alone(self, ffet_lib):
        nl = high_fanout_netlist(50)
        nl.bind(ffet_lib)
        buffer_high_fanout(nl, ffet_lib, max_fanout=16)
        assert len(nl.nets["clk"].sinks) == 50  # CTS's job, not ours

    def test_no_op_below_threshold(self, ffet_lib):
        nl = high_fanout_netlist(10)
        nl.bind(ffet_lib)
        assert buffer_high_fanout(nl, ffet_lib, max_fanout=16) == 0

    @pytest.mark.parametrize("budget", [0, 1])
    def test_budget_below_two_is_rejected_not_looped(self, ffet_lib, budget):
        nl = high_fanout_netlist(3)
        nl.bind(ffet_lib)

        def stuck(_signum, _frame):
            raise TimeoutError("buffer_high_fanout never returned")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="max_fanout"):
                buffer_high_fanout(nl, ffet_lib, max_fanout=budget)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def netlist_shape(nl):
    """Instance order, masters and connections; net order, flags, each
    net's driver and sink order."""
    return ([(i.name, i.master, list(i.connections.items()))
             for i in nl.instances.values()],
            [(n.name, n.driver, list(n.sinks), n.is_primary_input,
              n.is_primary_output, n.is_clock) for n in nl.nets.values()])


class TestOneBindBuffering:
    """Buffering binds once, yet builds the netlist that a bind after
    every split (``tests/reference/synth.py``) builds."""

    @pytest.mark.parametrize("max_fanout", [20, 8, 3])
    @pytest.mark.parametrize("xlen", [8, 16])
    def test_same_netlist_as_bind_per_split(self, ffet_lib, xlen,
                                            max_fanout, monkeypatch):
        def core():
            nl = generate_riscv_core(
                RiscvConfig(xlen=xlen, nregs=8, name=f"rv{xlen}"))
            nl.bind(ffet_lib)
            return nl

        want = core()
        want_added = reference.buffer_high_fanout(want, ffet_lib, max_fanout)
        got = core()
        binds = []
        bind = Netlist.bind

        def counted_bind(netlist, library):
            binds.append(netlist)
            bind(netlist, library)

        monkeypatch.setattr(Netlist, "bind", counted_bind)
        assert buffer_high_fanout(got, ffet_lib, max_fanout) == want_added
        assert want_added > 0 and len(binds) == 1
        assert netlist_shape(got) == netlist_shape(want)


class TestSizing:
    def chain(self, depth):
        nl = Netlist("chain")
        nl.add_net("clk", primary_input=True, clock=True)
        nl.add_instance("ff0", "DFFD1",
                        {"D": "loop", "CK": "clk", "Q": "n0"})
        prev = "n0"
        for i in range(depth):
            nl.add_instance(f"g{i}", "INVD1", {"A": prev, "ZN": f"n{i+1}"})
            prev = f"n{i+1}"
        nl.add_instance("ff1", "DFFD1",
                        {"D": prev, "CK": "clk", "Q": "loop"})
        return nl

    def test_loose_target_no_upsizing(self, ffet_lib):
        nl = self.chain(8)
        nl.bind(ffet_lib)
        report = size_for_target(nl, ffet_lib, target_period_ps=5000.0)
        assert report.met
        assert report.upsized == 0

    def test_tight_target_upsizes(self, ffet_lib):
        nl = self.chain(20)
        nl.bind(ffet_lib)
        report = size_for_target(nl, ffet_lib, target_period_ps=50.0)
        assert report.upsized > 0
        drives = {nl.instances[f"g{i}"].master for i in range(20)}
        assert drives != {"INVD1"}  # something got stronger

    def test_sizing_improves_timing(self, ffet_lib):
        from repro.extract import estimate_parasitics
        from repro.sta import analyze_timing

        baseline = self.chain(20)
        baseline.bind(ffet_lib)
        before = analyze_timing(
            baseline, ffet_lib, estimate_parasitics(baseline, ffet_lib),
            1000.0)

        sized = self.chain(20)
        sized.bind(ffet_lib)
        size_for_target(sized, ffet_lib, target_period_ps=50.0)
        after = analyze_timing(
            sized, ffet_lib, estimate_parasitics(sized, ffet_lib), 1000.0)
        assert after.achieved_period_ps <= before.achieved_period_ps

    def test_sizing_costs_area(self, ffet_lib):
        relaxed = self.chain(20)
        relaxed.bind(ffet_lib)
        size_for_target(relaxed, ffet_lib, target_period_ps=5000.0)
        tight = self.chain(20)
        tight.bind(ffet_lib)
        size_for_target(tight, ffet_lib, target_period_ps=50.0)
        assert tight.total_cell_area_nm2(ffet_lib) > \
            relaxed.total_cell_area_nm2(ffet_lib)

    def test_bad_target_rejected(self, ffet_lib):
        nl = self.chain(4)
        nl.bind(ffet_lib)
        with pytest.raises(ValueError):
            size_for_target(nl, ffet_lib, target_period_ps=0.0)


class TestScanAndFir:
    def test_scan_chain_shifts(self, ffet_lib):
        from repro.synth import generate_counter, insert_scan_chain

        nl = generate_counter(5)
        nl.bind(ffet_lib)
        report = insert_scan_chain(nl, ffet_lib)
        assert report.flops == 5
        # Shift a single 1 through the whole chain: after 5 ticks it
        # must appear at scan_out.
        state = {i.name: False for i in nl.sequential_instances(ffet_lib)}
        inputs = {"en": False, "scan_en": True, "scan_in": False}
        state = nl.next_state(ffet_lib, inputs | {"scan_in": True}, state)
        for _ in range(4):
            state = nl.next_state(ffet_lib, inputs, state)
        values = nl.simulate(ffet_lib, inputs, state)
        assert values["scan_out"] is True

    def test_scan_functional_mode_unchanged(self, ffet_lib):
        from repro.synth import generate_counter, insert_scan_chain

        nl = generate_counter(4)
        nl.bind(ffet_lib)
        insert_scan_chain(nl, ffet_lib)
        state = {i.name: False for i in nl.sequential_instances(ffet_lib)}
        inputs = {"en": True, "scan_en": False, "scan_in": False}
        state = nl.next_state(ffet_lib, inputs, state)
        values = nl.simulate(ffet_lib, inputs, state)
        count = sum(int(values[f"count[{i}]"]) << i for i in range(4))
        assert count == 1  # still counts

    def test_fir_impulse_response(self, ffet_lib):
        from repro.synth import generate_fir_filter

        taps, width = 3, 4
        nl = generate_fir_filter(taps, width)
        nl.bind(ffet_lib)
        coeffs = [3, 5, 7]
        inputs = {}
        for t, c in enumerate(coeffs):
            for i in range(width):
                inputs[f"c{t}[{i}]"] = bool((c >> i) & 1)
        state = {i.name: False for i in nl.sequential_instances(ffet_lib)}

        def tick(x):
            nonlocal state
            step = dict(inputs)
            for i in range(width):
                step[f"x[{i}]"] = bool((x >> i) & 1)
            state = nl.next_state(ffet_lib, step, state)
            values = nl.simulate(ffet_lib, step, state)
            y_bits = [k for k in values if k.startswith("y[")]
            return sum(int(values[f"y[{i}]"]) << i for i in range(len(y_bits)))

        # Impulse input: the outputs replay the coefficients.
        outputs = [tick(1)] + [tick(0) for _ in range(taps + 2)]
        assert coeffs[0] in outputs
        assert coeffs[1] in outputs
        assert coeffs[2] in outputs
