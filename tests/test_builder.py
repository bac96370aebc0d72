"""Netlist builder helpers: gates, adders, muxes, shifters."""

import pytest

from repro.synth import NetlistBuilder, master_base


def evaluate(builder, lib, inputs):
    builder.netlist.bind(lib)
    return builder.netlist.simulate(lib, inputs)


def word_value(values, nets):
    return sum(int(values[n]) << i for i, n in enumerate(nets))


class TestPrimitives:
    def test_master_base(self):
        assert master_base("NAND2D4") == "NAND2"
        assert master_base("INVD1") == "INV"
        assert master_base("TIEHI") == "TIEHI"

    def test_scope_prefixes_names(self, ffet_lib):
        b = NetlistBuilder("t")
        with b.scope("alu"):
            net = b.inv(b.input("a"))
        assert net.startswith("alu/")

    def test_nested_scopes_join_names_and_unwind(self):
        b = NetlistBuilder("t")
        a = b.input("a")
        with b.scope("alu"):
            with b.scope("add"):
                inner = b.inv(a)
            middle = b.inv(a)
        outer = b.inv(a)
        assert (inner, middle, outer) == ("alu/add/n1", "alu/n2", "n3")
        assert list(b.netlist.instances) == [
            "alu/add/u1_invd1", "alu/u2_invd1", "u3_invd1"]

    def test_scope_unwinds_after_an_exception(self):
        b = NetlistBuilder("t")
        with pytest.raises(RuntimeError):
            with b.scope("alu"):
                raise RuntimeError("boom")
        assert b.fresh_net() == "n1"

    def test_cell_returns_a_given_output_net(self):
        b = NetlistBuilder("t")
        a = b.input("a")
        assert b.cell("BUFD1", A=a, Z="z") == "z"
        assert b.dff(a, q="q") == "q"
        fresh = b.cell("BUFD1", A=a)
        assert b.netlist.instances["u3_bufd1"].connections \
            == {"A": "a", "Z": fresh}

    def test_tie_cells(self, ffet_lib):
        b = NetlistBuilder("t")
        hi = b.tie(True)
        lo = b.tie(False)
        b.output(hi, "h")
        b.output(lo, "l")
        values = evaluate(b, ffet_lib, {})
        assert values["h"] is True and values["l"] is False

    @pytest.mark.parametrize("op,expect", [
        ("nand2", lambda a, b: not (a and b)),
        ("nor2", lambda a, b: not (a or b)),
        ("and2", lambda a, b: a and b),
        ("or2", lambda a, b: a or b),
        ("xor2", lambda a, b: a != b),
        ("xnor2", lambda a, b: a == b),
    ])
    def test_two_input_gates(self, ffet_lib, op, expect):
        b = NetlistBuilder("t")
        a_in, b_in = b.input("a"), b.input("b")
        out = getattr(b, op)(a_in, b_in)
        b.output(out, "z")
        for va in (False, True):
            for vb in (False, True):
                values = evaluate_fresh(ffet_lib, op, va, vb)
                assert values == bool(expect(va, vb)), (op, va, vb)


def evaluate_fresh(lib, op, va, vb):
    b = NetlistBuilder("t")
    out = getattr(b, op)(b.input("a"), b.input("b"))
    b.output(out, "z")
    b.netlist.bind(lib)
    return b.netlist.simulate(lib, {"a": va, "b": vb})["z"]


class TestDatapath:
    @pytest.mark.parametrize("x,y", [(0, 0), (3, 5), (7, 9), (15, 15)])
    def test_ripple_adder(self, ffet_lib, x, y):
        b = NetlistBuilder("t")
        a = b.inputs("a", 4)
        c = b.inputs("c", 4)
        s, cout = b.ripple_adder(a, c)
        b.outputs(s, "s")
        b.output(cout, "co")
        inputs = {f"a[{i}]": bool((x >> i) & 1) for i in range(4)}
        inputs |= {f"c[{i}]": bool((y >> i) & 1) for i in range(4)}
        b.netlist.bind(ffet_lib)
        v = b.netlist.simulate(ffet_lib, inputs)
        total = word_value(v, [f"s[{i}]" for i in range(4)])
        total += int(v["co"]) << 4
        assert total == x + y

    @pytest.mark.parametrize("x,y", [(9, 4), (4, 9), (15, 15), (0, 1)])
    def test_subtractor(self, ffet_lib, x, y):
        b = NetlistBuilder("t")
        a = b.inputs("a", 4)
        c = b.inputs("c", 4)
        d, _ = b.subtractor(a, c)
        b.outputs(d, "d")
        inputs = {f"a[{i}]": bool((x >> i) & 1) for i in range(4)}
        inputs |= {f"c[{i}]": bool((y >> i) & 1) for i in range(4)}
        b.netlist.bind(ffet_lib)
        v = b.netlist.simulate(ffet_lib, inputs)
        assert word_value(v, [f"d[{i}]" for i in range(4)]) == (x - y) % 16

    def test_incrementer(self, ffet_lib):
        for x in (0, 5, 14, 15):
            b = NetlistBuilder("t")
            a = b.inputs("a", 4)
            out = b.incrementer(a)
            b.outputs(out, "q")
            b.netlist.bind(ffet_lib)
            inputs = {f"a[{i}]": bool((x >> i) & 1) for i in range(4)}
            v = b.netlist.simulate(ffet_lib, inputs)
            assert word_value(v, [f"q[{i}]" for i in range(4)]) == (x + 1) % 16

    def test_mux_tree_selects_each_word(self, ffet_lib):
        b = NetlistBuilder("t")
        words = [[b.tie(bool((w >> i) & 1)) for i in range(2)] for w in range(4)]
        sel = [b.input("s0"), b.input("s1")]
        out = b.mux_tree(words, sel)
        b.outputs(out, "z")
        b.netlist.bind(ffet_lib)
        for code in range(4):
            v = b.netlist.simulate(
                ffet_lib, {"s0": bool(code & 1), "s1": bool(code >> 1)}
            )
            assert word_value(v, ["z[0]", "z[1]"]) == code

    def test_mux_tree_word_count_checked(self, ffet_lib):
        b = NetlistBuilder("t")
        with pytest.raises(ValueError):
            b.mux_tree([[b.tie(False)]], [b.input("s0")])

    def test_decoder_one_hot(self, ffet_lib):
        b = NetlistBuilder("t")
        sel = [b.input("s0"), b.input("s1")]
        outs = b.decoder(sel)
        for i, net in enumerate(outs):
            b.output(net, f"d[{i}]")
        b.netlist.bind(ffet_lib)
        for code in range(4):
            v = b.netlist.simulate(
                ffet_lib, {"s0": bool(code & 1), "s1": bool(code >> 1)}
            )
            hot = [i for i in range(4) if v[f"d[{i}]"]]
            assert hot == [code]

    def test_equals_const(self, ffet_lib):
        b = NetlistBuilder("t")
        word = b.inputs("a", 3)
        out = b.equals_const(word, 5)
        b.output(out, "eq")
        b.netlist.bind(ffet_lib)
        for x in range(8):
            v = b.netlist.simulate(
                ffet_lib, {f"a[{i}]": bool((x >> i) & 1) for i in range(3)}
            )
            assert v["eq"] == (x == 5)

    @pytest.mark.parametrize("value,shamt,right,arith,expect", [
        (0b0110, 1, False, False, 0b1100),
        (0b0110, 2, True, False, 0b0001),
        (0b1000, 1, True, True, 0b1100),   # arithmetic: sign extends
        (0b1000, 1, True, False, 0b0100),  # logical
        (0b0101, 0, False, False, 0b0101),
    ])
    def test_barrel_shifter(self, ffet_lib, value, shamt, right, arith, expect):
        b = NetlistBuilder("t")
        word = b.inputs("a", 4)
        sh = b.inputs("sh", 2)
        r = b.input("r")
        ar = b.input("ar")
        out = b.barrel_shifter(word, sh, r, ar)
        b.outputs(out, "z")
        b.netlist.bind(ffet_lib)
        inputs = {f"a[{i}]": bool((value >> i) & 1) for i in range(4)}
        inputs |= {f"sh[{i}]": bool((shamt >> i) & 1) for i in range(2)}
        inputs |= {"r": right, "ar": arith}
        v = b.netlist.simulate(ffet_lib, inputs)
        assert word_value(v, [f"z[{i}]" for i in range(4)]) == expect

    def test_reduce_tree_empty_rejected(self, ffet_lib):
        b = NetlistBuilder("t")
        with pytest.raises(ValueError):
            b.and_tree([])

    def test_adder_width_mismatch(self, ffet_lib):
        b = NetlistBuilder("t")
        with pytest.raises(ValueError):
            b.ripple_adder(b.inputs("a", 2), b.inputs("c", 3))
