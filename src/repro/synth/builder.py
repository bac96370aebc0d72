"""Netlist builder: structural construction helpers for datapath logic.

Gates are instantiated directly as D1 library cells; the timing-driven
sizing pass (:mod:`repro.synth.sizing`) picks drive strengths later,
mirroring a synthesis tool's map-then-size flow.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..netlist import Netlist


class NetlistBuilder:
    """Builds a flat gate-level netlist with readable hierarchical names."""

    def __init__(self, name: str, clock: str = "clk") -> None:
        self.netlist = Netlist(name)
        self.clock = clock
        self.netlist.add_net(clock, primary_input=True, clock=True)
        self._net_counter = 0
        self._inst_counter = 0
        #: The open scopes' names, each followed by ``/``.
        self._prefix = ""

    # -- naming ---------------------------------------------------------------
    @contextmanager
    def scope(self, name: str):
        """Prefix instance/net names with ``name/`` inside the block."""
        outer = self._prefix
        self._prefix = f"{outer}{name}/"
        try:
            yield self
        finally:
            self._prefix = outer

    def fresh_net(self, hint: str = "n") -> str:
        self._net_counter += 1
        return f"{self._prefix}{hint}{self._net_counter}"

    def _fresh_inst(self, master: str) -> str:
        self._inst_counter += 1
        return f"{self._prefix}u{self._inst_counter}_{master.lower()}"

    # -- ports ----------------------------------------------------------------
    def input(self, name: str) -> str:
        self.netlist.add_net(name, primary_input=True)
        return name

    def inputs(self, prefix: str, width: int) -> list[str]:
        return [self.input(f"{prefix}[{i}]") for i in range(width)]

    def output(self, net: str, name: str | None = None) -> str:
        """Mark ``net`` as a primary output (optionally via a rename buffer)."""
        if name is not None and name != net:
            self.netlist.add_net(name, primary_output=True)
            self.cell("BUFD1", A=net, Z=name)
            return name
        self.netlist.add_net(net, primary_output=True)
        return net

    def outputs(self, nets: list[str], prefix: str) -> list[str]:
        return [self.output(net, f"{prefix}[{i}]") for i, net in enumerate(nets)]

    # -- primitive gates --------------------------------------------------------
    def cell(self, master: str, **pins: str) -> str:
        """Instantiate ``master``; returns the output net (created if absent).

        The output pin (``ZN``/``Z``/``Q``) may be omitted, in which case a
        fresh net is allocated and returned.
        """
        out_pin = _OUTPUT_PIN[master_base(master)]
        out = pins.get(out_pin)
        if out is None:
            out = pins[out_pin] = self.fresh_net()
        self.netlist.add_instance(self._fresh_inst(master), master, pins)
        return out

    def inv(self, a: str) -> str:
        return self.cell("INVD1", A=a)

    def buf(self, a: str) -> str:
        return self.cell("BUFD1", A=a)

    def nand2(self, a: str, b: str) -> str:
        return self.cell("NAND2D1", A=a, B=b)

    def nor2(self, a: str, b: str) -> str:
        return self.cell("NOR2D1", A=a, B=b)

    def nand3(self, a: str, b: str, c: str) -> str:
        return self.cell("NAND3D1", A=a, B=b, C=c)

    def nor3(self, a: str, b: str, c: str) -> str:
        return self.cell("NOR3D1", A=a, B=b, C=c)

    def and2(self, a: str, b: str) -> str:
        return self.cell("AND2D1", A=a, B=b)

    def or2(self, a: str, b: str) -> str:
        return self.cell("OR2D1", A=a, B=b)

    def xor2(self, a: str, b: str) -> str:
        return self.cell("XOR2D1", A=a, B=b)

    def xnor2(self, a: str, b: str) -> str:
        return self.cell("XNOR2D1", A=a, B=b)

    def aoi21(self, a1: str, a2: str, b: str) -> str:
        return self.cell("AOI21D1", A1=a1, A2=a2, B=b)

    def oai21(self, a1: str, a2: str, b: str) -> str:
        return self.cell("OAI21D1", A1=a1, A2=a2, B=b)

    def aoi22(self, a1: str, a2: str, b1: str, b2: str) -> str:
        return self.cell("AOI22D1", A1=a1, A2=a2, B1=b1, B2=b2)

    def oai22(self, a1: str, a2: str, b1: str, b2: str) -> str:
        return self.cell("OAI22D1", A1=a1, A2=a2, B1=b1, B2=b2)

    def mux2(self, a: str, b: str, s: str) -> str:
        """2:1 mux: returns ``b`` when ``s`` else ``a``."""
        return self.cell("MUX2D1", A=a, B=b, S=s)

    def dff(self, d: str, q: str | None = None) -> str:
        pins = {"D": d, "CK": self.clock}
        if q is not None:
            pins["Q"] = q
        return self.cell("DFFD1", **pins)

    def tie(self, value: bool) -> str:
        return self.cell("TIEHI" if value else "TIELO")

    # -- composite datapath helpers -----------------------------------------
    def reduce_tree(self, nets: list[str], op) -> str:
        """Balanced binary reduction of ``nets`` with a 2-input builder op."""
        if not nets:
            raise ValueError("cannot reduce an empty list")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(op(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def and_tree(self, nets: list[str]) -> str:
        return self.reduce_tree(nets, self.and2)

    def or_tree(self, nets: list[str]) -> str:
        return self.reduce_tree(nets, self.or2)

    def half_adder(self, a: str, b: str) -> tuple[str, str]:
        return self.xor2(a, b), self.and2(a, b)

    def full_adder(self, a: str, b: str, cin: str) -> tuple[str, str]:
        axb = self.xor2(a, b)
        s = self.xor2(axb, cin)
        # cout = a*b + cin*(a^b), via AOI + INV for a compact mapping.
        cout_n = self.aoi22(a, b, cin, axb)
        return s, self.inv(cout_n)

    def ripple_adder(self, a: list[str], b: list[str],
                     cin: str | None = None) -> tuple[list[str], str]:
        """LSB-first ripple-carry adder; returns (sum bits, carry out)."""
        if len(a) != len(b):
            raise ValueError("adder operand widths differ")
        carry = cin if cin is not None else self.tie(False)
        sums = []
        for ai, bi in zip(a, b):
            s, carry = self.full_adder(ai, bi, carry)
            sums.append(s)
        return sums, carry

    def fast_adder(self, a: list[str], b: list[str],
                   cin: str | None = None) -> tuple[list[str], str]:
        """Kogge-Stone parallel-prefix adder (LSB-first).

        Logarithmic depth — the mapping a synthesis tool would pick for
        a cycle-critical ALU adder, unlike the linear ripple chain.
        """
        if len(a) != len(b):
            raise ValueError("adder operand widths differ")
        n = len(a)
        p0 = [self.xor2(x, y) for x, y in zip(a, b)]
        g = [self.and2(x, y) for x, y in zip(a, b)]
        if cin is not None:
            g[0] = self.or2(g[0], self.and2(p0[0], cin))
        p = list(p0)
        d = 1
        while d < n:
            new_g = list(g)
            new_p = list(p)
            for i in range(d, n):
                new_g[i] = self.or2(g[i], self.and2(p[i], g[i - d]))
                new_p[i] = self.and2(p[i], p[i - d])
            g, p = new_g, new_p
            d *= 2
        sums = [self.xor2(p0[0], cin) if cin is not None else p0[0]]
        sums += [self.xor2(p0[i], g[i - 1]) for i in range(1, n)]
        return sums, g[n - 1]

    def subtractor(self, a: list[str], b: list[str]) -> tuple[list[str], str]:
        """a - b via two's complement; returns (difference, carry out)."""
        b_inv = [self.inv(bit) for bit in b]
        return self.ripple_adder(a, b_inv, cin=self.tie(True))

    def incrementer(self, a: list[str], amount_bit: int = 0) -> list[str]:
        """a + (1 << amount_bit) using half adders."""
        out = list(a)
        carry = None
        for i in range(len(a)):
            if i < amount_bit:
                continue
            if carry is None:
                out[i] = self.inv(a[i])
                carry = a[i]
            else:
                out[i], carry = self.half_adder(a[i], carry)
        return out

    def mux_word(self, a: list[str], b: list[str], s: str) -> list[str]:
        """Word-wide 2:1 mux (b when s)."""
        if len(a) != len(b):
            raise ValueError("mux operand widths differ")
        return [self.mux2(ai, bi, s) for ai, bi in zip(a, b)]

    def mux_tree(self, words: list[list[str]], select: list[str]) -> list[str]:
        """2^k : 1 word mux; ``select`` is LSB-first, len == log2(len(words))."""
        if len(words) != 1 << len(select):
            raise ValueError(
                f"need {1 << len(select)} words for {len(select)} select bits"
            )
        level = list(words)
        for s_bit in select:
            level = [
                self.mux_word(level[i], level[i + 1], s_bit)
                for i in range(0, len(level), 2)
            ]
        return level[0]

    def decoder(self, select: list[str]) -> list[str]:
        """k-to-2^k one-hot decoder (LSB-first select)."""
        inv_sel = [self.inv(s) for s in select]
        outputs = []
        for code in range(1 << len(select)):
            bits = [
                select[i] if (code >> i) & 1 else inv_sel[i]
                for i in range(len(select))
            ]
            outputs.append(self.and_tree(bits))
        return outputs

    def equals_const(self, nets: list[str], value: int) -> str:
        """1 when the word equals a constant."""
        bits = [
            net if (value >> i) & 1 else self.inv(net)
            for i, net in enumerate(nets)
        ]
        return self.and_tree(bits)

    def is_zero(self, nets: list[str]) -> str:
        return self.inv(self.or_tree(nets))

    def barrel_shifter(self, word: list[str], shamt: list[str],
                       right: str, arith: str) -> list[str]:
        """Logarithmic shifter: left, logical right or arithmetic right.

        ``right`` selects direction, ``arith`` selects sign extension on
        right shifts.  Implemented by pre/post reversal around a right
        shifter, as synthesis tools commonly map it.
        """
        n = len(word)
        fill_right = self.and2(word[-1], arith)  # sign bit when arithmetic
        zero = self.tie(False)
        # Reverse for left shifts so the core shifter is right-only.
        current = [self.mux2(word[n - 1 - i], word[i], right) for i in range(n)]
        for stage, s_bit in enumerate(shamt):
            dist = 1 << stage
            if dist >= n:
                break
            fill = self.mux2(zero, fill_right, right)
            shifted = [
                current[i + dist] if i + dist < n else fill
                for i in range(n)
            ]
            current = self.mux_word(current, shifted, s_bit)
        # Undo the reversal for left shifts.
        return [self.mux2(current[n - 1 - i], current[i], right) for i in range(n)]

    def register(self, d: list[str], name_hint: str = "r") -> list[str]:
        """A word register of DFFs; returns the Q nets."""
        return [self.dff(bit) for bit in d]


_OUTPUT_PIN = {
    "INV": "ZN", "BUF": "Z", "CLKBUF": "Z", "NAND2": "ZN", "NOR2": "ZN",
    "NAND3": "ZN", "NOR3": "ZN", "AND2": "Z", "OR2": "Z", "XOR2": "Z",
    "XNOR2": "Z", "AOI21": "ZN", "OAI21": "ZN", "AOI22": "ZN", "OAI22": "ZN",
    "MUX2": "Z", "DFF": "Q", "TIEHI": "Z", "TIELO": "Z",
}


def master_base(master: str) -> str:
    """Strip the drive suffix: ``NAND2D4`` -> ``NAND2``."""
    if master in ("TIEHI", "TIELO"):
        return master
    head, _, _ = master.rpartition("D")
    return head or master
