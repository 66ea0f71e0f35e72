"""Word-level to gate-level lowering.

The Verilog elaborator does not emit gates directly; it drives this
:class:`CircuitBuilder`, which knows how to lower multi-bit arithmetic,
comparisons, shifts, and multiplexing onto the standard-cell set
(ripple-carry adders, shift-add multipliers, restoring dividers, barrel
shifters, mux trees).  Bit vectors are lists of net ids, least
significant bit first.

The builder constant-folds locally as it goes (``AND(x, 0) -> 0``,
``MUX`` with a constant select, ...), which keeps the emitted netlists
small before the global optimizer runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.synth.netlist import Net, Netlist, NetlistError

Bits = List[Net]


class CircuitBuilder:
    """Build combinational logic in a netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._const: Dict[bool, Net] = {}
        #: Net-level constant knowledge for local folding.
        self._const_value: Dict[Net, bool] = {}
        #: Structural hashing: (kind, input nets) -> output net.
        self._cse: Dict[Tuple, Net] = {}

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    def const_bit(self, value: bool) -> Net:
        value = bool(value)
        if value not in self._const:
            net = self.netlist.new_net()
            self.netlist.add_cell("VCC" if value else "GND", {"Y": net})
            self._const[value] = net
            self._const_value[net] = value
        return self._const[value]

    def constant(self, value: int, width: int) -> Bits:
        if value < 0:
            value &= (1 << width) - 1
        return [self.const_bit(bool((value >> i) & 1)) for i in range(width)]

    def value_of(self, net: Net) -> Optional[bool]:
        """The net's constant value if known, else None."""
        return self._const_value.get(net)

    # ------------------------------------------------------------------
    # Single-bit gates (with local folding)
    # ------------------------------------------------------------------
    def _emit(self, kind: str, connections: Dict[str, Net]) -> Net:
        key = (kind,) + tuple(sorted(connections.items()))
        if key in self._cse:
            return self._cse[key]
        out = self.netlist.new_net()
        self.netlist.add_cell(kind, {**connections, _OUTPUT[kind]: out})
        self._cse[key] = out
        return out

    def not_(self, a: Net) -> Net:
        av = self.value_of(a)
        if av is not None:
            return self.const_bit(not av)
        return self._emit("NOT", {"A": a})

    def and_(self, a: Net, b: Net) -> Net:
        av, bv = self.value_of(a), self.value_of(b)
        if av is False or bv is False:
            return self.const_bit(False)
        if av is True:
            return b
        if bv is True:
            return a
        if a == b:
            return a
        return self._emit("AND", {"A": a, "B": b})

    def or_(self, a: Net, b: Net) -> Net:
        av, bv = self.value_of(a), self.value_of(b)
        if av is True or bv is True:
            return self.const_bit(True)
        if av is False:
            return b
        if bv is False:
            return a
        if a == b:
            return a
        return self._emit("OR", {"A": a, "B": b})

    def xor_(self, a: Net, b: Net) -> Net:
        av, bv = self.value_of(a), self.value_of(b)
        if a == b:
            return self.const_bit(False)
        if av is not None and bv is not None:
            return self.const_bit(av != bv)
        if av is False:
            return b
        if bv is False:
            return a
        if av is True:
            return self.not_(b)
        if bv is True:
            return self.not_(a)
        return self._emit("XOR", {"A": a, "B": b})

    def mux_(self, select: Net, when0: Net, when1: Net) -> Net:
        """Table 5's 2:1 MUX: Y = select ? when1 : when0."""
        sv = self.value_of(select)
        if sv is True:
            return when1
        if sv is False:
            return when0
        if when0 == when1:
            return when0
        w0, w1 = self.value_of(when0), self.value_of(when1)
        if w0 is False and w1 is True:
            return select
        if w0 is True and w1 is False:
            return self.not_(select)
        if w0 is False:
            return self.and_(select, when1)
        if w0 is True:
            return self.or_(self.not_(select), when1)
        if w1 is False:
            return self.and_(self.not_(select), when0)
        if w1 is True:
            return self.or_(select, when0)
        return self._emit("MUX", {"S": select, "A": when0, "B": when1})

    # ------------------------------------------------------------------
    # Vector bit operations
    # ------------------------------------------------------------------
    def not_vec(self, a: Bits) -> Bits:
        return [self.not_(bit) for bit in a]

    def and_vec(self, a: Bits, b: Bits) -> Bits:
        return [self.and_(x, y) for x, y in self._zip(a, b)]

    def or_vec(self, a: Bits, b: Bits) -> Bits:
        return [self.or_(x, y) for x, y in self._zip(a, b)]

    def xor_vec(self, a: Bits, b: Bits) -> Bits:
        return [self.xor_(x, y) for x, y in self._zip(a, b)]

    def mux_vec(self, select: Net, when0: Bits, when1: Bits) -> Bits:
        return [self.mux_(select, x, y) for x, y in self._zip(when0, when1)]

    @staticmethod
    def _zip(a: Bits, b: Bits):
        if len(a) != len(b):
            raise NetlistError(f"width mismatch: {len(a)} vs {len(b)}")
        return zip(a, b)

    def extend(self, a: Bits, width: int, signed: bool = False) -> Bits:
        """Zero- or sign-extend (or truncate) to ``width`` bits."""
        if width <= len(a):
            return list(a[:width])
        fill = a[-1] if (signed and a) else self.const_bit(False)
        return list(a) + [fill] * (width - len(a))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _reduce(self, op, bits: Bits) -> Net:
        if not bits:
            raise NetlistError("reduction of empty vector")
        work = list(bits)
        while len(work) > 1:  # balanced tree for shallow depth
            nxt = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(op(work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def reduce_and(self, bits: Bits) -> Net:
        return self._reduce(self.and_, bits)

    def reduce_or(self, bits: Bits) -> Net:
        return self._reduce(self.or_, bits)

    def reduce_xor(self, bits: Bits) -> Net:
        return self._reduce(self.xor_, bits)

    def to_bool(self, bits: Bits) -> Net:
        """Verilog truthiness: non-zero."""
        return self.reduce_or(bits)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def full_adder(self, a: Net, b: Net, cin: Net) -> Tuple[Net, Net]:
        axb = self.xor_(a, b)
        total = self.xor_(axb, cin)
        cout = self.or_(self.and_(a, b), self.and_(cin, axb))
        return total, cout

    def add(self, a: Bits, b: Bits, cin: Optional[Net] = None) -> Tuple[Bits, Net]:
        """Ripple-carry addition; returns (sum, carry_out)."""
        if cin is None:
            cin = self.const_bit(False)
        out: Bits = []
        carry = cin
        for x, y in self._zip(a, b):
            total, carry = self.full_adder(x, y, carry)
            out.append(total)
        return out, carry

    def sub(self, a: Bits, b: Bits) -> Tuple[Bits, Net]:
        """Two's-complement subtraction; returns (difference, carry_out).

        carry_out == 1 exactly when no borrow occurred (a >= b unsigned).
        """
        return self.add(a, self.not_vec(b), self.const_bit(True))

    def neg(self, a: Bits) -> Bits:
        zero = self.constant(0, len(a))
        diff, _ = self.sub(zero, a)
        return diff

    def mul(self, a: Bits, b: Bits, width: Optional[int] = None) -> Bits:
        """Shift-add array multiplier, truncated to ``width`` bits."""
        if width is None:
            width = len(a) + len(b)
        acc = self.constant(0, width)
        for i, select in enumerate(b):
            if i >= width:
                break
            if self.value_of(select) is False:
                continue
            # Partial product: (a << i) masked by bit i of b.
            shifted = self.constant(0, i) + list(a)
            shifted = self.extend(shifted, width)
            partial = [self.and_(bit, select) for bit in shifted]
            acc, _ = self.add(acc, partial)
        return acc

    def divmod_unsigned(self, a: Bits, b: Bits) -> Tuple[Bits, Bits]:
        """Restoring division; returns (quotient, remainder).

        Division by zero yields all-ones quotient and ``a`` as remainder,
        matching common hardware conventions.
        """
        width = max(len(a), len(b))
        a = self.extend(a, width)
        b_ext = self.extend(b, width + 1)
        remainder = self.constant(0, width + 1)
        quotient: Bits = [self.const_bit(False)] * width
        for i in reversed(range(width)):
            remainder = [a[i]] + remainder[:width]
            diff, carry = self.sub(remainder, b_ext)
            fits = carry  # carry out == no borrow == remainder >= b
            quotient[i] = fits
            remainder = self.mux_vec(fits, remainder, diff)
        by_zero = self.not_(self.to_bool(b))
        ones = self.constant((1 << width) - 1, width)
        quotient = self.mux_vec(by_zero, quotient, ones)
        remainder = self.mux_vec(by_zero, remainder[:width], self.extend(a, width))
        return quotient, remainder

    # ------------------------------------------------------------------
    # Comparisons (unsigned)
    # ------------------------------------------------------------------
    def eq(self, a: Bits, b: Bits) -> Net:
        return self.not_(self.reduce_or(self.xor_vec(a, b)))

    def ne(self, a: Bits, b: Bits) -> Net:
        return self.reduce_or(self.xor_vec(a, b))

    def lt(self, a: Bits, b: Bits) -> Net:
        _, carry = self.sub(a, b)
        return self.not_(carry)

    def le(self, a: Bits, b: Bits) -> Net:
        return self.not_(self.lt(b, a))

    def gt(self, a: Bits, b: Bits) -> Net:
        return self.lt(b, a)

    def ge(self, a: Bits, b: Bits) -> Net:
        _, carry = self.sub(a, b)
        return carry

    # ------------------------------------------------------------------
    # Shifts
    # ------------------------------------------------------------------
    def shl_const(self, a: Bits, amount: int) -> Bits:
        width = len(a)
        if amount >= width:
            return self.constant(0, width)
        return self.constant(0, amount) + list(a[: width - amount])

    def shr_const(self, a: Bits, amount: int) -> Bits:
        width = len(a)
        if amount >= width:
            return self.constant(0, width)
        return list(a[amount:]) + [self.const_bit(False)] * amount

    def shl(self, a: Bits, amount: Bits) -> Bits:
        """Barrel shifter: logical shift left by a variable amount."""
        return self._barrel(a, amount, self.shl_const)

    def shr(self, a: Bits, amount: Bits) -> Bits:
        return self._barrel(a, amount, self.shr_const)

    def _barrel(self, a: Bits, amount: Bits, shift_by) -> Bits:
        result = list(a)
        width = len(a)
        for stage, select in enumerate(amount):
            step = 1 << stage
            if step >= width:
                # Any set high-order amount bit zeroes the result.
                zero = self.constant(0, width)
                result = self.mux_vec(select, result, zero)
            else:
                result = self.mux_vec(select, result, shift_by(result, step))
        return result


#: Output port of each cell kind used by the builder.
_OUTPUT = {
    "NOT": "Y",
    "AND": "Y",
    "OR": "Y",
    "NAND": "Y",
    "NOR": "Y",
    "XOR": "Y",
    "XNOR": "Y",
    "MUX": "Y",
    "AOI3": "Y",
    "OAI3": "Y",
    "AOI4": "Y",
    "OAI4": "Y",
}
