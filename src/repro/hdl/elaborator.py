"""Elaboration: Verilog AST -> gate-level netlist.

This is the synthesis front half of the Yosys role: resolve parameters,
flatten the module hierarchy, infer flip-flops from edge-sensitive
always blocks, turn conditionals into mux trees, and lower all word
operations through :class:`repro.synth.lowering.CircuitBuilder`.

Width semantics follow Verilog's context-determination rules closely
enough for the paper's programs: operands of arithmetic/bitwise
operators are extended to the maximum of their self-determined widths
and the assignment target's width (so ``assign c = a + b;`` with a
2-bit ``c`` keeps the carry, as Figure 2 requires), comparisons and
reductions are self-determined and produce one bit, and assignments
truncate or zero-extend to the target width (so the Listing 3 counter
wraps at 6 bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.hdl import ast_nodes as ast
from repro.hdl.errors import ElaborationError
from repro.hdl.parser import parse
from repro.synth.lowering import Bits, CircuitBuilder
from repro.synth.netlist import Net, Netlist, PortDirection

_MAX_LOOP_ITERATIONS = 65536
#: Deepest instance nesting elaborated: a recursion whose parameters
#: change at every level but never end it stops here, well inside
#: Python's recursion limit.
_MAX_INSTANCE_DEPTH = 100
_UNSIZED_WIDTH = 32


@dataclass
class _Signal:
    """A declared signal within one module instance."""

    name: str  # unqualified
    kind: str  # input | output | wire | reg
    msb: int
    lsb: int
    nets: Bits  # storage, LSB first
    is_reg: bool = False

    @property
    def width(self) -> int:
        return abs(self.msb - self.lsb) + 1

    def position(self, index: int, line: int = 0) -> int:
        """Map a Verilog bit index to LSB-first storage position."""
        low, high = min(self.msb, self.lsb), max(self.msb, self.lsb)
        if not low <= index <= high:
            raise ElaborationError(
                f"index {index} out of range [{self.msb}:{self.lsb}] "
                f"for {self.name!r}", line,
            )
        if self.msb >= self.lsb:
            return index - self.lsb
        return self.lsb - index


@dataclass
class _Scope:
    """One module instance: its signals, parameters, and name prefix."""

    prefix: str
    signals: Dict[str, _Signal] = field(default_factory=dict)
    parameters: Dict[str, int] = field(default_factory=dict)
    loop_vars: Dict[str, int] = field(default_factory=dict)
    functions: Dict[str, "ast.FunctionDecl"] = field(default_factory=dict)

    def constant(self, name: str) -> Optional[int]:
        if name in self.loop_vars:
            return self.loop_vars[name]
        return self.parameters.get(name)


class _UnionFind:
    """Net unification: ``assign``/port connections equate nets."""

    def __init__(self):
        self._parent: Dict[Net, Net] = {}

    def find(self, net: Net) -> Net:
        root = net
        while root in self._parent:
            root = self._parent[root]
        while net in self._parent:  # path compression
            self._parent[net], net = root, self._parent[net]
        return root

    def union(self, a: Net, b: Net) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


class _Elaborator:
    def __init__(self, source: ast.SourceFile):
        self.source = source
        self.netlist: Optional[Netlist] = None
        self.builder: Optional[CircuitBuilder] = None
        self.unify = _UnionFind()
        self._instance_counter = 0
        self._function_stack: List[str] = []
        #: (module name, parameter overrides) of each module being
        #: elaborated, outermost first.
        self._module_stack: List[Tuple[str, Tuple[Tuple[str, int], ...]]] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self, top: Optional[str] = None, parameters: Optional[Dict[str, int]] = None
    ) -> Netlist:
        try:
            module = self.source.module(top) if top else self.source.modules[-1]
        except KeyError:
            defined = ", ".join(mod.name for mod in self.source.modules)
            raise ElaborationError(
                f"unknown top module {top!r}; the source defines: {defined}"
            ) from None
        self.netlist = Netlist(module.name)
        self.builder = CircuitBuilder(self.netlist)
        overrides = parameters or {}
        self._module_stack.append((module.name, tuple(sorted(overrides.items()))))
        scope = self._elaborate_module(module, prefix="", overrides=overrides)

        # Expose the top module's ports.
        for port_name in module.port_order:
            signal = scope.signals.get(port_name)
            if signal is None:
                raise ElaborationError(f"port {port_name!r} never declared")
            direction = (
                PortDirection.INPUT if signal.kind == "input" else PortDirection.OUTPUT
            )
            self.netlist.add_port(port_name, direction, signal.nets)

        self._apply_unification()
        self.netlist.validate()
        return self.netlist

    def _apply_unification(self) -> None:
        for cell in self.netlist.cells.values():
            cell.connections = {
                p: self.unify.find(n) for p, n in cell.connections.items()
            }
        for port in self.netlist.ports.values():
            port.bits = [self.unify.find(n) for n in port.bits]
        for name, bits in self.netlist.net_names.items():
            self.netlist.net_names[name] = [self.unify.find(n) for n in bits]

    # ------------------------------------------------------------------
    # Modules
    # ------------------------------------------------------------------
    def _elaborate_module(
        self, module: ast.Module, prefix: str, overrides: Dict[str, int]
    ) -> _Scope:
        scope = _Scope(prefix=prefix)

        # Pass 1: parameters (overridable unless localparam).
        overridable = set()
        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                if not item.local:
                    overridable.add(item.name)
                if not item.local and item.name in overrides:
                    scope.parameters[item.name] = int(overrides[item.name])
                else:
                    scope.parameters[item.name] = self._const_expr(item.value, scope)
        unknown = set(overrides) - overridable
        if unknown:
            raise ElaborationError(
                f"module {module.name!r} has no overridable parameters "
                f"{sorted(unknown)}"
            )

        # Pass 2: signal and function declarations.
        for item in module.items:
            if isinstance(item, ast.Decl):
                self._declare(item, scope)
            elif isinstance(item, ast.FunctionDecl):
                if item.name in scope.functions:
                    raise ElaborationError(
                        f"duplicate function {item.name!r}", item.line
                    )
                scope.functions[item.name] = item
        for port_name in module.port_order:
            if port_name not in scope.signals:
                raise ElaborationError(
                    f"port {port_name!r} of module {module.name!r} never declared"
                )

        # Pass 3: behaviour.
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                self._continuous_assign(item, scope)
            elif isinstance(item, ast.Always):
                self._always(item, scope)
            elif isinstance(item, ast.Instance):
                self._instance(item, scope)
            elif isinstance(item, ast.Decl) and item.initializers:
                # Net-declaration assignments: wire x = expr;
                for name, initializer in item.initializers.items():
                    self._continuous_assign(
                        ast.ContinuousAssign(
                            line=item.line,
                            target=ast.Ident(line=item.line, name=name),
                            value=initializer,
                        ),
                        scope,
                    )
            elif isinstance(item, ast.GenerateFor):
                self._generate_for(item, scope)
        return scope

    def _generate_for(self, block: ast.GenerateFor, scope: _Scope) -> None:
        """Unroll a generate-for, replicating its items per iteration."""
        if block.var != block.update_var:
            raise ElaborationError(
                "generate loop must update its own variable", block.line
            )
        if block.var not in scope.loop_vars:
            raise ElaborationError(
                f"generate variable {block.var!r} must be declared genvar",
                block.line,
            )
        scope.loop_vars[block.var] = self._const_expr(block.init, scope)
        iterations = 0
        while True:
            condition = self._try_const(block.cond, scope)
            if condition is None:
                raise ElaborationError(
                    "generate loop bound must be constant", block.line
                )
            if not condition:
                break
            index = scope.loop_vars[block.var]
            for item in block.items:
                if isinstance(item, ast.ContinuousAssign):
                    self._continuous_assign(item, scope)
                elif isinstance(item, ast.Instance):
                    scoped = ast.Instance(
                        line=item.line,
                        module=item.module,
                        name=f"{block.label}[{index}].{item.name}",
                        connections=item.connections,
                        parameters=item.parameters,
                    )
                    self._instance(scoped, scope)
                else:  # pragma: no cover - parser already rejects
                    raise ElaborationError(
                        "unsupported item in generate block", item.line
                    )
            scope.loop_vars[block.var] = self._const_expr(block.update, scope)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise ElaborationError(
                    "generate loop exceeds unroll limit", block.line
                )

    def _declare(self, decl: ast.Decl, scope: _Scope) -> None:
        if decl.kind == "inout":
            raise ElaborationError("inout ports are not supported", decl.line)
        if decl.kind in ("integer", "genvar"):
            for name in decl.names:
                scope.loop_vars.setdefault(name, 0)
            return
        if decl.signed:
            raise ElaborationError(
                "signed signals are not supported (unsigned subset)", decl.line
            )
        msb = self._const_expr(decl.msb, scope) if decl.msb is not None else 0
        lsb = self._const_expr(decl.lsb, scope) if decl.lsb is not None else 0
        for name in decl.names:
            existing = scope.signals.get(name)
            if existing is not None:
                # Legal Verilog: "output c;" + "reg c;" refine each other.
                if decl.kind in ("input", "output") and existing.kind == "wire":
                    existing.kind = decl.kind
                elif decl.kind in ("wire", "reg") and existing.kind in ("input", "output"):
                    if decl.kind == "reg":
                        existing.is_reg = True
                else:
                    raise ElaborationError(f"duplicate declaration of {name!r}", decl.line)
                if (decl.msb is not None) and (existing.msb, existing.lsb) != (msb, lsb):
                    raise ElaborationError(
                        f"conflicting ranges for {name!r}", decl.line
                    )
                continue
            width = abs(msb - lsb) + 1
            signal = _Signal(
                name=name,
                kind=decl.kind if decl.kind != "reg" else "wire",
                msb=msb,
                lsb=lsb,
                nets=self.netlist.new_nets(width),
                is_reg=decl.is_reg or decl.kind == "reg",
            )
            scope.signals[name] = signal
            self.netlist.name_net(scope.prefix + name, signal.nets)

    # ------------------------------------------------------------------
    # Constant expressions
    # ------------------------------------------------------------------
    def _const_expr(self, expr: Optional[ast.Expr], scope: _Scope) -> int:
        value = self._try_const(expr, scope)
        if value is None:
            raise ElaborationError(
                "expression must be constant", getattr(expr, "line", 0)
            )
        return value

    def _try_const(self, expr: Optional[ast.Expr], scope: _Scope) -> Optional[int]:
        if expr is None:
            return None
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Ident):
            return scope.constant(expr.name)
        if isinstance(expr, ast.Unary):
            value = self._try_const(expr.operand, scope)
            if value is None:
                return None
            if expr.op == "-":
                return -value
            if expr.op == "~":
                return ~value
            if expr.op == "!":
                return int(not value)
            return None
        if isinstance(expr, ast.Binary):
            left = self._try_const(expr.left, scope)
            right = self._try_const(expr.right, scope)
            if left is None or right is None:
                return None
            ops = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a // b if b else 0,
                "%": lambda a, b: a % b if b else 0,
                "<<": lambda a, b: a << b,
                ">>": lambda a, b: a >> b,
                "<": lambda a, b: int(a < b),
                "<=": lambda a, b: int(a <= b),
                ">": lambda a, b: int(a > b),
                ">=": lambda a, b: int(a >= b),
                "==": lambda a, b: int(a == b),
                "!=": lambda a, b: int(a != b),
                "&": lambda a, b: a & b,
                "|": lambda a, b: a | b,
                "^": lambda a, b: a ^ b,
                "&&": lambda a, b: int(bool(a) and bool(b)),
                "||": lambda a, b: int(bool(a) or bool(b)),
            }
            if expr.op in ops:
                return ops[expr.op](left, right)
            return None
        if isinstance(expr, ast.Ternary):
            cond = self._try_const(expr.cond, scope)
            if cond is None:
                return None
            branch = expr.if_true if cond else expr.if_false
            return self._try_const(branch, scope)
        return None

    # ------------------------------------------------------------------
    # Widths (self-determined)
    # ------------------------------------------------------------------
    def _self_width(self, expr: ast.Expr, scope: _Scope) -> int:
        if isinstance(expr, ast.Number):
            return expr.width if expr.width else _UNSIZED_WIDTH
        if isinstance(expr, ast.Ident):
            if scope.constant(expr.name) is not None:
                return _UNSIZED_WIDTH
            return self._signal(expr.name, scope, expr.line).width
        if isinstance(expr, ast.Index):
            return 1
        if isinstance(expr, ast.PartSelect):
            msb = self._const_expr(expr.msb, scope)
            lsb = self._const_expr(expr.lsb, scope)
            return abs(msb - lsb) + 1
        if isinstance(expr, ast.Concat):
            return sum(self._self_width(p, scope) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            count = self._const_expr(expr.count, scope)
            return count * self._self_width(expr.value, scope)
        if isinstance(expr, ast.Unary):
            if expr.op in ("!", "&", "|", "^"):
                return 1
            return self._self_width(expr.operand, scope)
        if isinstance(expr, ast.Binary):
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return 1
            if expr.op in ("<<", ">>"):
                return self._self_width(expr.left, scope)
            return max(
                self._self_width(expr.left, scope),
                self._self_width(expr.right, scope),
            )
        if isinstance(expr, ast.Ternary):
            return max(
                self._self_width(expr.if_true, scope),
                self._self_width(expr.if_false, scope),
            )
        if isinstance(expr, ast.FunctionCall):
            function = scope.functions.get(expr.name)
            if function is None:
                raise ElaborationError(
                    f"call of unknown function {expr.name!r}", expr.line
                )
            msb = self._const_expr(function.msb, scope) if function.msb is not None else 0
            lsb = self._const_expr(function.lsb, scope) if function.lsb is not None else 0
            return abs(msb - lsb) + 1
        raise ElaborationError(f"unsupported expression {expr!r}", expr.line)

    def _signal(self, name: str, scope: _Scope, line: int) -> _Signal:
        signal = scope.signals.get(name)
        if signal is None:
            raise ElaborationError(f"unknown identifier {name!r}", line)
        return signal

    # ------------------------------------------------------------------
    # Expression evaluation -> Bits
    # ------------------------------------------------------------------
    def _eval(
        self,
        expr: ast.Expr,
        scope: _Scope,
        ctx: int,
        env: Optional[Dict[str, Bits]] = None,
    ) -> Bits:
        """Evaluate ``expr`` in a context of ``ctx`` bits.

        ``env`` supplies procedural values of registers mid-always-block
        (blocking-assignment visibility).
        """
        build = self.builder

        if isinstance(expr, ast.Number):
            return build.constant(expr.value, ctx)

        if isinstance(expr, ast.Ident):
            const = scope.constant(expr.name)
            if const is not None:
                return build.constant(const, ctx)
            bits = self._read_signal(expr.name, scope, env, expr.line)
            return build.extend(bits, ctx)

        if isinstance(expr, ast.Index):
            signal = self._signal(expr.base, scope, expr.line)
            bits = self._read_signal(expr.base, scope, env, expr.line)
            index = self._try_const(expr.index, scope)
            if index is not None:
                bit = bits[signal.position(index, expr.line)]
                return build.extend([bit], ctx)
            # Variable bit select: build a one-hot mux over positions.
            sel_width = self._self_width(expr.index, scope)
            sel = self._eval(expr.index, scope, sel_width, env)
            result = build.const_bit(False)
            low, high = min(signal.msb, signal.lsb), max(signal.msb, signal.lsb)
            for i in range(low, high + 1):
                matches = build.eq(sel, build.constant(i, sel_width))
                chosen = build.and_(matches, bits[signal.position(i)])
                result = build.or_(result, chosen)
            return build.extend([result], ctx)

        if isinstance(expr, ast.PartSelect):
            bits = self._select_part(expr, scope, env)
            return build.extend(bits, ctx)

        if isinstance(expr, ast.Concat):
            collected: Bits = []
            for part in reversed(expr.parts):  # last part is least significant
                width = self._self_width(part, scope)
                collected.extend(self._eval(part, scope, width, env))
            return build.extend(collected, ctx)

        if isinstance(expr, ast.Repeat):
            count = self._const_expr(expr.count, scope)
            width = self._self_width(expr.value, scope)
            value = self._eval(expr.value, scope, width, env)
            return build.extend(list(value) * count, ctx)

        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, scope, ctx, env)

        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, scope, ctx, env)

        if isinstance(expr, ast.Ternary):
            cond = self._eval_bool(expr.cond, scope, env)
            if_true = self._eval(expr.if_true, scope, ctx, env)
            if_false = self._eval(expr.if_false, scope, ctx, env)
            return build.mux_vec(cond, if_false, if_true)

        if isinstance(expr, ast.FunctionCall):
            return build.extend(self._call_function(expr, scope, env), ctx)

        raise ElaborationError(f"unsupported expression {expr!r}", expr.line)

    # ------------------------------------------------------------------
    # Function calls (inlined at each call site)
    # ------------------------------------------------------------------
    def _call_function(
        self,
        call: ast.FunctionCall,
        scope: _Scope,
        env: Optional[Dict[str, Bits]],
    ) -> Bits:
        function = scope.functions.get(call.name)
        if function is None:
            raise ElaborationError(
                f"call of unknown function {call.name!r}", call.line
            )
        if call.name in self._function_stack:
            raise ElaborationError(
                f"recursive call of function {call.name!r} "
                "(recursion cannot be synthesized)", call.line,
            )

        # Build the function's local scope: the enclosing module's
        # signals remain visible; inputs/locals/return shadow them.
        local = _Scope(
            prefix=scope.prefix,
            signals=dict(scope.signals),
            parameters=scope.parameters,
            loop_vars=dict(scope.loop_vars),
            functions=scope.functions,
        )
        msb = self._const_expr(function.msb, scope) if function.msb is not None else 0
        lsb = self._const_expr(function.lsb, scope) if function.lsb is not None else 0
        return_width = abs(msb - lsb) + 1
        local.signals[function.name] = _Signal(
            name=function.name, kind="wire", msb=msb, lsb=lsb,
            nets=self.netlist.new_nets(return_width), is_reg=True,
        )

        # Bind arguments (evaluated in the *caller's* scope and env).
        input_names: List[str] = []
        call_env: Dict[str, Optional[Bits]] = {}
        for decl in function.ports:
            port_msb = self._const_expr(decl.msb, scope) if decl.msb is not None else 0
            port_lsb = self._const_expr(decl.lsb, scope) if decl.lsb is not None else 0
            for name in decl.names:
                input_names.append(name)
                width = abs(port_msb - port_lsb) + 1
                local.signals[name] = _Signal(
                    name=name, kind="wire", msb=port_msb, lsb=port_lsb,
                    nets=self.netlist.new_nets(width), is_reg=True,
                )
        if len(input_names) != len(call.arguments):
            raise ElaborationError(
                f"function {call.name!r} takes {len(input_names)} "
                f"argument(s), got {len(call.arguments)}", call.line,
            )
        for name, argument in zip(input_names, call.arguments):
            signal = local.signals[name]
            ctx = max(signal.width, self._self_width(argument, scope))
            call_env[name] = self.builder.extend(
                self._eval(argument, scope, ctx, env), signal.width
            )

        # Local declarations: regs get env slots, integers are loop vars.
        for decl in function.locals:
            if decl.kind == "integer":
                for name in decl.names:
                    local.loop_vars.setdefault(name, 0)
                continue
            local_msb = self._const_expr(decl.msb, scope) if decl.msb is not None else 0
            local_lsb = self._const_expr(decl.lsb, scope) if decl.lsb is not None else 0
            for name in decl.names:
                width = abs(local_msb - local_lsb) + 1
                local.signals[name] = _Signal(
                    name=name, kind="wire", msb=local_msb, lsb=local_lsb,
                    nets=self.netlist.new_nets(width), is_reg=True,
                )
                call_env[name] = None

        call_env[function.name] = None
        next_env: Dict[str, Optional[Bits]] = dict(call_env)
        self._function_stack.append(call.name)
        try:
            for statement in function.body:
                self._exec(statement, local, call_env, next_env)
        finally:
            self._function_stack.pop()
        result = next_env[function.name]
        if result is None:
            raise ElaborationError(
                f"function {call.name!r} never assigns its return value",
                call.line,
            )
        return result

    def _eval_bool(
        self, expr: ast.Expr, scope: _Scope, env: Optional[Dict[str, Bits]]
    ) -> Net:
        width = self._self_width(expr, scope)
        bits = self._eval(expr, scope, width, env)
        return self.builder.to_bool(bits)

    def _eval_unary(self, expr, scope, ctx, env) -> Bits:
        build = self.builder
        op = expr.op
        if op == "~":
            return build.not_vec(self._eval(expr.operand, scope, ctx, env))
        if op == "-":
            return build.neg(self._eval(expr.operand, scope, ctx, env))
        if op == "!":
            return build.extend(
                [build.not_(self._eval_bool(expr.operand, scope, env))], ctx
            )
        width = self._self_width(expr.operand, scope)
        bits = self._eval(expr.operand, scope, width, env)
        reducers = {
            "&": build.reduce_and,
            "|": build.reduce_or,
            "^": build.reduce_xor,
        }
        if op in reducers:
            return build.extend([reducers[op](bits)], ctx)
        raise ElaborationError(f"unsupported unary operator {op!r}", expr.line)

    def _eval_binary(self, expr, scope, ctx, env) -> Bits:
        build = self.builder
        op = expr.op

        if op in ("==", "!=", "<", "<=", ">", ">="):
            width = max(
                self._self_width(expr.left, scope),
                self._self_width(expr.right, scope),
            )
            left = self._eval(expr.left, scope, width, env)
            right = self._eval(expr.right, scope, width, env)
            compare = {
                "==": build.eq, "!=": build.ne,
                "<": build.lt, "<=": build.le,
                ">": build.gt, ">=": build.ge,
            }[op]
            return build.extend([compare(left, right)], ctx)

        if op in ("&&", "||"):
            left = self._eval_bool(expr.left, scope, env)
            right = self._eval_bool(expr.right, scope, env)
            combine = build.and_ if op == "&&" else build.or_
            return build.extend([combine(left, right)], ctx)

        if op in ("<<", ">>"):
            left = self._eval(expr.left, scope, ctx, env)
            amount_const = self._try_const(expr.right, scope)
            if amount_const is not None:
                shifter = build.shl_const if op == "<<" else build.shr_const
                return shifter(left, amount_const)
            amount_width = self._self_width(expr.right, scope)
            amount = self._eval(expr.right, scope, amount_width, env)
            shifter = build.shl if op == "<<" else build.shr
            return shifter(left, amount)

        left = self._eval(expr.left, scope, ctx, env)
        right = self._eval(expr.right, scope, ctx, env)
        if op == "+":
            total, _ = build.add(left, right)
            return total
        if op == "-":
            diff, _ = build.sub(left, right)
            return diff
        if op == "*":
            return build.mul(left, right, ctx)
        if op == "/":
            quotient, _ = build.divmod_unsigned(left, right)
            return build.extend(quotient, ctx)
        if op == "%":
            _, remainder = build.divmod_unsigned(left, right)
            return build.extend(remainder, ctx)
        if op == "&":
            return build.and_vec(left, right)
        if op == "|":
            return build.or_vec(left, right)
        if op == "^":
            return build.xor_vec(left, right)
        raise ElaborationError(f"unsupported binary operator {op!r}", expr.line)

    def _read_signal(
        self,
        name: str,
        scope: _Scope,
        env: Optional[Dict[str, Bits]],
        line: int,
    ) -> Bits:
        if env is not None and name in env:
            value = env[name]
            if value is None:
                raise ElaborationError(
                    f"{name!r} read before assignment in combinational always "
                    "block (latch inferred)", line,
                )
            return value
        return self._signal(name, scope, line).nets

    def _select_part(
        self, expr: ast.PartSelect, scope: _Scope, env: Optional[Dict[str, Bits]]
    ) -> Bits:
        signal = self._signal(expr.base, scope, expr.line)
        bits = self._read_signal(expr.base, scope, env, expr.line)
        msb = self._const_expr(expr.msb, scope)
        lsb = self._const_expr(expr.lsb, scope)
        msb_pos = signal.position(msb, expr.line)
        lsb_pos = signal.position(lsb, expr.line)
        if lsb_pos > msb_pos:
            raise ElaborationError(
                f"part select [{msb}:{lsb}] reversed relative to declaration "
                f"of {expr.base!r}", expr.line,
            )
        return bits[lsb_pos:msb_pos + 1]

    # ------------------------------------------------------------------
    # Continuous assignments
    # ------------------------------------------------------------------
    def _continuous_assign(self, item: ast.ContinuousAssign, scope: _Scope) -> None:
        target_nets = self._lvalue_nets(item.target, scope)
        ctx = max(len(target_nets), self._self_width(item.value, scope))
        value = self.builder.extend(
            self._eval(item.value, scope, ctx), len(target_nets)
        )
        for target, source in zip(target_nets, value):
            self.unify.union(target, source)

    def _lvalue_nets(self, expr: ast.Expr, scope: _Scope) -> Bits:
        """The storage nets an lvalue denotes (LSB first)."""
        if isinstance(expr, ast.Ident):
            return list(self._signal(expr.name, scope, expr.line).nets)
        if isinstance(expr, ast.Index):
            signal = self._signal(expr.base, scope, expr.line)
            index = self._const_expr(expr.index, scope)
            return [signal.nets[signal.position(index, expr.line)]]
        if isinstance(expr, ast.PartSelect):
            return self._select_part(expr, scope, env=None)
        if isinstance(expr, ast.Concat):
            collected: Bits = []
            for part in reversed(expr.parts):
                collected.extend(self._lvalue_nets(part, scope))
            return collected
        raise ElaborationError(f"invalid assignment target {expr!r}", expr.line)

    # ------------------------------------------------------------------
    # Always blocks
    # ------------------------------------------------------------------
    def _always(self, item: ast.Always, scope: _Scope) -> None:
        edges = [s for s in item.sensitivity if s.edge in ("posedge", "negedge")]
        if edges and len(edges) != len(item.sensitivity):
            raise ElaborationError(
                "mixed edge and level sensitivity is not supported", item.line
            )
        if len(edges) > 1:
            raise ElaborationError(
                "multiple clock edges (async resets) are not supported", item.line
            )

        targets = sorted(self._collect_targets(item.body, scope))
        if not targets:
            return
        for name in targets:
            signal = self._signal(name, scope, item.line)
            if not signal.is_reg:
                raise ElaborationError(
                    f"{name!r} assigned in always block but not declared reg",
                    item.line,
                )

        if edges:
            env: Dict[str, Optional[Bits]] = {
                name: list(scope.signals[name].nets) for name in targets
            }
            next_env = dict(env)
            self._exec(item.body, scope, env, next_env)
            negedge = edges[0].edge == "negedge"
            for name in targets:
                signal = scope.signals[name]
                for d_net, q_net in zip(next_env[name], signal.nets):
                    self.netlist.add_cell(
                        "DFF_N" if negedge else "DFF_P",
                        {"D": d_net, "Q": q_net},
                    )
        else:
            env = {name: None for name in targets}
            next_env = dict(env)
            self._exec(item.body, scope, env, next_env)
            for name in targets:
                value = next_env[name]
                if value is None:
                    raise ElaborationError(
                        f"{name!r} not assigned on all paths of combinational "
                        "always block (latch inferred)", item.line,
                    )
                for target, source in zip(scope.signals[name].nets, value):
                    self.unify.union(target, source)

    def _collect_targets(self, stmt: ast.Stmt, scope: _Scope) -> Set[str]:
        out: Set[str] = set()

        def lvalue_names(expr: ast.Expr) -> None:
            if isinstance(expr, (ast.Ident,)):
                out.add(expr.name)
            elif isinstance(expr, (ast.Index, ast.PartSelect)):
                out.add(expr.base)
            elif isinstance(expr, ast.Concat):
                for part in expr.parts:
                    lvalue_names(part)

        def walk(node: Optional[ast.Stmt]) -> None:
            if node is None:
                return
            if isinstance(node, ast.Block):
                for child in node.statements:
                    walk(child)
            elif isinstance(node, ast.Assignment):
                lvalue_names(node.target)
            elif isinstance(node, ast.If):
                walk(node.then_branch)
                walk(node.else_branch)
            elif isinstance(node, ast.Case):
                for case_item in node.items:
                    walk(case_item.body)
            elif isinstance(node, ast.For):
                walk(node.body)

        walk(stmt)
        return {name for name in out if name not in scope.loop_vars}

    def _exec(
        self,
        stmt: ast.Stmt,
        scope: _Scope,
        env: Dict[str, Optional[Bits]],
        next_env: Dict[str, Optional[Bits]],
    ) -> None:
        """Symbolically execute one statement.

        ``env`` holds values visible to reads (blocking semantics);
        ``next_env`` holds end-of-block values (what flip-flops latch).
        """
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self._exec(child, scope, env, next_env)
            return

        if isinstance(stmt, ast.Assignment):
            self._exec_assignment(stmt, scope, env, next_env)
            return

        if isinstance(stmt, ast.If):
            cond = self._eval_bool(stmt.cond, scope, env)
            env_then, next_then = dict(env), dict(next_env)
            env_else, next_else = dict(env), dict(next_env)
            if stmt.then_branch is not None:
                self._exec(stmt.then_branch, scope, env_then, next_then)
            if stmt.else_branch is not None:
                self._exec(stmt.else_branch, scope, env_else, next_else)
            for key in env:
                env[key] = self._merge(cond, env_then[key], env_else[key], stmt.line)
            for key in next_env:
                next_env[key] = self._merge(
                    cond, next_then[key], next_else[key], stmt.line
                )
            return

        if isinstance(stmt, ast.Case):
            self._exec(self._desugar_case(stmt, scope), scope, env, next_env)
            return

        if isinstance(stmt, ast.For):
            self._exec_for(stmt, scope, env, next_env)
            return

        raise ElaborationError(f"unsupported statement {stmt!r}", stmt.line)

    def _merge(
        self,
        cond: Net,
        then_value: Optional[Bits],
        else_value: Optional[Bits],
        line: int,
    ) -> Optional[Bits]:
        if then_value is None and else_value is None:
            return None
        if then_value is None or else_value is None:
            # Assigned on one path only.  For sequential blocks env never
            # holds None, so this is a combinational latch.
            raise ElaborationError(
                "signal assigned on only one branch of a combinational "
                "always block (latch inferred)", line,
            )
        return self.builder.mux_vec(cond, else_value, then_value)

    def _exec_assignment(self, stmt, scope, env, next_env) -> None:
        build = self.builder
        read_env = env  # reads see blocking updates
        target_width = self._lvalue_width(stmt.target, scope)
        ctx = max(target_width, self._self_width(stmt.value, scope))
        value = build.extend(
            self._eval(stmt.value, scope, ctx, read_env), target_width
        )
        self._store(stmt.target, value, scope, env, next_env, stmt.blocking)

    def _lvalue_width(self, expr: ast.Expr, scope: _Scope) -> int:
        if isinstance(expr, ast.Ident):
            return self._signal(expr.name, scope, expr.line).width
        if isinstance(expr, ast.Index):
            return 1
        if isinstance(expr, ast.PartSelect):
            msb = self._const_expr(expr.msb, scope)
            lsb = self._const_expr(expr.lsb, scope)
            return abs(msb - lsb) + 1
        if isinstance(expr, ast.Concat):
            return sum(self._lvalue_width(p, scope) for p in expr.parts)
        raise ElaborationError(f"invalid assignment target {expr!r}", expr.line)

    def _store(self, target, value: Bits, scope, env, next_env, blocking: bool) -> None:
        if isinstance(target, ast.Ident):
            self._store_name(target.name, value, env, next_env, blocking, target.line, scope)
            return
        if isinstance(target, (ast.Index, ast.PartSelect)):
            name = target.base
            signal = self._signal(name, scope, target.line)
            current = self._current_value(name, env, next_env, scope, target.line)
            new_bits = list(current)
            if isinstance(target, ast.Index):
                index = self._const_expr(target.index, scope)
                new_bits[signal.position(index, target.line)] = value[0]
            else:
                msb = self._const_expr(target.msb, scope)
                lsb = self._const_expr(target.lsb, scope)
                low = signal.position(lsb, target.line)
                high = signal.position(msb, target.line)
                new_bits[low:high + 1] = value
            self._store_name(name, new_bits, env, next_env, blocking, target.line, scope)
            return
        if isinstance(target, ast.Concat):
            offset = 0
            for part in reversed(target.parts):
                width = self._lvalue_width(part, scope)
                self._store(
                    part, value[offset:offset + width], scope, env, next_env, blocking
                )
                offset += width
            return
        raise ElaborationError(f"invalid assignment target {target!r}", target.line)

    def _current_value(self, name, env, next_env, scope, line) -> Bits:
        """Value for read-modify-write of a partial assignment."""
        value = env.get(name)
        if value is None and name in env:
            raise ElaborationError(
                f"partial assignment to {name!r} before any full assignment "
                "in combinational always block", line,
            )
        if value is not None:
            return value
        return self._signal(name, scope, line).nets

    @staticmethod
    def _store_name(name, value, env, next_env, blocking, line, scope) -> None:
        if name not in env:
            raise ElaborationError(
                f"assignment to {name!r} which is not a collected target", line
            )
        next_env[name] = list(value)
        if blocking:
            env[name] = list(value)

    def _desugar_case(self, stmt: ast.Case, scope: _Scope) -> ast.Stmt:
        """Lower a case statement to an if/else chain."""
        default: Optional[ast.Stmt] = None
        chain: Optional[ast.Stmt] = None
        items = []
        for item in stmt.items:
            if not item.labels:
                default = item.body
            else:
                items.append(item)
        chain = default if default is not None else ast.Block(line=stmt.line)
        for item in reversed(items):
            cond: Optional[ast.Expr] = None
            for label in item.labels:
                test = ast.Binary(
                    line=item.line, op="==", left=stmt.subject, right=label
                )
                cond = test if cond is None else ast.Binary(
                    line=item.line, op="||", left=cond, right=test
                )
            chain = ast.If(
                line=item.line, cond=cond, then_branch=item.body, else_branch=chain
            )
        return chain

    def _exec_for(self, stmt: ast.For, scope, env, next_env) -> None:
        if stmt.var != stmt.update_var:
            raise ElaborationError(
                "for loop must update its own variable "
                f"({stmt.var!r} vs {stmt.update_var!r})", stmt.line,
            )
        if stmt.var not in scope.loop_vars:
            raise ElaborationError(
                f"loop variable {stmt.var!r} must be declared integer or genvar",
                stmt.line,
            )
        scope.loop_vars[stmt.var] = self._const_expr(stmt.init, scope)
        iterations = 0
        while True:
            cond = self._try_const(stmt.cond, scope)
            if cond is None:
                raise ElaborationError(
                    "for-loop condition must be compile-time constant "
                    "(loops with unknown trip count cannot be synthesized)",
                    stmt.line,
                )
            if not cond:
                break
            self._exec(stmt.body, scope, env, next_env)
            scope.loop_vars[stmt.var] = self._const_expr(stmt.update, scope)
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise ElaborationError("for loop exceeds unroll limit", stmt.line)

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    def _instance(self, item: ast.Instance, scope: _Scope) -> None:
        try:
            submodule = self.source.module(item.module)
        except KeyError:
            raise ElaborationError(
                f"unknown module {item.module!r}", item.line
            ) from None
        overrides = {
            name: self._const_expr(expr, scope) for name, expr in item.parameters
        }
        # Keyed on the overrides too, so a recursion that a parameter
        # ends (through generate for) still elaborates.
        key = (submodule.name, tuple(sorted(overrides.items())))
        if key in self._module_stack:
            cycle = [name for name, _ in self._module_stack[self._module_stack.index(key):]]
            raise ElaborationError(
                f"module {submodule.name!r} instantiates itself: "
                f"{' -> '.join(cycle + [submodule.name])}", item.line,
            )
        if len(self._module_stack) >= _MAX_INSTANCE_DEPTH:
            raise ElaborationError(
                f"instances nest more than {_MAX_INSTANCE_DEPTH} deep at "
                f"module {submodule.name!r}", item.line,
            )
        prefix = f"{scope.prefix}{item.name}."
        self._module_stack.append(key)
        try:
            child = self._elaborate_module(submodule, prefix, overrides)
        finally:
            self._module_stack.pop()

        # Resolve connections to (port name -> expr).
        connections: Dict[str, Optional[ast.Expr]] = {}
        positional = all(c.port is None for c in item.connections)
        if positional and item.connections:
            if len(item.connections) > len(submodule.port_order):
                raise ElaborationError("too many positional connections", item.line)
            for port_name, conn in zip(submodule.port_order, item.connections):
                connections[port_name] = conn.expr
        else:
            for conn in item.connections:
                if conn.port is None:
                    raise ElaborationError(
                        "cannot mix positional and named connections", item.line
                    )
                if conn.port in connections:
                    raise ElaborationError(
                        f"port {conn.port!r} connected twice", item.line
                    )
                connections[conn.port] = conn.expr

        for port_name in submodule.port_order:
            signal = child.signals[port_name]
            expr = connections.get(port_name)
            if expr is None:
                if signal.kind == "input":
                    raise ElaborationError(
                        f"input port {port_name!r} of {item.name!r} unconnected",
                        item.line,
                    )
                continue  # unconnected output is fine
            if signal.kind == "input":
                ctx = max(signal.width, self._self_width(expr, scope))
                value = self.builder.extend(
                    self._eval(expr, scope, ctx), signal.width
                )
                for port_net, value_net in zip(signal.nets, value):
                    self.unify.union(port_net, value_net)
            elif signal.kind == "output":
                parent_nets = self._lvalue_nets(expr, scope)
                width = min(len(parent_nets), signal.width)
                for parent_net, port_net in zip(parent_nets[:width], signal.nets[:width]):
                    self.unify.union(parent_net, port_net)
                if len(parent_nets) > signal.width:
                    # Zero-extend: upper parent bits are constant 0.
                    zero = self.builder.const_bit(False)
                    for parent_net in parent_nets[signal.width:]:
                        self.unify.union(parent_net, zero)
            else:
                raise ElaborationError(
                    f"port {port_name!r} is not an input or output", item.line
                )


def elaborate(
    source: Union[str, ast.SourceFile],
    top: Optional[str] = None,
    parameters: Optional[Dict[str, int]] = None,
) -> Netlist:
    """Elaborate Verilog source to a gate-level netlist.

    Args:
        source: Verilog text or an already-parsed :class:`SourceFile`.
        top: name of the top module (defaults to the last one defined).
        parameters: overrides for the top module's parameters.

    Returns:
        A validated :class:`~repro.synth.netlist.Netlist`.
    """
    if isinstance(source, str):
        source = parse(source)
    return _Elaborator(source).run(top=top, parameters=parameters)
