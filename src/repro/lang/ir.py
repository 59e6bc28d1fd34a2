"""Three-address intermediate representation with a per-function CFG.

Values live in an unbounded set of virtual registers (:class:`VReg`);
an *operand* is either a ``VReg`` or a Python ``int`` immediate.  Each
function is a list of :class:`Block` objects, each with straight-line
instructions and exactly one terminator.  Every instruction knows its
defs and uses, which the liveness analysis, the hoisting scheduler, and
the register allocator consume uniformly.

Instruction provenance (``"sched"``, ``"callee-save"``) is threaded
through to the generated assembly so the characterization experiments
can attribute dynamically dead instances to their compiler origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union


class VReg(NamedTuple):
    """A virtual register: a one-field tuple, so that hashing and
    equality, which liveness and allocation do for every operand, run
    in C."""

    id: int

    def __repr__(self) -> str:
        return "v%d" % self.id


Operand = Union[VReg, int]


def operand_vregs(*operands: Operand) -> List[VReg]:
    """The virtual registers among *operands* (immediates dropped)."""
    return [op for op in operands if isinstance(op, VReg)]


# --------------------------------------------------------------------
# Straight-line instructions
# --------------------------------------------------------------------


@dataclass
class IRInstr:
    """Base class; subclasses define ``defs()``/``uses()``."""

    provenance: Optional[str] = field(default=None, init=False)

    def defs(self) -> List[VReg]:
        return []

    def uses(self) -> List[VReg]:
        return []

    @property
    def side_effect_free(self) -> bool:
        """Safe to execute speculatively (hoistable past a branch)."""
        return False


@dataclass
class Const(IRInstr):
    dst: VReg = None
    value: int = 0

    def defs(self):
        return [self.dst]

    @property
    def side_effect_free(self):
        return True


@dataclass
class Move(IRInstr):
    dst: VReg = None
    src: Operand = 0

    def defs(self):
        return [self.dst]

    def uses(self):
        return operand_vregs(self.src)

    @property
    def side_effect_free(self):
        return True


@dataclass
class BinOp(IRInstr):
    """dst <- a OP b.

    ``op`` is one of ``+ - * / % & | ^ << >>`` or a comparison
    ``== != < <= > >=`` producing 0/1.  Division and remainder are
    total in this ISA (no faults), so every BinOp is speculation-safe.
    """

    dst: VReg = None
    op: str = ""
    a: Operand = 0
    b: Operand = 0

    def defs(self):
        return [self.dst]

    def uses(self):
        return operand_vregs(self.a, self.b)

    @property
    def side_effect_free(self):
        return True


@dataclass
class UnOp(IRInstr):
    dst: VReg = None
    op: str = ""  # '-', '!', '~'
    a: Operand = 0

    def defs(self):
        return [self.dst]

    def uses(self):
        return operand_vregs(self.a)

    @property
    def side_effect_free(self):
        return True


@dataclass
class GlobalAddr(IRInstr):
    """dst <- address of global *name* (gp-relative at codegen)."""

    dst: VReg = None
    name: str = ""

    def defs(self):
        return [self.dst]

    @property
    def side_effect_free(self):
        return True


@dataclass
class FrameAddr(IRInstr):
    """dst <- address of local-array frame slot *slot*."""

    dst: VReg = None
    slot: int = 0

    def defs(self):
        return [self.dst]

    @property
    def side_effect_free(self):
        return True


@dataclass
class Load(IRInstr):
    """dst <- mem[base + offset]."""

    dst: VReg = None
    base: VReg = None
    offset: int = 0

    def defs(self):
        return [self.dst]

    def uses(self):
        return [self.base]

    @property
    def side_effect_free(self):
        # Loads are architecturally side-effect free, but a hoisted load
        # may compute a wild address (e.g. a bounds-checked index on the
        # path where the check fails), so the scheduler treats them as
        # hoistable only under an explicit option.
        return False


@dataclass
class Store(IRInstr):
    """mem[base + offset] <- src."""

    src: Operand = 0
    base: VReg = None
    offset: int = 0

    def uses(self):
        return operand_vregs(self.src, self.base)


@dataclass
class LoadGlobal(IRInstr):
    """dst <- global scalar *name*."""

    dst: VReg = None
    name: str = ""

    def defs(self):
        return [self.dst]

    @property
    def side_effect_free(self):
        return False  # same policy as Load (uniform treatment)


@dataclass
class StoreGlobal(IRInstr):
    src: Operand = 0
    name: str = ""

    def uses(self):
        return operand_vregs(self.src)


@dataclass
class Param(IRInstr):
    """dst <- incoming argument *index* (a0-a3 at codegen)."""

    dst: VReg = None
    index: int = 0

    def defs(self):
        return [self.dst]


@dataclass
class Call(IRInstr):
    dst: Optional[VReg] = None
    name: str = ""
    args: List[Operand] = field(default_factory=list)

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def uses(self):
        return operand_vregs(*self.args)


@dataclass
class Print(IRInstr):
    """Emit the integer value (syscall 1)."""

    value: Operand = 0

    def uses(self):
        return operand_vregs(self.value)


# --------------------------------------------------------------------
# Terminators
# --------------------------------------------------------------------


@dataclass
class Terminator(IRInstr):
    def successors(self) -> List[str]:
        return []


@dataclass
class Jump(Terminator):
    target: str = ""

    def successors(self):
        return [self.target]


@dataclass
class CondBr(Terminator):
    """Branch to *if_true* when ``a OP b`` holds, else *if_false*.

    ``op`` is one of ``== != < <= > >=`` (signed).
    """

    op: str = ""
    a: Operand = 0
    b: Operand = 0
    if_true: str = ""
    if_false: str = ""

    def uses(self):
        return operand_vregs(self.a, self.b)

    def successors(self):
        return [self.if_true, self.if_false]


@dataclass
class Ret(Terminator):
    value: Optional[Operand] = None

    def uses(self):
        if self.value is None:
            return []
        return operand_vregs(self.value)


# --------------------------------------------------------------------
# Containers
# --------------------------------------------------------------------


@dataclass
class Block:
    label: str
    instrs: List[IRInstr] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def successors(self) -> List[str]:
        if self.terminator is None:
            return []
        return self.terminator.successors()


@dataclass
class IRFunction:
    name: str
    params: List[VReg] = field(default_factory=list)
    blocks: List[Block] = field(default_factory=list)
    returns_value: bool = False
    #: frame slot id -> size in bytes (local arrays)
    frame_slots: Dict[int, int] = field(default_factory=dict)
    next_vreg: int = 0

    def new_vreg(self) -> VReg:
        vreg = VReg(self.next_vreg)
        self.next_vreg += 1
        return vreg

    def block_map(self) -> Dict[str, Block]:
        return {block.label: block for block in self.blocks}

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {block.label: [] for block in
                                       self.blocks}
        for block in self.blocks:
            for successor in block.successors():
                preds[successor].append(block.label)
        return preds


@dataclass
class IRModule:
    functions: List[IRFunction] = field(default_factory=list)
    #: global name -> (size in words, initializer values)
    globals: Dict[str, Tuple[int, List[int]]] = field(default_factory=dict)

    def function(self, name: str) -> IRFunction:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(name)
