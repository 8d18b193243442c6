"""A tiny prefix-free bit-emitting virtual machine ("toyvm-1").

Programs are self-delimiting bitstrings: an Elias-gamma header encoding the
body length, followed by exactly that many body bits.  Because the header
determines the total length, no valid program is a proper prefix of another,
and the weights 2**-len(P) over all programs sum to at most 1 (Kraft).

Machine spec, frozen as version "toyvm-1"
-----------------------------------------
Header: gamma(L+1) where L >= 0 is the body bit length.  gamma(n) for n >= 1
is floor(log2 n) zeros followed by the binary expansion of n.

Body: a stream of 4-bit opcodes, executed left to right from index 0.
Trailing bits that do not fill a whole opcode are padding and are never
executed (but see QUOTE/REPEAT, which consume the raw tail as data).

    0000  EMIT0   append "0" to the output
    0001  EMIT1   append "1" to the output
    0010  RAND    append the next bit of the random stream to the output
    0011  QUOTE   append every remaining body bit verbatim, then halt
    0100  JMP     jump back one instruction (pc <- pc - 1)
    0101  JMPZ    if the counter is zero, jump back one instruction
    0110  INC     counter <- min(counter + 1, 255)
    0111  DEC     counter <- max(counter - 1, 0)
    1000  REPEAT  parse the remaining body as gamma(r-1) + pattern; append
                  the pattern r times, then halt (malformed tail: just halt)
    1001  HALT    halt
    1010..1111    reserved; executes as HALT

A program halts when it executes HALT, runs past either end of the
instruction stream (the empty program therefore halts immediately with empty
output), or finishes a QUOTE/REPEAT.  Execution also stops, *without*
halting, when a budget runs out: steps (one per executed instruction, plus
one per bit emitted by QUOTE/REPEAT), random bits, or output bits.

Random bits are write-through: RAND copies a stream bit to the output and
nothing else ever reads it, so the control path, step count and output
*length* of a run do not depend on the stream.  Several routines below lean
on that invariant (sure-halting is a single simulation; an output is a fixed
template whose RAND slots carry independent fair bits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import KnightianError

MACHINE_VERSION = "toyvm-1"

OPCODE_WIDTH = 4

EMIT0 = "0000"
EMIT1 = "0001"
RAND = "0010"
QUOTE = "0011"
JMP = "0100"
JMPZ = "0101"
INC = "0110"
DEC = "0111"
REPEAT = "1000"
HALT = "1001"

OPCODE_NAMES = {
    EMIT0: "EMIT0",
    EMIT1: "EMIT1",
    RAND: "RAND",
    QUOTE: "QUOTE",
    JMP: "JMP",
    JMPZ: "JMPZ",
    INC: "INC",
    DEC: "DEC",
    REPEAT: "REPEAT",
    HALT: "HALT",
}

COUNTER_MAX = 255

#: Distinguished outcome for "did not emit enough bits within budget".
ABSTAIN = "⊥"

ENUMERATION_GUARD = 24


class BadHeader(KnightianError):
    """The leading bits are not a complete Elias-gamma code."""


class LengthMismatch(KnightianError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"program must be exactly {expected} bits, got {got}")
        self.expected = expected
        self.got = got


class LimitExceeded(KnightianError):
    """Requested enumeration bound is beyond the desk-scale guard."""


def check_bits(bits: str) -> None:
    if not all(c in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")


def gamma_encode(n: int) -> str:
    """Elias-gamma code of n >= 1."""
    if n < 1:
        raise ValueError("gamma code is defined for n >= 1")
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def gamma_decode(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode a gamma code starting at pos; return (value, next position)."""
    z = pos
    while z < len(bits) and bits[z] == "0":
        z += 1
    if z == len(bits):
        raise BadHeader("ran out of bits scanning for the gamma stop bit")
    k = z - pos
    end = z + 1 + k
    if end > len(bits):
        raise BadHeader("gamma code truncated")
    return int(bits[z:end], 2), end


@dataclass(frozen=True)
class Program:
    """A validated self-delimiting program: header + body."""

    code: str
    body: str

    def __len__(self) -> int:
        return len(self.code)

    def __str__(self) -> str:
        return self.code


def decode(bits: str) -> Program:
    """Parse bits as exactly one program (header + body, nothing more)."""
    check_bits(bits)
    length, pos = gamma_decode(bits)
    body_len = length - 1
    expected = pos + body_len
    if len(bits) != expected:
        raise LengthMismatch(expected, len(bits))
    return Program(code=bits, body=bits[pos:])


def from_body(body: str) -> Program:
    """Build the unique valid program with the given body."""
    check_bits(body)
    return Program(code=gamma_encode(len(body) + 1) + body, body=body)


def header_length(body_len: int) -> int:
    return len(gamma_encode(body_len + 1))


@dataclass(frozen=True)
class MachineConfig:
    """Per-run budgets keeping every execution finite."""

    step_budget: int = 512
    rand_budget: int = 24
    output_budget: int = 64

    def __post_init__(self):
        if self.step_budget < 1 or self.output_budget < 1:
            raise ValueError("step and output budgets must be >= 1")
        if self.rand_budget < 0:
            raise ValueError("rand budget must be >= 0")


@dataclass(frozen=True)
class RunResult:
    output: str
    halted: bool
    steps_used: int
    rands_used: int


def run(program: Program, cfg: MachineConfig, rand_stream: str) -> RunResult:
    """Execute a program to completion or budget exhaustion.

    Deterministic in (program, cfg, rand_stream).  The stream must cover the
    whole rand budget so a run can never block on missing bits.
    """
    check_bits(rand_stream)
    if len(rand_stream) < cfg.rand_budget:
        raise ValueError(
            f"rand_stream must supply at least rand_budget={cfg.rand_budget} bits"
        )
    return _execute(program.body, cfg, rand_stream)


def _execute(body: str, cfg: MachineConfig, rand_stream: str) -> RunResult:
    # The interpreter behind run(), without its input checks.  RAND copies
    # stream symbols verbatim, which lets _template pass non-bit markers.
    n_instr = len(body) // OPCODE_WIDTH
    out: list[str] = []
    pc = 0
    counter = 0
    steps = 0
    rands = 0

    def stopped(halted: bool) -> RunResult:
        return RunResult("".join(out), halted, steps, rands)

    while True:
        if pc < 0 or pc >= n_instr:
            return stopped(True)
        if steps >= cfg.step_budget:
            return stopped(False)
        op = body[pc * OPCODE_WIDTH : (pc + 1) * OPCODE_WIDTH]
        steps += 1
        if op == EMIT0 or op == EMIT1:
            if len(out) >= cfg.output_budget:
                return stopped(False)
            out.append(op[-1])
            pc += 1
        elif op == RAND:
            if rands >= cfg.rand_budget:
                return stopped(False)
            if len(out) >= cfg.output_budget:
                return stopped(False)
            out.append(rand_stream[rands])
            rands += 1
            pc += 1
        elif op == QUOTE:
            tail = body[(pc + 1) * OPCODE_WIDTH :]
            for bit in tail:
                if steps >= cfg.step_budget:
                    return stopped(False)
                if len(out) >= cfg.output_budget:
                    return stopped(False)
                steps += 1
                out.append(bit)
            return stopped(True)
        elif op == REPEAT:
            tail = body[(pc + 1) * OPCODE_WIDTH :]
            try:
                r_minus_1, pos = gamma_decode(tail)
            except BadHeader:
                return stopped(True)
            pattern = tail[pos:]
            if not pattern:
                return stopped(True)
            for bit in itertools.chain.from_iterable([pattern] * (r_minus_1 + 1)):
                if steps >= cfg.step_budget:
                    return stopped(False)
                if len(out) >= cfg.output_budget:
                    return stopped(False)
                steps += 1
                out.append(bit)
            return stopped(True)
        elif op == JMP:
            pc -= 1
        elif op == JMPZ:
            pc = pc - 1 if counter == 0 else pc + 1
        elif op == INC:
            counter = min(counter + 1, COUNTER_MAX)
            pc += 1
        elif op == DEC:
            counter = max(counter - 1, 0)
            pc += 1
        else:  # HALT and all reserved opcodes
            return stopped(True)


def enumerate_programs(max_len: int, guard: int = ENUMERATION_GUARD) -> list[Program]:
    """All valid programs with total length <= max_len, length-then-lex order."""
    if max_len > guard:
        raise LimitExceeded(f"max_len {max_len} exceeds the guard {guard}")
    programs = []
    body_len = 0
    while header_length(body_len) + body_len <= max_len:
        if body_len == 0:
            programs.append(from_body(""))
        else:
            for bits in itertools.product("01", repeat=body_len):
                programs.append(from_body("".join(bits)))
        body_len += 1
    return programs


def kraft_sum(programs: list[Program]) -> Fraction:
    return sum((Fraction(1, 2 ** len(p)) for p in programs), Fraction(0))


# -- exact output distributions ------------------------------------------------

# A template is the run's output with RAND slots left symbolic, legal because
# control flow never reads the stream: ('lit', b) or ('rand', None) per bit,
# plus whether the run halted.

_RAND_MARK = "?"
_SLOTS = {"0": ("lit", "0"), "1": ("lit", "1"), _RAND_MARK: ("rand", None)}


@lru_cache(maxsize=None)
def _template(body: str, cfg: MachineConfig) -> tuple[tuple[tuple[str, str | None], ...], bool]:
    # One run on a stream of markers: RAND is write-through, so every marker
    # in the output is a RAND slot and every other symbol a literal bit.
    r = _execute(body, cfg, _RAND_MARK * cfg.rand_budget)
    return tuple(_SLOTS[c] for c in r.output), r.halted


def output_template(program: Program, cfg: MachineConfig) -> tuple[tuple[tuple[str, str | None], ...], bool]:
    """The run's output as literal bits and independent fair RAND slots."""
    return _template(program.body, cfg)


def prefix_probability(program: Program, prefix: str, cfg: MachineConfig) -> Fraction:
    """Exact probability that the first len(prefix) output bits equal prefix.

    Zero when the program cannot emit that many bits within budget.
    """
    check_bits(prefix)
    slots, _halted = output_template(program, cfg)
    if len(slots) < len(prefix):
        return Fraction(0)
    n_rand = 0
    for (kind, bit), want in zip(slots, prefix):
        if kind == "lit":
            if bit != want:
                return Fraction(0)
        else:
            n_rand += 1
    return Fraction(1, 2**n_rand)


def output_distribution(
    program: Program, n: int, cfg: MachineConfig
) -> dict[str, Fraction]:
    """Exact distribution of the first n output bits.

    Runs that emit fewer than n bits within budget put their whole mass on
    the abstention outcome ABSTAIN.  Masses always sum to exactly 1.
    """
    if n > cfg.output_budget:
        raise ValueError(f"n={n} exceeds output_budget={cfg.output_budget}")
    slots, _halted = output_template(program, cfg)
    if len(slots) < n:
        return {ABSTAIN: Fraction(1)}
    head = slots[:n]
    rand_positions = [i for i, (kind, _) in enumerate(head) if kind == "rand"]
    base = [bit for _, bit in head]
    weight = Fraction(1, 2 ** len(rand_positions))
    dist: dict[str, Fraction] = {}
    for fill in itertools.product("01", repeat=len(rand_positions)):
        word = base[:]
        for pos, bit in zip(rand_positions, fill):
            word[pos] = bit
        dist["".join(word)] = weight
    return dist


def sure_halts(program: Program, cfg: MachineConfig) -> bool:
    """True iff every random branch halts within budget (all branches agree)."""
    _slots, halted = output_template(program, cfg)
    return halted


def contains_rand(program: Program) -> bool:
    """Static scan: does the executable instruction stream contain RAND?

    QUOTE and REPEAT turn the rest of the body into data, so the scan stops
    there; bits past them (and trailing padding) are not instructions.
    """
    body = program.body
    for k in range(len(body) // OPCODE_WIDTH):
        op = body[k * OPCODE_WIDTH : (k + 1) * OPCODE_WIDTH]
        if op == RAND:
            return True
        if op in (QUOTE, REPEAT):
            return False
    return False


def mirror(program: Program) -> Program:
    """The bit-flip twin: same length, outputs are the complement in law.

    Swaps EMIT0/EMIT1, complements QUOTE payloads and REPEAT patterns, and
    leaves everything else (including REPEAT's count code) alone.
    """
    body = program.body
    out = []
    k = 0
    n_instr = len(body) // OPCODE_WIDTH
    while k < n_instr:
        op = body[k * OPCODE_WIDTH : (k + 1) * OPCODE_WIDTH]
        if op == EMIT0:
            out.append(EMIT1)
        elif op == EMIT1:
            out.append(EMIT0)
        elif op == QUOTE:
            tail = body[(k + 1) * OPCODE_WIDTH :]
            out.append(op)
            out.append("".join("1" if b == "0" else "0" for b in tail))
            return from_body("".join(out))
        elif op == REPEAT:
            tail = body[(k + 1) * OPCODE_WIDTH :]
            out.append(op)
            try:
                _, pos = gamma_decode(tail)
            except BadHeader:
                out.append(tail)
                return from_body("".join(out))
            flipped = "".join("1" if b == "0" else "0" for b in tail[pos:])
            out.append(tail[:pos] + flipped)
            return from_body("".join(out))
        else:
            out.append(op)
        k += 1
    out.append(body[n_instr * OPCODE_WIDTH :])  # padding unchanged
    return from_body("".join(out))
