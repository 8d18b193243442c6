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

Jumps go back one instruction, so a run can repeat a state only by
alternating a taken jump with the op before it.  Three such pairs never emit,
halt or leave: INC or DEC before JMP, a JMPZ that falls through before JMP,
and DEC before a taken JMPZ.  Only the step budget can end them, and it ends
them with the output, rands and halted flag they had on entry, so the
interpreter spends the rest of the budget at once instead of stepping it.

Random bits are write-through: RAND copies a stream bit to the output and
nothing else ever reads it, so the control path, step count and output
*length* of a run do not depend on the stream.  Several routines below lean
on that invariant: one run on a stream of "?" markers gives a program's
template, its output with "?" at each RAND slot, whose slots carry
independent fair bits; sure-halting is read off that same run.  census runs
the whole class on such a stream, once per shared opcode prefix: jumps go
back one instruction, so a run reaches instruction k in a state that the
first k opcodes fix.  It groups the programs by template, and a class is its
template and its weight, all a mixture reads of it.
"""

from __future__ import annotations

import itertools
from array import array
from fractions import Fraction
from functools import lru_cache

from .errors import KnightianError
from .record import Record

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

COUNTER_MAX = 255

ENUMERATION_GUARD = 24
# the largest step, rand and output budget: with all three at 512 the census at
# bound 24 takes 0.018-0.021 s in a fresh process on a 2-core Xeon VM, a little
# longer than the 0.014-0.018 s at the defaults
BUDGET_GUARD = 512


class BadHeader(KnightianError):
    """The leading bits are not a complete Elias-gamma code."""


class LengthMismatch(KnightianError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"program must be exactly {expected} bits, got {got}")


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


def gamma_decode(bits: str) -> tuple[int, int]:
    """Decode the gamma code at the start of bits; return (value, the position after it)."""
    z = len(bits) - len(bits.lstrip("0"))  # the leading zeros
    if z == len(bits):
        raise BadHeader("ran out of bits scanning for the gamma stop bit")
    end = 2 * z + 1
    if end > len(bits):
        raise BadHeader("gamma code truncated")
    return int(bits[z:end], 2), end


class Program(Record):
    """A validated self-delimiting program: header + body."""

    code: str
    body: str

    def __len__(self) -> int:
        return len(self.code)


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


class MachineConfig(Record):
    """Per-run budgets keeping every execution finite."""

    step_budget: int = 512
    rand_budget: int = 24
    output_budget: int = 64

    def __post_init__(self):
        for key, low in (("step_budget", 1), ("rand_budget", 0), ("output_budget", 1)):
            value = getattr(self, key)
            if not low <= value <= BUDGET_GUARD:
                raise ValueError(f"{key!r} must lie in [{low}, {BUDGET_GUARD}], got {value}")


class RunResult(Record):
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
    # stream symbols verbatim, which lets output_template and census pass
    # non-bit markers.
    out: list[str] = []
    halted, _counter, steps, rands = _resume(body, cfg, rand_stream, out)
    return RunResult("".join(out), halted is not False, steps, rands)


def _resume(
    body: str,
    cfg: MachineConfig,
    rand_stream: str,
    out: list[str],
    pc: int = 0,
    counter: int = 0,
    steps: int = 0,
    rands: int = 0,
) -> tuple[bool | None, int, int, int]:
    # The one step loop: run body from the state (pc, counter, steps, rands,
    # out), appending to out, and return (halted, counter, steps, rands).
    # halted is None when the pc runs past the last instruction: that halts a
    # whole body's run, while census resumes there on a longer prefix.  Each
    # kind of step has one path: the pc moves on as an op is fetched (a taken
    # jump steps back two), EMIT0, EMIT1 and RAND share one budget check, and
    # QUOTE and REPEAT emit their data (_data) as one slice that the step and
    # output budgets bound.  A jump taken into a silent two-op loop (see the
    # module docstring) spends the rest of the step budget at once.  The
    # counter it then returns is stale, but a counter is read only when halted
    # is None, where census resumes.
    n_instr = len(body) // OPCODE_WIDTH

    def stopped(halted: bool | None) -> tuple[bool | None, int, int, int]:
        return halted, counter, steps, rands

    while 0 <= pc < n_instr:
        if steps >= cfg.step_budget:
            return stopped(False)
        op = body[pc * OPCODE_WIDTH : (pc + 1) * OPCODE_WIDTH]
        steps += 1
        pc += 1
        if op == EMIT0 or op == EMIT1 or op == RAND:
            rand = op == RAND
            if len(out) >= cfg.output_budget or (rand and rands >= cfg.rand_budget):
                return stopped(False)
            out.append(rand_stream[rands] if rand else op[-1])
            rands += rand
        elif op == JMP or op == JMPZ:
            if op == JMP or counter == 0:
                pc -= 2
                # the op jumped onto ("" off the body): the three silent pairs
                prev = body[pc * OPCODE_WIDTH : (pc + 1) * OPCODE_WIDTH]
                if prev == DEC or op == JMP and (prev == INC or prev == JMPZ and counter):
                    steps = cfg.step_budget
                    return stopped(False)
        elif op == QUOTE or op == REPEAT:
            room = min(cfg.step_budget - steps, cfg.output_budget - len(out))
            data, done = _data(op, body[pc * OPCODE_WIDTH :], room)
            steps += len(data)
            out.extend(data)
            return stopped(done)
        elif op == INC:
            counter = min(counter + 1, COUNTER_MAX)
        elif op == DEC:
            counter = max(counter - 1, 0)
        else:  # HALT and all reserved opcodes
            return stopped(True)
    return stopped(None if pc == n_instr else True)


def _data(op: str, tail: str, room: int) -> tuple[str, bool]:
    # What the data op QUOTE or REPEAT emits from the raw body tail after it,
    # cut to its first room bits (each costs one step and one output bit), and
    # whether that is all of it, i.e. whether the run halts.  QUOTE emits the
    # tail; REPEAT parses it as gamma(r - 1) + pattern and emits the pattern r
    # times, or nothing when the tail is malformed.
    if op == REPEAT:
        try:
            r_minus_1, pos = gamma_decode(tail)
        except BadHeader:
            return "", True
        [data], done = _repeat(r_minus_1 + 1, (tail[pos:],), room)
        return data, done
    return tail[:room], len(tail) <= room


def _repeat(r: int, patterns: tuple[str, ...], room: int) -> tuple[list[str], bool]:
    # REPEAT's rule for a block of tails with one header gamma(r - 1): each
    # emits its pattern r times, cut to room.  The patterns share a length, so
    # the copies that show and whether all of them fit are the block's.
    width = len(patterns[0])
    copies = min(r, room // max(width, 1) + 1)  # copies past the room never show
    return [(pattern * copies)[:room] for pattern in patterns], width * copies <= room


def _repeat_tails(m: int, room: int) -> list[tuple[str, bool]]:
    # _data(REPEAT, tail, room) for every m-bit tail, in lex order, one header
    # block at a time.  The all-zero tail and those too short for their header
    # (2z + 1 bits after z leading zeros) come first, and emit nothing and
    # halt; then, for z down to 0, each header of 2z + 1 bits heads the block
    # of every pattern of the m - 2z - 1 bits left.
    runs = [("", True)] * (1 << (m - (m + 1) // 2))
    for z in reversed(range((m + 1) // 2)):
        patterns = _tails(m - 2 * z - 1)
        for r in range((1 << z) + 1, (2 << z) + 1):
            data, done = _repeat(r, patterns, room)
            runs += zip(data, itertools.repeat(done))
    return runs


@lru_cache(maxsize=None)
def _tails(m: int) -> tuple[str, ...]:
    # every m-bit string, in lex order
    return tuple(map("".join, itertools.product("01", repeat=m)))


def enumerate_programs(max_len: int) -> list[str]:
    """The codes of all valid programs with total length <= max_len, length-then-lex order.

    The bodies of each length come from itertools.product (one empty tuple at
    length 0) behind that length's header, encoded once.
    """
    if max_len > ENUMERATION_GUARD:
        raise LimitExceeded(f"'bound' = {max_len} exceeds the guard {ENUMERATION_GUARD}")
    codes = []
    for body_len in itertools.count():
        header = gamma_encode(body_len + 1)
        if len(header) + body_len > max_len:
            return codes
        codes.extend(header + "".join(bits) for bits in itertools.product("01", repeat=body_len))


# -- exact output distributions ------------------------------------------------

_RAND_MARK = "?"


def output_template(program: Program, cfg: MachineConfig) -> tuple[str, bool]:
    """The run's output with "?" at each RAND slot, and whether it halted.

    RAND is write-through, so a run on a stream of "?" markers gives it; a
    census class is this string with its weight.
    """
    r = _execute(program.body, cfg, _RAND_MARK * cfg.rand_budget)
    return r.output, r.halted


def prefix_probability(program: Program, prefix: str, cfg: MachineConfig) -> Fraction:
    """Exact probability that the first len(prefix) output bits equal prefix.

    Zero when the program cannot emit that many bits within budget.
    """
    check_bits(prefix)
    template, _halted = output_template(program, cfg)
    if len(template) < len(prefix):
        return Fraction(0)
    n_rand = 0
    for slot, want in zip(template, prefix):
        if slot == _RAND_MARK:
            n_rand += 1
        elif slot != want:
            return Fraction(0)
    return Fraction(1, 2**n_rand)


def sure_halts(program: Program, cfg: MachineConfig) -> bool:
    """True iff every random branch halts within budget (all branches agree)."""
    return output_template(program, cfg)[1]


# -- the census of the enumerated class -----------------------------------------------

class Census(Record):
    """All programs of length <= bound, grouped by output template.

    A program P weighs 2**(bound - len(P)).  classes holds each class as its
    template and its weight, in order of discovery, and members holds the class
    index of each program, in enumerate_programs order.  The template is the
    class's one encoding: the mixture reads slot n of it by the rule that
    prefix_probability states.  So a lumped class, the 2**m QUOTE tails of m
    bits after a run that emits o, would be the template o followed by m "?"
    slots, weighing the tails together.  A witness is a code: K reads its
    length, and complexity decodes only the ones it returns.
    """

    classes: tuple[tuple[str, int], ...]  # (template, weight)
    total: int  # Kraft normalizer C times 2**bound
    halted: int  # weight of the programs that surely halt
    #: each output of a run that halts without executing RAND, mapped to the
    #: code of its first such program in length-then-lex order, in order of
    #: discovery
    witnesses: dict[str, str]
    members: array  # of "I"; 4 bytes a program


#: the sixteen opcodes, in the lex order of the bodies they begin
_OPCODES = tuple(format(op, f"0{OPCODE_WIDTH}b") for op in range(2**OPCODE_WIDTH))


@lru_cache(maxsize=8)
def census(bound: int, cfg: MachineConfig) -> Census:
    """Every program of length <= bound, run once per shared opcode prefix.

    The mixture, its snapshot, Omega and K read it.  Jumps go back one
    instruction, so the state in which the pc first reaches instruction k
    depends on the first k opcodes only.  A walk over opcode prefixes carries
    that state on a stream of RAND markers: a prefix whose run stops before the
    next instruction covers every body that extends it, padding included, and
    bodies of 4k to 4k + 3 bits end at instruction k.  A QUOTE or REPEAT op is
    fetched once per prefix; only the data after it is enumerated, from the
    state the fetch leaves, all the tails of one length in one pass.  Control
    never reads the data, so each tail is read by the interpreter's own data
    rule, with no run of its own, and a QUOTE tail that fits the room is its
    own data.  REPEAT reads its tails a header block at a time (_repeat_tails),
    and keeps the runs of each tail length and room.  A run's output string is
    its output_template, by which its programs join a class.
    """
    if bound < 0:
        raise ValueError(f"'bound' must be >= 0, got {bound}")
    if bound > ENUMERATION_GUARD:
        raise LimitExceeded(f"'bound' = {bound} exceeds the guard {ENUMERATION_GUARD}")
    # weights[L] is 2**(bound - len(P)) for a program P with an L-bit body
    weights: list[int] = []
    while (size := len(gamma_encode(len(weights) + 1)) + len(weights)) <= bound:
        weights.append(1 << (bound - size))
    top = len(weights)  # every body is shorter
    # the runs of every m-bit REPEAT tail in a room, kept while the census runs
    repeat_tails = lru_cache(maxsize=None)(_repeat_tails)
    stream = _RAND_MARK * cfg.rand_budget
    index: dict[str, int] = {}  # template -> class index, in order of discovery
    class_weights: list[int] = []
    halted = 0
    # per body length, in lex order: each body's class, and the runs that halt
    # without executing RAND, as (head, [(output, end), ...]) with each body
    # head + end
    members = [array("I") for _ in weights]
    firsts: list[list[tuple[str, list[tuple[str, str]]]]] = [[] for _ in weights]

    def cover(prefix: str, lengths: range, output: str, stop: bool, rands: int) -> None:
        # every body of a length in lengths that extends prefix runs to this end
        nonlocal halted
        k = index.setdefault(output, len(index))
        if k == len(class_weights):
            class_weights.append(0)
        for length in lengths:
            n = 1 << (length - len(prefix))
            class_weights[k] += n * weights[length]
            if stop:
                halted += n * weights[length]
            members[length].extend(itertools.repeat(k, n))
        if stop and not rands:
            firsts[lengths[0]].append((prefix.ljust(lengths[0], "0"), [(output, "")]))

    def walk(prefix: str, out: list[str], counter: int, steps: int, rands: int) -> None:
        # the pc first reaches instruction pc of every body extending prefix
        # in this state, and the bodies that end there halt
        pc, child = len(prefix) // OPCODE_WIDTH, len(prefix) + OPCODE_WIDTH
        cover(prefix, range(len(prefix), min(child, top)), "".join(out), True, rands)
        if child >= top:
            return
        for op in _OPCODES:
            body = prefix + op
            next_out = out.copy()
            # state is (counter, steps, rands)
            stop, *state = _resume(body, cfg, stream, next_out, pc, counter, steps, rands)
            if stop is None:
                walk(body, next_out, *state)
            elif stop and (op == QUOTE or op == REPEAT):  # fetched: the rest is data
                tails(op, body, "".join(next_out), state[1], rands)
            else:
                cover(body, range(child, top), "".join(next_out), stop, state[-1])

    def tails(op: str, body: str, output: str, steps: int, rands: int) -> None:
        # every body that extends body, whose last op is the data op fetched in
        # this state, all the tails of one length at once; control never reads
        # the data, so _data gives each run (REPEAT's a block at a time), and a
        # QUOTE tail that fits the room is all its run emits
        nonlocal halted
        room = min(cfg.step_budget - steps, cfg.output_budget - len(output))
        for length in range(len(body), top):
            m = length - len(body)
            data = _tails(m)
            if op == QUOTE and m <= room:  # each run emits its tail and halts
                outputs = [output + tail for tail in data]
                halting = list(zip(outputs, data))
            else:
                runs = repeat_tails(m, room) if op == REPEAT else [_data(op, tail, room) for tail in data]
                outputs = [output + emitted for emitted, _done in runs]
                halting = [(o, tail) for o, tail, (_, done) in zip(outputs, data, runs) if done]
            ks = [index.setdefault(o, len(index)) for o in outputs]
            class_weights.extend([0] * (len(index) - len(class_weights)))
            weight = weights[length]
            for k in ks:
                class_weights[k] += weight
            members[length].extend(ks)
            halted += len(halting) * weight
            if halting and not rands:
                firsts[length].append((body, halting))

    if top:
        walk("", [], 0, 0, 0)
    witnesses: dict[str, str] = {}
    for length, found in enumerate(firsts):
        header = gamma_encode(length + 1)
        for head, runs in found:
            for output, end in runs:
                if output not in witnesses:
                    witnesses[output] = header + head + end
    in_order = array("I")
    for block in members:
        in_order.extend(block)
    classes = tuple(zip(index, class_weights))
    return Census(classes, sum(class_weights), halted, witnesses, in_order)


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

