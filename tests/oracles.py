"""Reference helpers that only the tests read.

No library path calls these: the census serves every per-program question, and
the CLI reads and writes its own payloads.  The tests keep them as oracles and
as builders of inputs.  Each `reference_*` function is a slower or older route
to a library result, which a differential test compares with the library's.
"""

import itertools
import math
from array import array
from fractions import Fraction

import numpy as np

from knightian import arena, cli_freestate, complexity, freestate, gadgets, prior, toyvm

#: Distinguished outcome for "did not emit enough bits within budget".
ABSTAIN = "⊥"


def kraft_sum(codes: list[str]) -> Fraction:
    return sum((Fraction(1, 2 ** len(code)) for code in codes), Fraction(0))


def normalizer(mixture: prior.Mixture) -> Fraction:
    """C = sum of 2**-len(P) over the mixture's class."""
    return Fraction(mixture.census.total, 2**mixture.bound)


def programs(bound: int) -> list[toyvm.Program]:
    """The enumerated programs, decoded from their codes, in enumerate_programs order."""
    return [toyvm.decode(code) for code in toyvm.enumerate_programs(bound)]


def output_distribution(
    program: toyvm.Program, n: int, cfg: toyvm.MachineConfig
) -> dict[str, Fraction]:
    """Exact distribution of the first n output bits.

    Runs that emit fewer than n bits within budget put their whole mass on
    the abstention outcome ABSTAIN.  Masses always sum to exactly 1.
    """
    if n > cfg.output_budget:
        raise ValueError(f"n={n} exceeds output_budget={cfg.output_budget}")
    template, _halted = toyvm.output_template(program, cfg)
    if len(template) < n:
        return {ABSTAIN: Fraction(1)}
    head = template[:n]
    n_rand = head.count(toyvm._RAND_MARK)
    word, weight = head.replace(toyvm._RAND_MARK, "{}"), Fraction(1, 2**n_rand)
    return {word.format(*fill): weight for fill in itertools.product("01", repeat=n_rand)}


def _flip(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


def mirror(program: toyvm.Program) -> toyvm.Program:
    """The bit-flip twin: same length, outputs are the complement in law.

    Swaps EMIT0/EMIT1, complements QUOTE payloads and REPEAT patterns, and
    leaves everything else (including REPEAT's count code) alone.
    """
    body, width = program.body, toyvm.OPCODE_WIDTH
    swap = {toyvm.EMIT0: toyvm.EMIT1, toyvm.EMIT1: toyvm.EMIT0}
    out = []
    for k in range(len(body) // width):
        op, tail = body[k * width : (k + 1) * width], body[(k + 1) * width :]
        if op == toyvm.QUOTE:
            return toyvm.from_body("".join(out) + op + _flip(tail))
        if op == toyvm.REPEAT:
            try:
                _, pos = toyvm.gamma_decode(tail)
            except toyvm.BadHeader:
                return toyvm.from_body("".join(out) + op + tail)
            return toyvm.from_body("".join(out) + op + tail[:pos] + _flip(tail[pos:]))
        out.append(swap.get(op, op))
    out.append(body[len(body) // width * width :])  # padding unchanged
    return toyvm.from_body("".join(out))


def listing_width(listing: complexity.SetListing) -> int:
    """The common length of the set's elements."""
    return len(listing.elements[0])


def render_listing(listing: complexity.SetListing) -> str:
    """Canonical explicit output for a set (sorted elements; no cube form)."""
    width = listing_width(listing)
    if width > complexity.LISTING_MAX_WIDTH:
        raise ValueError(f"width {width} beyond {complexity.LISTING_MAX_WIDTH}")
    return format(width - 1, f"0{complexity.LISTING_WIDTH_FIELD}b") + "".join(listing.elements)


def validate_density(m) -> freestate.DensityMatrix:
    """Validate a square complex matrix as a density matrix.

    Raises NotHermitian, NotPSD (with the offending eigenvalue), or
    TraceNotOne (with the offending trace), in that order of checks.
    """
    m = freestate._check_square(m)
    return freestate.DensityMatrix(m.shape[0], m)


def maximally_mixed(dim: int) -> freestate.DensityMatrix:
    return freestate.DensityMatrix(dim, np.eye(dim) / dim)


def effect_to_payload(e: freestate.Effect) -> dict:
    return {"dim": e.dim, "entries": cli_freestate._matrix_payload(e.entries)}


def primal_l1_residual(s: freestate.Freestate, rho: freestate.DensityMatrix) -> float:
    """The least L1 residual of rho against the hull, by scipy's HiGHS: a second solver for
    the LP hull_contains decides."""
    from scipy.optimize import linprog

    target = freestate._herm_vec(np.asarray(rho.entries))
    cols = np.stack([freestate._herm_vec(np.asarray(g.entries)) for g in s.generators], axis=1)
    m, n = cols.shape
    # min sum(s+ + s-)  s.t.  cols @ lam + s+ - s- = target, sum(lam) = 1, all >= 0
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    a_eq = np.block([[cols, np.eye(m), -np.eye(m)], [np.ones((1, n)), np.zeros((1, 2 * m))]])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (n + 2 * m), method="highs")
    assert res.success
    return float(res.fun)


# -- toyvm: the interpreter and enumeration loop before one path per step ---------


def reference_execute(body, cfg, rand_stream, pc=0, counter=0, steps=0, rands=0, out=""):
    """Oracle: the interpreter with a branch per opcode and a copy of the data loop each for QUOTE and REPEAT.

    It steps every instruction, from the given state on (the start of a run by default).
    """
    n_instr = len(body) // toyvm.OPCODE_WIDTH
    out = list(out)

    def stopped(halted):
        return toyvm.RunResult("".join(out), halted, steps, rands)

    while True:
        if pc < 0 or pc >= n_instr:
            return stopped(True)
        if steps >= cfg.step_budget:
            return stopped(False)
        op = body[pc * toyvm.OPCODE_WIDTH : (pc + 1) * toyvm.OPCODE_WIDTH]
        steps += 1
        if op == toyvm.EMIT0 or op == toyvm.EMIT1:
            if len(out) >= cfg.output_budget:
                return stopped(False)
            out.append(op[-1])
            pc += 1
        elif op == toyvm.RAND:
            if rands >= cfg.rand_budget:
                return stopped(False)
            if len(out) >= cfg.output_budget:
                return stopped(False)
            out.append(rand_stream[rands])
            rands += 1
            pc += 1
        elif op == toyvm.QUOTE:
            tail = body[(pc + 1) * toyvm.OPCODE_WIDTH :]
            for bit in tail:
                if steps >= cfg.step_budget:
                    return stopped(False)
                if len(out) >= cfg.output_budget:
                    return stopped(False)
                steps += 1
                out.append(bit)
            return stopped(True)
        elif op == toyvm.REPEAT:
            tail = body[(pc + 1) * toyvm.OPCODE_WIDTH :]
            try:
                r_minus_1, pos = toyvm.gamma_decode(tail)
            except toyvm.BadHeader:
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
        elif op == toyvm.JMP:
            pc -= 1
        elif op == toyvm.JMPZ:
            pc = pc - 1 if counter == 0 else pc + 1
        elif op == toyvm.INC:
            counter = min(counter + 1, toyvm.COUNTER_MAX)
            pc += 1
        elif op == toyvm.DEC:
            counter = max(counter - 1, 0)
            pc += 1
        else:
            return stopped(True)


def reference_enumerate(max_len):
    """Oracle: the enumeration loop with an empty-body branch and a header per program."""
    programs = []
    body_len = 0
    while len(toyvm.gamma_encode(body_len + 1)) + body_len <= max_len:
        if body_len == 0:
            programs.append(toyvm.from_body(""))
        else:
            for bits in itertools.product("01", repeat=body_len):
                programs.append(toyvm.from_body("".join(bits)))
        body_len += 1
    return programs


def reference_census(bound, cfg):
    """Oracle: the census that runs every program once, in enumerate_programs order,
    through reference_execute, which shares no data loop with the census it checks."""
    stream = toyvm._RAND_MARK * cfg.rand_budget
    index = {}  # template -> class index, in order of discovery
    weights = {}
    members = array("I")
    halted = 0
    witnesses = {}
    for p in programs(bound):
        r = reference_execute(p.body, cfg, stream)
        w = 1 << (bound - len(p))
        k = index.setdefault(r.output, len(index))
        weights[k] = weights.get(k, 0) + w
        members.append(k)
        if r.halted:
            halted += w
            if r.rands_used == 0 and r.output not in witnesses:
                witnesses[r.output] = p.code
    classes = tuple(zip(index, weights.values()))
    return toyvm.Census(classes, sum(weights.values()), halted, witnesses, members)


def reference_gamma_decode(bits):
    """Oracle: gamma_decode scanning for the stop bit a character at a time."""
    z = 0
    while z < len(bits) and bits[z] == "0":
        z += 1
    if z == len(bits):
        raise toyvm.BadHeader("ran out of bits scanning for the gamma stop bit")
    end = 2 * z + 1
    if end > len(bits):
        raise toyvm.BadHeader("gamma code truncated")
    return int(bits[z:end], 2), end


# -- prior: the per-program mixture and the whole-census scan ------------------------


def reference_matches(census, prefix):
    """(class index, n - r) for each class that can emit prefix, n = len(prefix).

    It does so with probability 2**-r, r its RAND slots among the first n, so
    2**(n - r) on the scale 2**n; a class shorter than n abstains.  One scan
    of the whole census, the route the survivors replace.
    """
    toyvm.check_bits(prefix)
    n = len(prefix)
    for k, (template, _weight) in enumerate(census.classes):
        if len(template) >= n and all(slot in (bit, "?") for slot, bit in zip(template, prefix)):
            yield k, n - template[:n].count("?")


def reference_joint_from_matches(census, prefix):
    mass = sum(census.classes[k][1] << lits for k, lits in reference_matches(census, prefix))
    return Fraction(mass, census.total << len(prefix)) if mass else Fraction(0)


def reference_priors(bound, cfg):
    """The per-program mixture: every program with weight 2**-len(P) / C."""
    enumerated = programs(bound)
    total = kraft_sum([p.code for p in enumerated])
    return [(p, Fraction(1, 2 ** len(p)) / total) for p in enumerated]


def reference_joint(priors, prefix, cfg):
    return sum((w * toyvm.prefix_probability(p, prefix, cfg) for p, w in priors), Fraction(0))


def reference_posteriors(priors, history, cfg):
    """The per-program update chain: reweigh every prior, then normalize, bit by bit."""
    posts = [w for _, w in priors]
    for i in range(1, len(history) + 1):
        raw = [w * toyvm.prefix_probability(p, history[:i], cfg) for p, w in priors]
        total = sum(raw, Fraction(0))
        posts = [r / total for r in raw] if total > 0 else raw
    return posts


# -- complexity: sophistication by a min over every qualifying set ------------------


def reference_sophistication(x, c, bound, cfg):
    """The least K(S) by a min over every qualifying set, taken in set order."""
    kx = complexity.kolmogorov(x, bound, cfg)
    if isinstance(kx, complexity.NotFound):
        return kx
    qualifying = [
        (len(code), elements, code)
        for elements, code in sorted(complexity._listable_sets(bound, cfg).items())
        if x in elements and (len(elements) - 1).bit_length() <= kx.value + c - len(code)
    ]
    if not qualifying:
        return complexity.NotFound(bound, cfg.step_budget)
    k_s, elements, code = min(qualifying, key=lambda q: q[0])
    return complexity.SophisticationResult(
        k_s, complexity.SetListing(elements), toyvm.decode(code), kx.value, bound, cfg.step_budget
    )


def reference_row(x, cs, bound, cfg):
    """A table row built from reference_sophistication."""
    kx = complexity.kolmogorov(x, bound, cfg)
    row = {"x": x, "k": None if isinstance(kx, complexity.NotFound) else kx.value}
    for c in cs:
        s = reference_sophistication(x, c, bound, cfg)
        row[f"soph_{c}"] = None if isinstance(s, complexity.NotFound) else s.value
    return row


# -- arena: the whole forecast support and the two-sum interval ---------------------


def reference_law(emit):
    """Weights of behavior bits "0" and "1" under a literal or coin emission, else None.

    Kept apart from arena's own rule, so that a fault there cannot pass here
    too.  A literal weighs int 0 and 1, as the library's does.
    """
    kind, value = emit
    if kind == "bit":
        return {"0": int(value == "0"), "1": int(value == "1")}
    if kind == "prob":
        return {"0": 1 - value, "1": value}
    return None


def reference_pattern_overlaps(subject, forecast, inputs, t, u):
    """Per-pattern overlaps summed over every suffix of the forecast's support."""
    emissions = arena._window_emissions(subject, inputs, t, u)
    freebits = sorted(
        (value, pos) for pos, (kind, value) in enumerate(emissions) if kind == "freebit"
    )
    factors = [(pos, law) for pos, law in enumerate(map(reference_law, emissions)) if law is not None]
    overlaps = {}
    for suffix, f in arena.forecast_distribution(forecast, inputs, t, u).items():
        c = 1
        for pos, law in factors:
            c *= law[suffix[pos]]
        if c:
            pattern = "".join(suffix[pos] for _, pos in freebits)
            overlaps[pattern] = overlaps.get(pattern, Fraction(0)) + min(f, c)
    return [idx for idx, _ in freebits], overlaps


def reference_lumped_overlaps(subject, forecast, inputs, t, u):
    """The lumped walk as it was with Fraction nodes: a node's f is a Fraction,
    its c an int or a Fraction, and the nodes are keyed by them."""
    emissions = arena._window_emissions(subject, inputs, t, u)
    # node (memory, f, c, pattern in position order) -> multiplicity
    level = {(forecast.memory, Fraction(1), 1, ""): 1}
    for v, emit in enumerate(emissions, start=t):
        law = reference_law(emit)
        children: dict[tuple, int] = {}
        for (memory, f, c, pattern), mult in level.items():
            p1 = forecast.prob_one(memory, v, inputs)
            for b, q in (("0", 1 - p1), ("1", p1)):
                weight = 1 if law is None else law[b]
                if q and weight:
                    child = (forecast.step(memory, v, inputs, b), f * q, c * weight,
                             pattern + b if law is None else pattern)
                    children[child] = children.get(child, 0) + mult
        level = children
    # a pattern's bits go in ascending freebit index, not in position order
    consumed = [value for kind, value in emissions if kind == "freebit"]
    order = sorted(range(len(consumed)), key=consumed.__getitem__)
    overlaps: dict[str, Fraction] = {}
    for (_, f, c, pattern), mult in level.items():
        pattern = "".join(map(pattern.__getitem__, order))
        overlaps[pattern] = overlaps.get(pattern, Fraction(0)) + mult * min(f, c)
    return sorted(consumed), overlaps


def reference_clopper_pearson(k, n):
    """The interval by bisection on two separate tail sums, P(X >= k) and P(X <= k)."""
    alpha = 1 - arena.CONFIDENCE

    def sf(p):
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))

    def cdf(p):
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1))

    def bisect(f, target, lo, hi):
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) < target:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    lower = 0.0 if k == 0 else bisect(sf, alpha / 2, 1.0, 0.0)
    upper = 1.0 if k == n else bisect(cdf, alpha / 2, 0.0, 1.0)
    return lower, upper


# -- gadgets: the CHSH value by numpy's matrix products -----------------------------


def reference_about_axis(theta: float, outcome: int):
    """Rank-1 projector for measuring along angle theta in the X-Z plane."""
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    if outcome == 1:
        v = np.array([-math.sin(theta), math.cos(theta)], dtype=complex)
    return np.outer(v, v.conj())


def reference_chsh_quantum_value(
    alice_angles: tuple[float, float], bob_angles: tuple[float, float]
) -> float:
    """Win probability for measurement-angle strategies on the Bell pair.

    Angles live in the X-Z plane, which suffices for the optimum.  The
    probability for each (x, y) sums Tr(P rho) over the product projectors P
    of the winning outcomes, with rho the Bell pair's density matrix.
    """
    amps = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(amps, amps.conj())
    total = 0.0
    for x, y in itertools.product((0, 1), repeat=2):
        win = 0.0
        for a, b in itertools.product((0, 1), repeat=2):
            if (a + b) % 2 != (x & y):
                continue
            proj = np.kron(reference_about_axis(alice_angles[x], a), reference_about_axis(bob_angles[y], b))
            win += float(np.real(np.trace(proj @ rho)))
        total += win
    return total / 4


# -- gadgets: the causal-arrow rules, one edge scan per rule and micro node ---------


def reference_causal_validate(
    graph: gadgets.CausalGraph, check_disjoint_macro: bool = True
) -> list[gadgets.Violation]:
    """All rule violations, as causal_validate found them before its one pass over
    the edges: R2 and R3 rescan every edge for each micro node, and a micro
    self-loop is not counted as an edge leaving its node.

    R1: a non-forward arrow (cause not strictly earlier than effect) may
        point only at a micro node.  Simultaneous arrows count as
        non-forward: causation "forward in time" means strictly forward,
        and without that reading two same-instant nodes could validate a
        cycle.
    R2: a micro node receiving a non-forward arrow is a dead end — it may
        have no other incident edge of any kind (no double duty).
    R3 (conservative reading, can be switched off): a micro node may have at
        most one outgoing edge to the macro layer, since two macro effects
        would amount to two independent amplifications of one unmeasured
        fact.
    """
    violations = []
    nodes = {n.id: n for n in graph.nodes}
    backward_into = {
        e for c, e in graph.edges if nodes[c].time >= nodes[e].time
    }
    for c, e in graph.edges:
        if nodes[c].time >= nodes[e].time and nodes[e].kind != "micro":
            violations.append(
                gadgets.Violation(
                    "R1",
                    (c, e),
                    "non-forward arrow points at a macro node",
                )
            )
    for n in graph.nodes:  # in node order, as R3 below, so no report hangs on set order
        if n.id not in backward_into or n.kind != "micro":
            continue  # a macro node there is already an R1 violation
        incident = [
            (c, e)
            for c, e in graph.edges
            if (c == n.id or e == n.id)
            and not (e == n.id and nodes[c].time >= nodes[e].time)
        ]
        if incident:
            violations.append(
                gadgets.Violation(
                    "R2",
                    (n.id,),
                    "micro node caused from its future also touches other edges",
                )
            )
    if check_disjoint_macro:
        for n in graph.nodes:
            if n.kind != "micro":
                continue
            macro_out = [
                (c, e) for c, e in graph.edges if c == n.id and nodes[e].kind == "macro"
            ]
            if len(macro_out) > 1:
                violations.append(
                    gadgets.Violation(
                        "R3",
                        (n.id,),
                        "micro node feeds two macro nodes over disjoint pathways",
                    )
                )
    return violations
