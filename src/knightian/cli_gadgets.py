"""The `gadgets` commands: chsh-classical, chsh-quantum, bostrom, newcomb and causal,
and the reader of causal's graph."""

from __future__ import annotations

from . import gadgets
from .cli import BOOL, INT, RATIONAL, REAL, STRING, Either, Kind, Opt, _given, _is_int, _rat, at
from .errors import KnightianError


def _cmd_chsh_classical(config: dict, seed) -> dict:
    result = gadgets.chsh_classical_optimum()
    return {
        "value": _rat(result.value),
        "witness": {"alice": list(result.witness[0]), "bob": list(result.witness[1])},
        "table": [
            {
                "alice": list(row["alice"]),
                "bob": list(row["bob"]),
                "value": _rat(row["value"]),
            }
            for row in result.table
        ],
    }


def _chsh_csv(result: dict):
    yield "a0,a1,b0,b1,value"
    for row in result["table"]:
        alice, bob = row["alice"], row["bob"]
        yield f"{alice[0]},{alice[1]},{bob[0]},{bob[1]},{row['value']['exact']}"


def _cmd_chsh_quantum(config: dict, seed) -> dict:
    alice = tuple(float(a) for a in config.get("alice", gadgets.CHSH_OPTIMAL_ALICE))
    bob = tuple(float(b) for b in config.get("bob", gadgets.CHSH_OPTIMAL_BOB))
    return {
        "alice": list(alice),
        "bob": list(bob),
        "value": gadgets.chsh_quantum_value(alice, bob),
    }


def _cmd_bostrom(config: dict, seed) -> dict:
    if "variant" in config:
        variants = {1: gadgets.bostrom_variant_one, 2: gadgets.bostrom_variant_two}
        puzzle = variants[config["variant"]]()
    else:
        puzzle = gadgets.RoomPuzzle(
            **{
                **config,
                "heads_colors": tuple(config["heads_colors"]),
                "tails_colors": tuple(config["tails_colors"]),
            }
        )
    post = gadgets.bostrom_posterior(puzzle)
    return {
        "posterior_heads": {
            "copy_weighted": _rat(post.copy_weighted),
            "branch_weighted": _rat(post.branch_weighted),
            "primary": _rat(post.primary),
        },
        "counting_rule": puzzle.counting_rule,
    }


# boxes within it keep every float a newcomb report quotes finite: each is at
# most |box_one| + |box_two|
BOX_GUARD = 10**300


def _cmd_newcomb(config: dict, seed) -> dict:
    boxes = _given(config, ("box_one", "box_two"))
    for key, box in boxes.items():
        if abs(box) > BOX_GUARD:
            raise KnightianError(f"{key!r} must be at most {BOX_GUARD:.0e} in size, got {box}")
    value = gadgets.newcomb_expected(config["policy"], config["accuracy"], **boxes)
    return {
        "policy": config["policy"],
        "expected": _rat(value),
        "crossover_accuracy": _rat(gadgets.newcomb_crossover(**boxes)),
    }


def graph_from_payload(payload: dict, path: str) -> gadgets.CausalGraph:
    """The graph a payload describes; a bad node kind, edge or duplicate id is
    named by its path under path, e.g. config['edges'][1]."""
    nodes = []
    for i, n in enumerate(payload["nodes"]):
        with at(f"{path}['nodes'][{i}]['kind']"):  # a node checks only its kind
            nodes.append(gadgets.CausalNode(n["id"], n["kind"], n["time"]))
    edges = tuple((c, e) for c, e in payload["edges"])
    known = {n.id for n in nodes}
    for i, (c, e) in enumerate(edges):
        with at(f"{path}['edges'][{i}]"):
            gadgets.check_edge(c, e, known)
    with at(f"{path}['nodes']"):
        return gadgets.CausalGraph(tuple(nodes), edges)


def _cmd_causal(config: dict, seed) -> dict:
    graph = graph_from_payload(config, "config")
    violations = gadgets.causal_validate(graph, **_given(config, ("check_disjoint_macro",)))
    return {
        "ok": not violations,
        "violations": [
            {"rule": v.rule, "subject": list(v.subject), "message": v.message}
            for v in violations
        ],
        "acyclic": gadgets.acyclicity_check(graph),
    }


CHSH_QUANTUM = {"alice": Opt((REAL, REAL)), "bob": Opt((REAL, REAL))}
BOSTROM = Either(
    "variant",
    {"variant": Kind("1 or 2", lambda v: _is_int(v) and v in (1, 2))},
    {
        "prior_heads": RATIONAL, "copies_if_heads": INT, "copies_if_tails": INT,
        "heads_colors": [STRING], "tails_colors": [STRING], "observed_color": STRING,
        "counting_rule": Opt(STRING),
    },
)
NEWCOMB = {"policy": STRING, "accuracy": RATIONAL, "box_one": Opt(INT), "box_two": Opt(INT)}
CAUSAL = {
    "nodes": [{"id": STRING, "kind": STRING, "time": INT}],
    "edges": [(STRING, STRING)],  # [cause id, effect id] pairs
    "check_disjoint_macro": Opt(BOOL),
}

# command -> (handler(config, seed), config schema, CSV rows or None)
COMMANDS = {
    "chsh-classical": (_cmd_chsh_classical, {}, _chsh_csv),
    "chsh-quantum": (_cmd_chsh_quantum, CHSH_QUANTUM, None),
    "bostrom": (_cmd_bostrom, BOSTROM, None),
    "newcomb": (_cmd_newcomb, NEWCOMB, None),
    "causal": (_cmd_causal, CAUSAL, None),
}
