"""The `soph` commands: k, kset, soph and table."""

from __future__ import annotations

from . import complexity
from .cli import BITS, INT, MACHINE, _machine_config


def _complexity_payload(result) -> dict:
    if isinstance(result, complexity.NotFound):
        return {
            "found": False,
            "search_bound": result.search_bound,
            "step_budget": result.step_budget,
        }
    out = {
        "found": True,
        "value": result.value,
        "witness_program": result.witness_program.code,
        "search_bound": result.search_bound,
        "step_budget": result.step_budget,
    }
    if isinstance(result, complexity.SophisticationResult):
        out["witness_set"] = list(result.witness_set.elements)
        out["k_of_x"] = result.k_of_x
    return out


def _cmd_k(config: dict, seed) -> dict:
    return _complexity_payload(
        complexity.kolmogorov(config["x"], config["bound"], _machine_config(config))
    )


def _cmd_kset(config: dict, seed) -> dict:
    listing = complexity.SetListing(tuple(config["elements"]))
    return _complexity_payload(
        complexity.set_complexity(listing, config["bound"], _machine_config(config))
    )


def _cmd_soph(config: dict, seed) -> dict:
    return _complexity_payload(
        complexity.sophistication(
            config["x"], config["c"], config["bound"], _machine_config(config)
        )
    )


def _cmd_table(config: dict, seed) -> dict:
    rows = complexity.tabulate(
        config["lengths"], config["cs"], config["bound"], _machine_config(config)
    )
    return {"rows": rows, "cs": config["cs"]}


def _table_csv(result: dict):
    cs = dict.fromkeys(result["cs"])  # the distinct c, as tabulate keys each row
    yield "x,k," + ",".join(f"soph_{c}" for c in cs)
    for row in result["rows"]:
        cells = [row["x"], "" if row["k"] is None else str(row["k"])]
        for c in cs:
            v = row[f"soph_{c}"]
            cells.append("" if v is None else str(v))
        yield ",".join(cells)


# command -> (handler(config, seed), config schema, CSV rows or None)
COMMANDS = {
    "k": (_cmd_k, {"x": BITS, "bound": INT, **MACHINE}, None),
    "kset": (_cmd_kset, {"elements": [BITS], "bound": INT, **MACHINE}, None),
    "soph": (_cmd_soph, {"x": BITS, "c": INT, "bound": INT, **MACHINE}, None),
    "table": (_cmd_table, {"lengths": [INT], "cs": [INT], "bound": INT, **MACHINE}, _table_csv),
}
