"""The records of the bundled catalog, and their JSONL rendering.

`render_catalog(build_catalog_records())` is byte for byte the file the
package ships (`catalog.bundled_catalog_path()`); regenerate that file from
here after changing the catalog.
"""

import json

SL23_GENERATORS = ["(1 4 7)(2 8 5)", "(1 6 2 3)(4 7 8 5)"]


def build_catalog_records():
    """The canonical bundled records; the data file is exactly these, one per line."""
    records = []
    for n in range(1, 31):
        records.append({"name": "C%d" % n, "spec": "C%d" % n, "order": n})
    for order in range(4, 43, 2):
        records.append({"name": "D%d" % order, "spec": "D%d" % order, "order": order})
    records.append(
        {"name": "C2xC2", "generators": ["(1 2)", "(3 4)"], "order": 4}
    )
    records.append(
        {"name": "C2xC2xC2", "generators": ["(1 2)", "(3 4)", "(5 6)"], "order": 8}
    )
    records.append({"name": "Q8", "spec": "Q8", "order": 8})
    records.append({"name": "A4", "spec": "A4", "order": 12})
    records.append({"name": "S4", "spec": "S4", "order": 24})
    records.append({"name": "A5", "spec": "A5", "order": 60})
    records.append({"name": "S5", "spec": "S5", "order": 120})
    records.append({"name": "SL(2,3)", "generators": SL23_GENERATORS, "order": 24})
    records.append({"name": "F5:4", "spec": "F5:4", "order": 20})
    records.append({"name": "F7:3", "spec": "F7:3", "order": 21})
    records.append({"name": "F7:6", "spec": "F7:6", "order": 42})
    return records


def render_catalog(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
