#!/usr/bin/env python3
"""Check that a regenerated BENCH file is an older one minus one backend.

    python3 tools/bench_drop_backend.py OLD.json NEW.json --backend NAME

Removes every trace of backend NAME from OLD.json: cells and table or
summary rows whose "backend" is NAME, NAME in the "backends" list, and, for
the cold-vs-warm scoreboard, the store counters that counted one entry per
cell. It then re-serializes the result exactly as the lis JSON writers do
(compact, key order kept, numbers copied verbatim) and compares it byte for
byte with NEW.json. Exit 0 when they are equal, 1 with the first difference
otherwise. Works on BENCH_sweep.json, BENCH_backend.json and
BENCH_serve.json.
"""

import argparse
import json
import sys


class Num(str):
    """A JSON number kept as its original text, so floats round-trip."""


def load(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return text, json.loads(text, parse_float=Num, parse_int=Num)


def dump(v):
    if isinstance(v, Num):
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, list):
        return "[" + ",".join(dump(x) for x in v) + "]"
    return "{" + ",".join(json.dumps(k) + ":" + dump(x) for k, x in v.items()) + "}"


def drop(doc, backend):
    keep = lambda row: not (isinstance(row, dict) and row.get("backend") == backend)
    if "backends" in doc:
        doc["backends"] = [b for b in doc["backends"] if b != backend]
    for key in ("cells", "table", "rows"):
        if key in doc:
            before = len(doc[key])
            doc[key] = [row for row in doc[key] if keep(row)]
            if key == "cells" and "store" in doc:
                # One store entry (and hit) per cold-vs-warm cell.
                for name, n in doc["store"].items():
                    if int(n) == before:
                        doc["store"][name] = Num(str(len(doc[key])))
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--backend", required=True)
    args = ap.parse_args()

    old_text, old = load(args.old)
    if dump(old) + "\n" != old_text:
        sys.exit(f"{args.old}: does not round-trip through the serializer")
    new_text, _ = load(args.new)
    want = dump(drop(old, args.backend)) + "\n"
    if want == new_text:
        print(f"{args.new} == {args.old} without backend {args.backend!r}")
        return
    at = next(i for i, (a, b) in enumerate(zip(want + "\0", new_text + "\0")) if a != b)
    sys.exit(
        f"{args.new} differs from {args.old} without {args.backend!r} at byte {at}:\n"
        f"  want ...{want[max(0, at - 60):at + 60]!r}\n"
        f"  got  ...{new_text[max(0, at - 60):at + 60]!r}"
    )


if __name__ == "__main__":
    main()
