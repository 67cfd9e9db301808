#!/usr/bin/env python3
"""Static side of the memory-order mutation sweep.

The runtime sweep (tests/test_verify_mutations.cpp) weakens each
SPARTS_MO site to relaxed and requires the model checker to catch it —
but it can only sweep sites that ARE wrapped in SPARTS_MO.  This script
closes the gap: it statically scans the protocol headers and fails if any
memory_order (or implicitly-seq_cst atomic op) appears outside a
SPARTS_MO / SPARTS_MO_ADVISORY wrapper, i.e. outside the sweep's reach.

  tools/mo_mutate.py            # list every site with its original order
  tools/mo_mutate.py --check    # exit 1 on unwrapped orders or duplicates

Covered headers: the lock-free protocol sites the model checker verifies.
Exempt: reset_cursors_for_test (a quiescent test seam, relaxed by
construction).  No dependencies beyond the standard library.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADERS = [
    "src/exec/spsc_ring.hpp",
    "src/exec/parking.hpp",
    "src/exec/mailbox.hpp",
]

SITE = re.compile(
    r"SPARTS_MO(_ADVISORY)?\(\s*([A-Za-z0-9_]+)\s*,\s*"
    r"std::memory_order_([a-z_]+)"
)
ANY_ORDER = re.compile(r"std::memory_order_([a-z_]+)")
EXEMPT_FUNCTIONS = {"reset_cursors_for_test"}


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def exempt_spans(text: str) -> list[tuple[int, int]]:
    """Character ranges of the exempt functions' bodies."""
    spans = []
    for name in EXEMPT_FUNCTIONS:
        m = re.search(rf"\b{name}\b[^{{]*\{{", text)
        if not m:
            continue
        depth, i = 1, m.end()
        while i < len(text) and depth:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        spans.append((m.start(), i))
    return spans


def scan(path: pathlib.Path):
    """Returns (sites, loose) — wrapped sites and unwrapped order uses."""
    text = strip_comments(path.read_text(encoding="utf-8"))
    exempt = exempt_spans(text)
    wrapped_order_spans = []
    sites = []
    for m in SITE.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        sites.append((m.group(2), m.group(3), bool(m.group(1)), lineno))
        for om in ANY_ORDER.finditer(text, m.start(), m.end()):
            wrapped_order_spans.append((om.start(), om.end()))
    loose = []
    for om in ANY_ORDER.finditer(text):
        if any(s <= om.start() < e for s, e in wrapped_order_spans):
            continue
        if any(s <= om.start() < e for s, e in exempt):
            continue
        lineno = text.count("\n", 0, om.start()) + 1
        loose.append((om.group(1), lineno))
    return sites, loose


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on unwrapped orders or duplicate sites")
    args = parser.parse_args()

    failures = 0
    seen: dict[str, str] = {}
    for rel in HEADERS:
        path = REPO_ROOT / rel
        sites, loose = scan(path)
        for name, order, advisory, lineno in sites:
            kind = "advisory" if advisory else "checked "
            print(f"{rel}:{lineno}: {kind} {name} = {order}")
            if name in seen:
                print(f"{rel}:{lineno}: ERROR duplicate site name {name} "
                      f"(also in {seen[name]})", file=sys.stderr)
                failures += 1
            seen[name] = rel
        for order, lineno in loose:
            print(f"{rel}:{lineno}: ERROR memory_order_{order} outside "
                  "SPARTS_MO — invisible to the mutation sweep",
                  file=sys.stderr)
            failures += 1

    if args.check and failures:
        return 1
    print(f"mo_mutate.py: {len(seen)} site(s), {failures} problem(s)",
          file=sys.stderr)
    return 1 if (args.check and failures) else 0


if __name__ == "__main__":
    sys.exit(main())
