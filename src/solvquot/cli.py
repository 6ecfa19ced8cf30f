"""Command-line front end: deterministic machine-readable reports for the
counting, lattice and subgroup-growth machinery."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import counting, lattice, subgrowth
from .cohomology import build_systems
from .groups import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    FiniteGroupTable,
    GroupSpecError,
    aut_order,
    builtin_group,
    chief_series,
    eval_word_in_table,
)
from .oracle import OracleBudget, brute_epi, brute_hom
from .presentations import (
    ParseError,
    PresentationError,
    builtin_from_string,
    parse_presentation,
)


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


# ---------------------------------------------------------------------------
# Input resolution.


def load_source(spec):
    """A presentation from 'builtin:family(args)', an inline '< ... >'
    presentation, or a file containing one."""
    text = spec.strip()
    if text.startswith("builtin:"):
        return builtin_from_string(text[len("builtin:"):]), text
    if text.startswith("<"):
        return parse_presentation(text), text
    if os.path.exists(text):
        return parse_presentation(_read_text(text)), text
    raise InputError("source %r is neither builtin:, an inline presentation, "
                     "nor an existing file" % spec)


def _read_text(path):
    """A file's text; a directory, an unreadable file or bytes that are not
    UTF-8 are input errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %r: %s" % (path, exc.strerror))
    except UnicodeDecodeError:
        raise InputError("%r is not UTF-8 text" % path)


def read_table_file(path):
    """Multiplication table file: first line 'order N', then N rows of N
    space-separated 0-based indices; element 0 must be the identity."""
    lines = [ln.strip() for ln in _read_text(path).split("\n")
             if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("order"):
        raise InputError("table file must start with 'order N'")
    try:
        n = int(lines[0].split()[1])
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except (IndexError, ValueError):
        raise InputError("malformed table file %r" % path)
    if n < 1:
        raise InputError("table order must be at least 1")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("table file needs %d rows of %d entries" % (n, n))
    if any(not 0 <= x < n for r in rows for x in r):
        raise InputError("table entries must lie in 0..%d" % (n - 1))
    table = FiniteGroupTable(rows, name=os.path.basename(path))
    table.check_associativity()
    return table


def write_table_file(table, fh):
    fh.write("order %d\n" % table.n)
    for row in table.mul:
        fh.write(" ".join(map(str, row.tolist())) + "\n")


def load_target(spec, cap):
    """A tower from a group spec or from a multiplication table file."""
    text = spec.strip()
    if os.path.exists(text):
        table = read_table_file(text)
        return chief_series(table, cap=cap, spec=text)
    return builtin_group(text, cap=cap)


# ---------------------------------------------------------------------------
# Output.


def emit_json(doc, out):
    out.write(json.dumps(doc, indent=2) + "\n")


def emit_tsv(header, rows, out):
    out.write("\t".join(header) + "\n")
    for row in rows:
        out.write("\t".join(str(x) for x in row) + "\n")


def _config(args, keys):
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


# ---------------------------------------------------------------------------
# Commands.


def cmd_count(args):
    """``hom`` runs only the Hom lifting, ``epi`` and ``delta`` only the Epi
    lifting and |Aut|; the figures a verb does not compute print as null."""
    P, src_label = load_source(args.source)
    tower = load_target(args.target, args.cap_order)
    hom = epi = aut = dlt = None
    levels = []
    if args.command == "hom":
        hom = counting.hom_count(P, tower, cap=args.cap_frontier)
    else:
        rep = counting.epi_count(P, tower, cap=args.cap_frontier)
        epi, aut, dlt, levels = rep.epi, rep.aut, rep.delta, rep.levels
    if args.tsv:
        emit_tsv(["source", "target", "hom", "epi", "aut", "delta"],
                 [[src_label, args.target] + ["-" if x is None else x for x in (hom, epi, aut, dlt)]],
                 sys.stdout)
        return 0
    emit_json({
        "command": args.command,
        "config": _config(args, ("source", "target", "cap_order", "cap_frontier")),
        "source": src_label,
        "target": args.target,
        "hom": hom,
        "epi": epi,
        "aut": aut,
        "delta": dlt,
        "levels": levels,
        "provenance": {
            "epi": None if epi is None else "chief-series lifting",
            "hom": None if hom is None else "layerwise cocycle counting",
            "aut": None if aut is None else "generator-image search",
        },
    }, sys.stdout)
    return 0


def cmd_aut(args):
    tower = load_target(args.target, args.cap_order)
    order = aut_order(tower.group)
    doc = {
        "command": "aut",
        "config": _config(args, ("target", "cap_order")),
        "target": args.target,
        "aut": order,
    }
    if args.tsv:
        emit_tsv(["target", "aut"], [[args.target, order]], sys.stdout)
    else:
        emit_json(doc, sys.stdout)
    return 0


def cmd_cocycle(args):
    P, _ = load_source(args.source)
    tower = load_target(args.target, args.cap_order)
    top = len(tower.layers) - 1
    if top < 0:
        raise InputError("%s has no layers, so no level" % args.target)
    level = top if args.level is None else args.level
    if not 0 <= level <= top:
        raise InputError("level %d out of range: %s has levels 0..%d" % (level, args.target, top))
    lay = tower.layers[level]
    try:
        images = tuple(int(x) for x in args.images.split(","))
    except ValueError:
        raise InputError("--images must be a comma list of integers")
    if len(images) != P.n or any(not (0 <= im < len(lay.base)) for im in images):
        raise InputError("--images needs %d base-element indices < %d"
                         % (P.n, len(lay.base)))
    if any(eval_word_in_table(lay.base, images, rel) != 0 for rel in P.relators):
        raise InputError("images do not satisfy the relators")
    A, chi = build_systems(P, [images], lay)
    header = ["row"] + ["a%d_%d" % (i, c) for i in range(P.n) for c in range(lay.s)] + ["rhs"]
    rows = [[r] + row + [x] for r, (row, x) in enumerate(zip(A[0].tolist(), chi[0].tolist()))]
    emit_tsv(header, rows, sys.stdout)
    return 0


def cmd_moebius(args):
    tower = load_target(args.target, args.cap_order)
    lat = lattice.all_subgroups(tower.group, cap=args.cap_lattice)
    mu = lattice.moebius(lat)
    rows = []
    for i in range(len(lat)):
        gens = ",".join(str(g) for g in lat.generators_of(i)) or "-"
        rows.append([lat.orders[i], i, gens, mu[i]])
    rows.sort(key=lambda r: (r[0], r[1]))
    emit_tsv(["order", "index", "generators", "mu"], rows, sys.stdout)
    return 0


def cmd_growth(args):
    P, src_label = load_source(args.source)
    report = subgrowth.ak_sequence(P, args.kmax, cap=args.cap_k)
    if args.normal:
        report.ak_normal = [
            subgrowth.ak_normal(P, k) for k in range(1, min(args.kmax, 15) + 1)
        ]
    if args.tsv:
        header = ["k", "h_k", "t_k", "a_k"] + (["a_k_normal"] if args.normal else [])
        rows = []
        for i in range(args.kmax):
            row = [i + 1, report.hk[i], report.tk[i], report.ak[i]]
            if args.normal:
                row.append(report.ak_normal[i] if i < len(report.ak_normal) else "-")
            rows.append(row)
        emit_tsv(header, rows, sys.stdout)
    else:
        doc = {"command": "growth",
               "config": _config(args, ("source", "kmax", "normal"))}
        doc |= {"source": src_label} | report.to_json_dict()
        emit_json(doc, sys.stdout)
    return 0


def cmd_table2(args):
    """a_k of the braid groups B_3..B_nmax for k <= kmax, with '?' past the
    S_k cap of ``hom_count_symmetric``, so the table depends on its input
    alone."""
    from .presentations import builtin_presentation

    rows = []
    for n in range(3, args.nmax + 1):
        P = builtin_presentation("braid", n)
        row = ["B%d" % n]
        hk = []
        for k in range(1, args.kmax + 1):
            try:
                hk.append(subgrowth.hom_count_symmetric(P, k))
            except CapExceeded:  # k past the cap, and so is every larger k
                row += ["?"] * (args.kmax + 1 - k)
                break
            row.append(subgrowth.ak_from_homcounts(hk)[-1])
        rows.append(row)
    emit_tsv(["group"] + ["a_%d" % k for k in range(1, args.kmax + 1)], rows, sys.stdout)
    return 0


_VERIFY_SOURCES = [
    "builtin:free(2)", "builtin:bs(1,3)", "builtin:bs(2,4)", "builtin:klein",
    "builtin:braid(3)",
]
_VERIFY_TARGETS = ["Z(6)", "S(3)", "D(8)", "Q(8)", "D(12)", "A(4)", "S(4)"]


def cmd_verify(args):
    budget = OracleBudget(max_letter_ops=args.budget)
    rows = []
    failed = False
    for src in args.sources or _VERIFY_SOURCES:
        P, _ = load_source(src)
        for tgt in args.targets or _VERIFY_TARGETS:
            tower = load_target(tgt, args.cap_order)
            hom = counting.hom_count(P, tower, cap=args.cap_frontier)
            epi = counting.epi_count(P, tower, cap=args.cap_frontier,
                                     with_aut=False).epi
            bh = brute_hom(P, tower.group, budget=budget)
            be = brute_epi(P, tower.group, budget=budget)
            if not (bh.verified and be.verified):
                status = "unverified"
            elif bh.count == hom and be.count == epi:
                status = "pass"
            else:
                status = "fail"
                failed = True
            rows.append([src, tgt, hom, bh.count if bh.verified else "-",
                         epi, be.count if be.verified else "-", status])
    emit_tsv(
        ["source", "target", "hom", "hom_brute", "epi", "epi_brute", "status"],
        rows, sys.stdout,
    )
    return 1 if failed else 0


def cmd_catalog(args):
    if args.dump:
        tower = builtin_group(args.dump, cap=args.cap_order)
        write_table_file(tower.group, sys.stdout)
        return 0
    from .groups import CATALOG_SPECS

    rows = []
    for spec in CATALOG_SPECS:
        tower = builtin_group(spec)
        rows.append([
            spec,
            tower.order,
            " ".join("%d^%d" % (l.q, l.s) for l in tower.layers),
            "".join(str(l.c_chi) for l in tower.layers),
        ])
    emit_tsv(["spec", "order", "chief_factors", "split_pattern"], rows, sys.stdout)
    return 0


# ---------------------------------------------------------------------------


def _at_least(low):
    def parse(text):
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (low, text))
    return parse


def build_parser():
    top = _Parser(prog="solvquot",
                  description="Counting homomorphisms onto finite solvable groups")
    sub = top.add_subparsers(dest="command", required=True)

    def verb(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    def add_common(p, source=True, target=True, frontier=False):
        if source:
            p.add_argument("--source", required=True,
                           help="builtin:<family(args)>, inline '< ... >', or a file")
        if target:
            p.add_argument("--target", required=True,
                           help="group spec like 'S(4)' or a table file")
            p.add_argument("--cap-order", type=_at_least(0), default=DEFAULT_ORDER_CAP,
                           help="largest allowed target group order")
        if frontier:
            p.add_argument("--cap-frontier", type=_at_least(0),
                           default=counting.DEFAULT_FRONTIER_CAP,
                           help="most maps one tower level may build (the lifts "
                                "of its orbit representatives)")
        p.add_argument("--tsv", action="store_true", help="tabular output")

    for name in ("hom", "epi", "delta"):
        p = verb(name, cmd_count, help="count homomorphisms/epimorphisms")
        add_common(p, frontier=True)

    p = verb("aut", cmd_aut, help="automorphism group order")
    add_common(p, source=False)

    p = verb("cocycle", cmd_cocycle, help="dump a twisted lifting system (TSV)")
    add_common(p)
    p.add_argument("--level", type=int, default=None, help="tower level (default: top)")
    p.add_argument("--images", required=True,
                   help="comma list of base-element indices, one per generator")

    p = verb("moebius", cmd_moebius, help="subgroup lattice Moebius table (TSV)")
    add_common(p, source=False)
    p.add_argument("--cap-lattice", type=_at_least(0), default=200)

    p = verb("growth", cmd_growth, help="index-k subgroup counts")
    add_common(p, target=False)
    p.add_argument("--kmax", type=_at_least(1), default=5)
    p.add_argument("--cap-k", type=_at_least(0), default=8)
    p.add_argument("--normal", action="store_true",
                   help="also count normal subgroups (k <= 15)")

    p = verb("table2", cmd_table2, help="low-index subgroup table for braid groups (TSV)")
    p.add_argument("--nmax", type=_at_least(3), default=6)
    p.add_argument("--kmax", type=_at_least(1), default=6)

    p = verb("verify", cmd_verify, help="engine vs brute-force oracle matrix (TSV)")
    p.add_argument("--sources", nargs="*", default=None)
    p.add_argument("--targets", nargs="*", default=None)
    p.add_argument("--budget", type=_at_least(0), default=10**8,
                   help="oracle budget in letter operations")
    p.add_argument("--cap-order", type=_at_least(0), default=DEFAULT_ORDER_CAP)
    p.add_argument("--cap-frontier", type=_at_least(0), default=counting.DEFAULT_FRONTIER_CAP)

    p = verb("catalog", cmd_catalog, help="list builtin groups or dump a table")
    p.add_argument("--dump", default=None, help="group spec to dump as a table file")
    p.add_argument("--cap-order", type=_at_least(0), default=DEFAULT_ORDER_CAP)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, ParseError, PresentationError, GroupSpecError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except CapExceeded as exc:
        sys.stderr.write("aborted: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
