"""Command-line interface and the JSON system file format.

A system file looks like

    {
      "rank": 2,
      "alphabet": ["00", "01", "10", "11"],
      "matrices": [ [[...], ...], [[...], ...] ],
      "decorations": {"names": ["d0", "d1"], "delta": ["00", "10"]}
    }

``matrices[j][b][a] = 1`` means the step  a -> b  in direction j+1 is
allowed (rows are indexed by the target letter).  ``decorations`` is
optional and defaults to the identity decoration D = A.

Exit codes: 0 = success / all checks passed, 1 = a check failed or a
witness search came back negative (with evidence printed), 2 = usage or
input error.  All output is byte-deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice
from typing import Sequence

from . import af_core, builders, verify, witnesses
from .core import (
    Alphabet,
    DecorationMap,
    DecoratedWord,
    Shape,
    SubshiftError,
    TileSystem,
    UnknownLetterError,
    Word,
    check_floor,
    check_shape,
    validate_word,
)
from .completion import end_placements, extend_unit, iter_grid_completions, product

__all__ = ["load_system", "save_system", "main", "console_main", "SystemFileError"]


class SystemFileError(SubshiftError):
    """A system file failed to parse or validate; message names the field."""


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _require(cond, message):
    if not cond:
        raise SystemFileError(message)


def load_system(path) -> tuple[TileSystem, DecorationMap]:
    """Load a UTF-8 system file; returns the system and its decoration map."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SystemFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: not UTF-8 text, {exc.reason} "
                              f"at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    return parse_system(data, origin=str(path))


def parse_system(data, origin: str = "<data>") -> tuple[TileSystem, DecorationMap]:
    """The system and decoration map in parsed JSON.  The file format's own
    rules are checked here, and the constructors check the rest (letter and
    decoration names included): their ValueError, which names the same field,
    is re-raised with ``origin``."""
    _require(isinstance(data, dict), f"{origin}: top level must be an object")
    for key in ("rank", "alphabet", "matrices"):
        _require(key in data, f"{origin}: missing field {key!r}")
    rank = data["rank"]
    _require(type(rank) is int and rank >= 1,
             f"{origin}: 'rank' must be an integer >= 1, not {rank!r}")
    letters = data["alphabet"]
    _require(isinstance(letters, list),
             f"{origin}: 'alphabet' must be a nonempty list of strings")
    try:
        alphabet = Alphabet(letters)
        matrices = data["matrices"]
        _require(isinstance(matrices, list) and len(matrices) == rank,
                 f"{origin}: 'matrices' must list exactly rank={rank} matrices")
        ts = TileSystem(alphabet, matrices)
        deco = data.get("decorations")
        if deco is None:
            return ts, DecorationMap.identity(alphabet)
        _require(isinstance(deco, dict) and "names" in deco and "delta" in deco,
                 f"{origin}: 'decorations' must have 'names' and 'delta'")
        names = deco["names"]
        delta_names = deco["delta"]
        _require(isinstance(names, list),
                 f"{origin}: decorations.names must be a nonempty string list")
        _require(isinstance(delta_names, list),
                 f"{origin}: decorations.delta must align with decorations.names")
        for i, a in enumerate(delta_names):
            _require(a in letters,
                     f"{origin}: decorations.delta[{i}] = {a!r} "
                     f"is not an alphabet letter")
        delta = tuple(map(alphabet.resolve, delta_names))
        return ts, DecorationMap(tuple(names), delta)
    except ValueError as exc:
        raise SystemFileError(f"{origin}: {exc}") from exc


def system_to_json(ts: TileSystem, dmap: DecorationMap | None = None) -> dict:
    data = {
        "rank": ts.rank,
        "alphabet": list(ts.alphabet.letters),
        "matrices": [[list(row) for row in mat] for mat in ts.matrices],
    }
    if dmap is not None and dmap != DecorationMap.identity(ts.alphabet):
        dmap.by_letter(ts.n_letters)  # every delta entry is a letter of ts
        data["decorations"] = {
            "names": list(dmap.names),
            "delta": [ts.alphabet.name(a) for a in dmap.delta],
        }
    return data


def save_system(ts: TileSystem, path, dmap: DecorationMap | None = None) -> None:
    data = system_to_json(ts, dmap)  # checked before the file is opened
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise SystemFileError(f"{path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# small formatting helpers
# ---------------------------------------------------------------------------

def _parse_shape(text: str | None, ts: TileSystem, what: str) -> Shape | None:
    """The shape given to flag ``what``, checked; None when it was not given."""
    if text is None:
        return None
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise SystemFileError(f"cannot parse {what} {text!r}; "
                              f"expected comma-separated integers") from None
    return check_shape(ts, parts, what)


def _format_shape(s: Sequence[int]) -> str:
    return ",".join(map(str, s))


def _format_word(ts: TileSystem, w, dmap: DecorationMap | None = None) -> str:
    if isinstance(w, DecoratedWord):
        name = dmap.names[w.decoration] if dmap else str(w.decoration)
        return (f"decoration={name} shape={_format_shape(w.word.shape)} "
                f"cells={w.word.render(ts.alphabet)}")
    return f"shape={_format_shape(w.shape)} cells={w.render(ts.alphabet)}"


def _word_arg(ts: TileSystem, shape_text: str, cells_text: str, what: str) -> Word:
    shape = _parse_shape(shape_text, ts, what)
    cells = cells_text.split(",") if cells_text else []
    return validate_word(ts, cells, shape=shape)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    check_floor(args.h3_star_cap, 1, "--h3-star-cap")
    ts, _ = load_system(args.system)
    h1_bound = _parse_shape(args.h1_oracle_bound, ts, "--h1-oracle-bound")
    p_bound = _parse_shape(args.h3_p_bound, ts, "--h3-p-bound")
    # bounds that admit no split, or no p != 0, would pass vacuously
    if h1_bound is not None:
        check_floor(sum(h1_bound), 2, "the grade of --h1-oracle-bound")
    if p_bound is not None:
        check_floor(max(p_bound), 1, "the largest component of --h3-p-bound")
    report = verify.verify_report(
        ts,
        h1_oracle_bound=h1_bound,
        h3_p_bound=p_bound,
        h3_star_cap=args.h3_star_cap,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for check in report.checks:
            line = f"{check.condition}: {check.status}"
            if check.status is verify.Status.FAIL and check.witness is not None:
                line += "  witness: " + json.dumps(check.witness, sort_keys=True)
            print(line)
        print("result: " + ("ok" if report.ok else "FAILED"))
    return 0 if report.ok else 1


def _cmd_count(args) -> int:
    ts, dmap = load_system(args.system)
    shape = _parse_shape(args.shape, ts, "--shape")
    dims = af_core.dim_vector(ts, dmap, shape)
    total = sum(dims)
    if args.json:
        print(json.dumps({"shape": list(shape), "total": total,
                          "per_letter": {ts.alphabet.name(a): d
                                         for a, d in enumerate(dims)}},
                         sort_keys=True))
    elif args.per_letter:
        parts = [f"{ts.alphabet.name(a)}:{d}" for a, d in enumerate(dims)]
        print(" ".join(parts + [f"total:{total}"]))
    else:
        print(f"total:{total}")
    return 0


def _write_blocks(lines) -> int:
    """Write the lines to stdout in blocks of 256; return how many there were."""
    count = 0
    while block := list(islice(lines, 256)):
        sys.stdout.write("\n".join(block) + "\n")
        count += len(block)
    return count


def _cmd_enumerate(args) -> int:
    if args.limit is not None:
        check_floor(args.limit, 0, "--limit")
    ts, dmap = load_system(args.system)
    shape = _parse_shape(args.shape, ts, "--shape")
    fixed = end_placements(ts, shape, args.origin, args.terminus)
    # each slab's text "a,b,...," is formed once; names hold no ",", so "a" is o(w)
    named = [a + "," for a in ts.alphabet.letters]
    texts = iter_grid_completions(ts, shape, fixed, lambda s: "".join([named[a] for a in s]))
    head = f"shape={_format_shape(shape)} cells="
    lines = (head + t[:-1] for t in texts)
    if args.decorated:
        heads = {a: [f"decoration={dmap.names[d]} {head}" for d in ds]
                 for a, ds in zip(ts.alphabet.letters, dmap.by_letter(ts.n_letters))}
        lines = (h + t[:-1] for t in texts for h in heads[t[:t.index(",")]])
    count = _write_blocks(islice(lines, args.limit))
    if count == args.limit and next(lines, None) is not None:
        print(f"... truncated at --limit {args.limit}")
    print(f"count:{count}")
    return 0


def _cmd_extend(args) -> int:
    ts, _ = load_system(args.system)
    w = _word_arg(ts, args.shape, args.cells, "--shape")
    a = ts.alphabet.resolve(args.letter)
    out = extend_unit(ts, w, args.direction, a)
    print(_format_word(ts, out))
    return 0


def _cmd_product(args) -> int:
    ts, _ = load_system(args.system)
    u = _word_arg(ts, args.shape1, args.cells1, "--shape1")
    v = _word_arg(ts, args.shape2, args.cells2, "--shape2")
    print(_format_word(ts, product(ts, u, v)))
    return 0


def _load_gated(args) -> tuple[TileSystem, DecorationMap]:
    """Load the system for a witness command, refusing it unless (H0)-(H2) hold."""
    ts, dmap = load_system(args.system)
    for check in (verify.check_h0(ts), verify.check_h1_local(ts),
                  verify.check_h2(ts)):
        if not check.ok:
            raise SubshiftError(
                f"witness machinery requires (H0)-(H2); {check.condition} failed: "
                f"{json.dumps(check.witness, sort_keys=True)}")
    return ts, dmap


def _cmd_witness_nonperiodic(args) -> int:
    ts, _ = _load_gated(args)
    p_bound = _parse_shape(args.p_bound, ts, "--p-bound")
    origin = ts.alphabet.resolve(args.origin) if args.origin is not None else 0
    w = witnesses.nonperiodic_all(ts, p_bound, origin)
    print(_format_word(ts, w))
    return 0


def _cmd_witness_connect(args) -> int:
    ts, _ = _load_gated(args)
    a = ts.alphabet.resolve(args.origin)
    b = ts.alphabet.resolve(args.terminus)
    n_min = _parse_shape(args.min_shape, ts, "--min-shape")
    print(_format_word(ts, witnesses.connect(ts, a, b, n_min)))
    return 0


def _cmd_witness_distinct_pair(args) -> int:
    ts, _ = _load_gated(args)
    u, v = witnesses.distinct_pair(ts)
    print(_format_word(ts, u))
    print(_format_word(ts, v))
    return 0


def _cmd_witness_set_s(args) -> int:
    ts, _ = _load_gated(args)
    m = _parse_shape(args.p_bound, ts, "--p-bound")
    l, family = witnesses.separating_family(ts, m)
    print(f"common-shape:{_format_shape(l)}")
    for a in range(ts.n_letters):
        print(f"{ts.alphabet.name(a)} {_format_word(ts, family[a])}")
    return 0


def _cmd_witness_q_support(args) -> int:
    ts, dmap = _load_gated(args)
    m = _parse_shape(args.p_bound, ts, "--p-bound")
    total = _parse_shape(args.total, ts, "--total")
    l, family = witnesses.separating_family(ts, m)
    support = witnesses.projection_support(ts, dmap, m, l, family, total=total)
    print(f"common-shape:{_format_shape(l)}")
    print(f"support-size:{len(support)}")
    for dw in support:
        print(_format_word(ts, dw, dmap))
    return 0


def _cmd_bratteli(args) -> int:
    ts, dmap = load_system(args.system)
    upto = _parse_shape(args.upto, ts, "--upto")
    diagram = af_core.bratteli(ts, dmap, upto)
    chain = diagram.diagonal() if args.chain else []
    if args.format == "json":
        doc = diagram.to_json()
        if args.chain:
            names = ts.alphabet.letters
            doc["chain"] = [{"shape": list(m), "dims": dict(zip(names, d))}
                            for m, d in chain]
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        # each direction's rows are encoded once, at an edge's depth (3 levels), and
        # cut in 1 KiB pieces, so that a block of 4096 chunks stays small
        blocks = {}
        for edge in doc["edges"]:
            holder = f"rows of direction {edge['direction']}"  # no name or key has a space
            if (quoted := encoder.encode(holder)) not in blocks:
                text = encoder.encode(edge["multiplicities"]).replace("\n", "\n      ")
                blocks[quoted] = [text[i:i + 1024] for i in range(0, len(text), 1024)]
            edge["multiplicities"] = holder
        # encoded as written, in blocks: an unbuffered stdout (python -u) would
        # otherwise take one write per number
        chunks = (p for c in encoder.iterencode(doc) for p in blocks.get(c, (c,)))
        while block := "".join(islice(chunks, 4096)):
            sys.stdout.write(block)
        sys.stdout.write("\n")
    elif args.format == "dot":
        # chain lines are comments inside the graph, before its closing brace
        comments = "".join(f"  // chain {_format_shape(m)}: ({_format_shape(d)})\n"
                           for m, d in chain)
        print(diagram.to_dot().removesuffix("}") + comments + "}")
    else:  # bratteli fills nodes in canonical order; one template per line kind
        shape, dims = ",".join(["%d"] * ts.rank), ",".join(["%d"] * ts.n_letters)
        level, link = f"level {shape}: dims ({dims}) total %d", f"chain {shape}: ({dims})"
        _write_blocks(level % (*m, *d, sum(d)) for m, d in diagram.nodes.items())
        _write_blocks(link % (*m, *d) for m, d in chain)
    return 0


def _cmd_tensor(args) -> int:
    factors = []
    for path in args.factors:
        ts, _ = load_system(path)
        factors.append(ts)
    result = builders.tensor(factors)
    save_system(result, args.output)
    print(f"wrote rank-{result.rank} system with {result.n_letters} letters "
          f"to {args.output}")
    return 0


def _cmd_redecorate(args) -> int:
    ts, dmap = load_system(args.system)
    assignments = {}
    for item in args.map.split(";"):
        if not item:
            continue
        name, _, shape_text = item.partition("=")
        if name not in dmap.names:
            raise SystemFileError(f"--map names unknown decoration {name!r}")
        if name in assignments:
            raise SystemFileError(f"--map[{name}] is given more than once")
        assignments[name] = _parse_shape(shape_text, ts, f"--map[{name}]")
    missing = [d for d in dmap.names if d not in assignments]
    if missing:
        raise SystemFileError(f"--map missing decorations: {missing}")
    new_map, words = builders.redecorate_by_shape(ts, dmap, assignments)
    if args.output is not None:
        save_system(ts, args.output, new_map)
        print(f"wrote {len(new_map)} decorations to {args.output}")
    for name, a, dw in zip(new_map.names, new_map.delta, words):
        print(f"{name} -> {ts.alphabet.name(a)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankshift",
        description="Rank-r subshifts of finite type: verification, counting, "
                    "enumeration and witness construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("system", help="system JSON file")

    p = sub.add_parser("verify", help="run the (H0)-(H3*) checks")
    common(p)
    p.add_argument("--h1-oracle-bound", metavar="S",
                   help="shape bound for the brute-force (H1) oracle "
                        "(default 2,...,2)")
    p.add_argument("--h3-p-bound", metavar="S",
                   help="largest |p| searched for non-periodic witnesses "
                        "(default 2,...,2)")
    p.add_argument("--h3-star-cap", type=int, default=verify.H3_STAR_CAP,
                   help="max fiber sets before the (H3*) run reports cap-hit "
                        "(default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="count decorated words of a shape")
    common(p)
    p.add_argument("--shape", required=True, metavar="S")
    p.add_argument("--per-letter", action="store_true",
                   help="break the count down by terminus letter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list words of a shape")
    common(p)
    p.add_argument("--shape", required=True, metavar="S")
    p.add_argument("--origin", metavar="A")
    p.add_argument("--terminus", metavar="B")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--decorated", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("extend", help="extend a word one unit")
    common(p)
    p.add_argument("--shape", required=True, metavar="S")
    p.add_argument("--cells", required=True,
                   help="row-major letters, comma-separated")
    p.add_argument("--direction", type=int, required=True, metavar="J")
    p.add_argument("--letter", required=True, metavar="A",
                   help="new terminus letter")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("product", help="the unique product of two words")
    common(p)
    p.add_argument("--shape1", required=True)
    p.add_argument("--cells1", required=True)
    p.add_argument("--shape2", required=True)
    p.add_argument("--cells2", required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("witness", help="constructive witnesses")
    wsub = p.add_subparsers(dest="witness_kind", required=True)

    w = wsub.add_parser("nonperiodic",
                        help="a word defeating every small period")
    common(w)
    w.add_argument("--p-bound", required=True, metavar="M")
    w.add_argument("--origin", metavar="A",
                   help="origin letter (default: first letter)")
    w.set_defaults(func=_cmd_witness_nonperiodic)

    w = wsub.add_parser("connect", help="a word with given ends and minimum shape")
    common(w)
    w.add_argument("--from", dest="origin", required=True, metavar="A")
    w.add_argument("--to", dest="terminus", required=True, metavar="B")
    w.add_argument("--min-shape", required=True, metavar="S")
    w.set_defaults(func=_cmd_witness_connect)

    w = wsub.add_parser("distinct-pair",
                        help="two words of equal shape and origin")
    common(w)
    w.set_defaults(func=_cmd_witness_distinct_pair)

    w = wsub.add_parser("set-s", help="a translate-separated word family")
    common(w)
    w.add_argument("--p-bound", required=True, metavar="M")
    w.set_defaults(func=_cmd_witness_set_s)

    w = wsub.add_parser("q-support",
                        help="the projection support over a separating family")
    common(w)
    w.add_argument("--p-bound", required=True, metavar="M")
    w.add_argument("--total", metavar="S",
                   help="ambient shape (default m + l); larger values "
                        "realise refinements")
    w.set_defaults(func=_cmd_witness_q_support)

    p = sub.add_parser("bratteli", help="the graded diagram of the filtration")
    common(p)
    p.add_argument("--upto", required=True, metavar="S")
    p.add_argument("--format", choices=["text", "dot", "json"], default="text")
    p.add_argument("--chain", action="store_true",
                   help="also print the diagonal chain")
    p.set_defaults(func=_cmd_bratteli)

    p = sub.add_parser("tensor", help="tensor rank-1 systems into one file")
    p.add_argument("factors", nargs="+", help="rank-1 system files, in order")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("redecorate",
                       help="replace decorations by decorated words of given shapes")
    common(p)
    p.add_argument("--map", required=True,
                   help='per-decoration shapes, e.g. "0=1;1=0" or "a=1,0;b=0,0"')
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_redecorate)

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--flag -1,2`` as ``--flag=-1,2``.

    argparse takes a token that starts with '-' and is not a plain negative
    number for an option, so it would report the flag's value as missing
    instead of letting _parse_shape name the negative component.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and len(flag) > 2 and "=" not in flag
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except (SystemFileError, UnknownLetterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SubshiftError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # reader went away (e.g. piped into head); exit quietly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    console_main()
