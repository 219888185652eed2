"""The benchmark's workloads: fixed CLI command lists and their output checks.

Every command runs through ``rankshift.cli.main(argv)``.  Its stdout is
hashed as it streams; only the untimed warm-up pass also keeps the output,
for the command's checker.  The checkers use the benchmark's own arithmetic
(closed-form counts, its own word validity and overlap comparison), never
the package's.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

@dataclass
class Command:
    label: str
    argv: list[str]
    files: list[str]
    check: Callable[[list[str], int], list[str]]
    key: str = ""


@dataclass
class Workload:
    name: str
    commands: list[Command] = field(default_factory=list)

    def files(self) -> list[str]:
        out = []
        for c in self.commands:
            for f in c.files:
                if f not in out:
                    out.append(f)
        return out


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic
# ---------------------------------------------------------------------------

def _gm_ends(k: int) -> tuple[int, int]:
    """Golden-mean words with k+1 letters ending in 0 and in 1 (Fibonacci)."""
    e0, e1 = 1, 1
    for _ in range(k):
        e0, e1 = e0 + e1, e0
    return e0, e1


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _strides(shape):
    st = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        st[i] = st[i + 1] * (shape[i + 1] + 1)
    return st


def _cells(shape):
    cells = [()]
    for m in shape:
        cells = [c + (x,) for c in cells for x in range(m + 1)]
    return cells


def _parse_word(text: str, names: list[str]):
    """``shape=a,b cells=x,y,...`` -> (shape, letter indices)."""
    shape_part, cells_part = text.split(" cells=")
    shape = tuple(int(x) for x in shape_part.split("shape=")[1].split(","))
    index = {n: i for i, n in enumerate(names)}
    return shape, [index[c] for c in cells_part.split(",")]


def _word_errors(system: dict, shape, letters) -> list[str]:
    """Transition violations of a row-major word, by the system's own matrices."""
    n_cells = 1
    for m in shape:
        n_cells *= m + 1
    if len(letters) != n_cells:
        return [f"{len(letters)} letters for shape {shape}"]
    st = _strides(shape)
    mats = system["matrices"]
    for cell in _cells(shape):
        i = sum(c * s for c, s in zip(cell, st))
        for j, m in enumerate(shape):
            if cell[j] < m and not mats[j][letters[i + st[j]]][letters[i]]:
                return [f"step {j + 1} from cell {cell} not allowed"]
    return []


def _agree(shape, w1, w2, p) -> bool:
    """Whether w1 and the p-translate of w2 (both of ``shape``) agree."""
    st = _strides(shape)
    lo = [max(c, 0) for c in p]
    hi = [min(m, c + m) for m, c in zip(shape, p)]
    if any(b < a for a, b in zip(lo, hi)):
        return True
    cells = [()]
    for a, b in zip(lo, hi):
        cells = [c + (x,) for c in cells for x in range(a, b + 1)]
    for x in cells:
        i1 = sum(c * s for c, s in zip(x, st))
        i2 = sum((c - q) * s for c, q, s in zip(x, p, st))
        if w1[i1] != w2[i2]:
            return False
    return True


def _translates(bound):
    ps = [()]
    for b in bound:
        ps = [p + (x,) for p in ps for x in range(-b, b + 1)]
    return [p for p in ps if any(p)]


# ---------------------------------------------------------------------------
# checkers: (stdout lines, exit code) -> list of problems
# ---------------------------------------------------------------------------

def verdicts(expected: dict[str, str], rc: int, h1_kind: str | None = None):
    def check(lines, code):
        errs = []
        if code != rc:
            errs.append(f"exit {code}, expected {rc}")
        got = {}
        for line in lines:
            cond, _, rest = line.partition(": ")
            got[cond] = rest.split("  witness: ")[0]
            if cond == "H1a-c" and h1_kind and "witness: " in rest:
                kind = json.loads(rest.split("witness: ", 1)[1]).get("kind")
                if kind != h1_kind:
                    errs.append(f"H1a-c witness kind {kind}, expected {h1_kind}")
        want = dict(expected, result="ok" if rc == 0 else "FAILED")
        if got != want:
            errs.append(f"verdicts {got}, expected {want}")
        return errs
    return check


def _passing(rank: int):
    exp = {"H0": "pass", "H1a-c": "pass", "H1 (oracle)": "pass", "H2": "pass",
           "H3 (bounded)": "bounded-pass"}
    exp.update({f"H3* (j={j})": "pass" for j in range(1, rank + 1)})
    return exp


def _h1b_failing(rank: int):
    exp = {"H0": "pass", "H1a-c": "fail", "H1 (oracle)": "fail", "H2": "pass",
           "H3 (bounded)": "skipped"}
    exp.update({f"H3* (j={j})": "skipped" for j in range(1, rank + 1)})
    return exp


def gm_words(m: tuple[int, int], terminus: str | None):
    """enumerate on gm2: word count by the Fibonacci closed form."""
    def check(lines, code):
        ends = [_gm_ends(k) for k in m]
        if terminus is None:
            want = sum(ends[0]) * sum(ends[1])
        else:
            want = ends[0][int(terminus[0])] * ends[1][int(terminus[1])]
        errs = [] if code == 0 else [f"exit {code}"]
        prefix = "shape=%s cells=" % ",".join(map(str, m))
        words = [l for l in lines if l.startswith(prefix)]
        if lines[-1:] != [f"count:{want}"] or len(words) != want \
                or len(lines) != want + 1:
            errs.append(f"{len(words)} words, last line {lines[-1:]}, want {want}")
        return errs
    return check


def gm_bratteli(upto: tuple[int, ...]):
    """bratteli on a tensor of golden means: every level by the closed form."""
    def check(lines, code):
        levels = []
        for m in itertools.product(*(range(u + 1) for u in upto)):
            ends = [_gm_ends(k) for k in m]
            dims = [math.prod(e[x] for e, x in zip(ends, letter))
                    for letter in itertools.product((0, 1), repeat=len(m))]
            # the output orders levels by grade, then by the reversed shape
            levels.append(((sum(m), m[::-1]), "level %s: dims (%s) total %d" % (
                ",".join(map(str, m)), ",".join(map(str, dims)), sum(dims))))
        want = [line for _, line in sorted(levels)]
        errs = [] if code == 0 else [f"exit {code}"]
        if lines != want:
            errs.append(f"{len(lines)} level lines differ from the closed form")
        return errs
    return check


def full_shift_count(shape: tuple[int, ...]):
    """count on a tensor of full 2-shifts: prod over directions of 2^(m+1)."""
    def check(lines, code):
        want = 1
        for m in shape:
            want *= 2 ** (m + 1)
        errs = [] if code == 0 else [f"exit {code}"]
        if lines != [f"total:{want}"]:
            errs.append(f"{lines} != total:{want}")
        return errs
    return check


def separating_family(path: str, m: tuple[int, ...]):
    """set-s: origins, validity and translate separation, re-checked."""
    def check(lines, code):
        system = _load(path)
        names = system["alphabet"]
        errs = [] if code == 0 else [f"exit {code}"]
        if not lines or not lines[0].startswith("common-shape:"):
            return errs + ["no common-shape line"]
        common = tuple(int(x) for x in lines[0].split(":")[1].split(","))
        family = {}
        for line in lines[1:]:
            name, word = line.split(" ", 1)
            shape, letters = _parse_word(word, names)
            if shape != common:
                errs.append(f"{name}: shape {shape} != common {common}")
                continue
            if letters[0] != names.index(name):
                errs.append(f"{name}: origin {names[letters[0]]}")
            errs += _word_errors(system, shape, letters)
            family[name] = letters
        if sorted(family) != sorted(names):
            errs.append("family does not cover the alphabet")
        ps = _translates(m)
        for a, wa in family.items():
            for b, wb in family.items():
                for p in ps:
                    if _agree(common, wa, wb, p):
                        errs.append(f"w_{a} and tau_{p} w_{b} agree")
        return errs
    return check


def projection_support(path: str, m: tuple[int, ...]):
    """q-support on a golden-mean tensor: one support word per word of shape m."""
    def check(lines, code):
        system = _load(path)
        names = system["alphabet"]
        errs = [] if code == 0 else [f"exit {code}"]
        l = tuple(int(x) for x in lines[0].split(":")[1].split(","))
        total = tuple(a + b for a, b in zip(m, l))
        want = math.prod(sum(_gm_ends(k)) for k in m)
        words = lines[2:]
        if lines[1] != f"support-size:{want}" or len(words) != want:
            errs.append(f"{lines[1]} with {len(words)} words, want {want}")
        prefixes = set()
        st = _strides(total)
        for line in words:
            deco, word = line.split(" ", 1)
            shape, letters = _parse_word(word, names)
            if shape != total:
                errs.append(f"support word of shape {shape}, want {total}")
                continue
            if deco != f"decoration={names[letters[0]]}":
                errs.append(f"{deco} on a word starting {names[letters[0]]}")
            errs += _word_errors(system, shape, letters)
            prefixes.add(tuple(letters[sum(c * s for c, s in zip(cell, st))]
                               for cell in _cells(m)))
        if len(prefixes) != want:
            errs.append(f"{len(prefixes)} distinct [0,m] prefixes, want {want}")
        return errs
    return check


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def build(root: str, inputs: dict[str, str]) -> dict[str, Workload]:
    """The three workloads over the sample files and the generated inputs."""
    gm2 = os.path.join(root, "samples", "gm2.json")
    fs2 = os.path.join(root, "samples", "fs2.json")
    fs3, c16, c24 = inputs["fs3"], inputs["circ16"], inputs["circ24"]
    ones, rep = inputs["all_ones_pair"], inputs["rep12"]

    gm2_verdicts = dict(_passing(2), **{"H3* (j=1)": "fail", "H3* (j=2)": "fail"})
    verify = Workload("verify", [
        Command("verify gm2", ["verify", gm2], [gm2], verdicts(gm2_verdicts, 1)),
        Command("verify fs2", ["verify", fs2], [fs2], verdicts(_passing(2), 0)),
        Command("verify fs3", ["verify", fs3], [fs3], verdicts(_passing(3), 0)),
        Command("verify circ16", ["verify", c16], [c16], verdicts(_passing(2), 0)),
        Command("verify circ24", ["verify", c24], [c24], verdicts(_passing(2), 0)),
        Command("verify all_ones_pair", ["verify", ones], [ones],
                verdicts(_h1b_failing(2), 1, "H1b")),
        Command("verify rep12", ["verify", rep], [rep],
                verdicts(_h1b_failing(2), 1, "H1b")),
    ])
    witness = Workload("witness", [
        Command("set-s fs2 2,2", ["witness", "set-s", fs2, "--p-bound", "2,2"],
                [fs2], separating_family(fs2, (2, 2))),
        Command("set-s gm2 2,2", ["witness", "set-s", gm2, "--p-bound", "2,2"],
                [gm2], separating_family(gm2, (2, 2))),
        Command("q-support gm2 1,1",
                ["witness", "q-support", gm2, "--p-bound", "1,1"],
                [gm2], projection_support(gm2, (1, 1))),
        Command("set-s circ24 1,1", ["witness", "set-s", c24, "--p-bound", "1,1"],
                [c24], separating_family(c24, (1, 1))),
    ])
    enumerate_ = Workload("enumerate", [
        Command("enumerate gm2 8,8", ["enumerate", gm2, "--shape", "8,8"],
                [gm2], gm_words((8, 8), None)),
        Command("enumerate gm2 9,9 terminus 11",
                ["enumerate", gm2, "--shape", "9,9", "--terminus", "11"],
                [gm2], gm_words((9, 9), "11")),
        Command("bratteli gm2 60,60", ["bratteli", gm2, "--upto", "60,60"],
                [gm2], gm_bratteli((60, 60))),
        Command("count fs3 30,30,30", ["count", fs3, "--shape", "30,30,30"],
                [fs3], full_shift_count((30, 30, 30))),
    ])
    out = {w.name: w for w in (verify, witness, enumerate_)}
    for w in out.values():
        w.commands += coverage(os.path.join(root, "samples", "gm.json"))
    for w in out.values():
        for c in w.commands:
            c.key = command_key(c.argv, c.files)
    return out


def coverage(gm: str) -> list[Command]:
    """A few milliseconds of every layer, run at the end of every workload.

    Each workload leaves some layers idle; this tail gives every per-layer
    time a small measured value on every workload instead of a constant 0.
    """
    rank1 = _passing(1)
    rank1["H3* (j=1)"] = "fail"
    return [
        Command("verify gm", ["verify", gm], [gm], verdicts(rank1, 1)),
        Command("q-support gm 1", ["witness", "q-support", gm, "--p-bound", "1"],
                [gm], projection_support(gm, (1,))),
        Command("bratteli gm 3", ["bratteli", gm, "--upto", "3"], [gm],
                gm_bratteli((3,))),
    ]


def command_key(argv: list[str], files: list[str]) -> str:
    """Digest-table key: the argv with each input file replaced by its content."""
    parts = []
    for arg in argv:
        if arg in files:
            data = json.dumps(_load(arg), sort_keys=True, separators=(",", ":"))
            arg = "file:" + hashlib.sha256(data.encode()).hexdigest()[:16]
        parts.append(arg)
    return " ".join(parts)
