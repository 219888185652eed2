import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from rankshift import (Alphabet, DecorationMap, TileSystem, af_core, builders, cli,
                       load_system, save_system, verify)
from rankshift.cli import SystemFileError, main, parse_system
from rankshift.completion import decorated_words_of_shape, words_of_shape
from rankshift.core import (UnknownLetterError, add, check_floor, dominates, shape_key,
                            unit, zero)


@pytest.fixture()
def gm_file(tmp_path, gm):
    path = tmp_path / "gm.json"
    save_system(gm, path)
    return str(path)


@pytest.fixture()
def gm2_file(tmp_path, gm2):
    path = tmp_path / "gm2.json"
    save_system(gm2, path)
    return str(path)


@pytest.fixture()
def fs2_file(tmp_path, fs2):
    path = tmp_path / "fs2.json"
    save_system(fs2, path)
    return str(path)


@pytest.fixture()
def jj_file(tmp_path, jj):
    path = tmp_path / "jj.json"
    save_system(jj, path)
    return str(path)


def test_save_load_roundtrip(tmp_path, corpus):
    for name, ts in corpus:
        path = tmp_path / f"{name}.json"
        save_system(ts, path)
        loaded, dmap = load_system(path)
        assert loaded == ts
        assert dmap == DecorationMap.identity(ts.alphabet)


def test_load_with_decorations_roundtrip(tmp_path, gm):
    dmap = DecorationMap(("p", "q", "r"), (0, 1, 0))
    path = tmp_path / "dec.json"
    save_system(gm, path, dmap)
    loaded, loaded_map = load_system(path)
    assert loaded == gm
    assert loaded_map == dmap


_NAME_CHARS = st.one_of(st.sampled_from("ab0,. \t\n\x1f\u00a0\u2028\u00e9\"\\"),
                       st.characters())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_NAME_CHARS, max_size=3), min_size=1, max_size=4))
def test_alphabet_and_loader_share_one_name_rule(letters):
    """Every accepted Alphabet survives save_system -> load_system, and the
    loader rejects every other list with the Alphabet's own message."""
    n = len(letters)
    data = {"rank": 1, "alphabet": letters, "matrices": [[[1] * n] * n]}
    try:
        ts = TileSystem(Alphabet(letters), data["matrices"])
    except ValueError as exc:
        with pytest.raises(SystemFileError) as err:
            parse_system(data)
        assert str(err.value) == f"<data>: {exc}"
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        save_system(ts, path)
        assert load_system(path) == (ts, DecorationMap.identity(ts.alphabet))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text(_NAME_CHARS, max_size=3), st.integers(), st.none()),
                max_size=4))
@example(["a b"])
def test_decoration_map_and_loader_share_one_name_rule(names):
    """Every DecorationMap the constructor accepts survives save_system ->
    load_system unchanged, and the loader rejects every other names list
    with the constructor's own message."""
    data = {"rank": 1, "alphabet": ["0", "1"], "matrices": [[[1, 1], [1, 0]]],
            "decorations": {"names": names, "delta": ["0"] * len(names)}}
    try:
        dmap = DecorationMap(tuple(names), (0,) * len(names))
    except ValueError as exc:
        with pytest.raises(SystemFileError) as err:
            parse_system(data)
        assert str(err.value) == f"<data>: {exc}"
        return
    ts = TileSystem(Alphabet("01"), data["matrices"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        save_system(ts, path, dmap)
        assert load_system(path) == (ts, dmap)


def test_load_rejects_bad_entry():
    data = {"rank": 1, "alphabet": ["0", "1"],
            "matrices": [[[1, 2], [0, 0]]]}
    with pytest.raises(SystemFileError) as err:
        parse_system(data)
    assert "matrices[0][0][1]" in str(err.value)
    assert "2" in str(err.value)


@pytest.mark.parametrize("rank", [True, 1.0, "1", 0])
def test_load_rejects_non_integer_rank(rank):
    data = {"rank": rank, "alphabet": ["0", "1"],
            "matrices": [[[1, 1], [1, 0]]]}
    with pytest.raises(SystemFileError) as err:
        parse_system(data)
    assert "'rank'" in str(err.value)


@pytest.mark.parametrize("entry", [True, False, 1.0, 0.0])
def test_load_rejects_non_integer_entry(entry):
    data = {"rank": 1, "alphabet": ["0", "1"],
            "matrices": [[[1, 1], [entry, 0]]]}
    with pytest.raises(SystemFileError) as err:
        parse_system(data)
    assert "matrices[0][1][0]" in str(err.value)


def test_count_on_loosely_typed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "loose.json"
    path.write_text('{"rank": true, "alphabet": ["0", "1"], '
                    '"matrices": [[[1.0, true], [1, 0]]]}')
    assert main(["count", str(path), "--shape", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'rank'" in captured.err


@pytest.mark.parametrize("matrices", [[5], [[[1, 1]]], [[[1, 1], [1, 1], [1, 1]]]])
def test_a_matrix_that_is_not_a_list_of_rows_exits_2(tmp_path, matrices, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "alphabet": ["0", "1"], "matrices": matrices}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "matrices[0] is not 2x2" in captured.err


@pytest.mark.parametrize("name", ["", "a,b", "a b", "a\tb", "b\n"])
def test_letter_names_that_break_the_word_format_exit_2(tmp_path, name, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "alphabet": ["0", name],
                                "matrices": [[[1, 1], [1, 1]]]}))
    assert main(["count", str(path), "--shape", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "alphabet[1]" in captured.err


@pytest.mark.parametrize("name", ["", "d 0", "d\t0", " ", "d\n"])
def test_decoration_names_that_break_the_word_format_exit_2(tmp_path, name, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 1, "alphabet": ["0", "1"],
                                "matrices": [[[1, 1], [1, 0]]],
                                "decorations": {"names": ["d0", name],
                                                "delta": ["0", "1"]}}))
    assert main(["enumerate", str(path), "--shape", "1", "--decorated"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "decorations.names[1]" in captured.err


def test_redecorated_multichar_names_roundtrip(tmp_path, capsys):
    """Names that redecorate writes for multi-character letters hold commas
    (``00:00,10``); the file they are written to loads again."""
    gm2_path = os.path.join(SAMPLES, "gm2.json")
    out_path = str(tmp_path / "re.json")
    argv = ["redecorate", gm2_path, "--map", "00=1,0;01=0,0;10=0,1;11=0,0",
            "-o", out_path]
    assert main(argv) == 0
    capsys.readouterr()
    ts, dmap = load_system(out_path)
    assert "00:00,10" in dmap.names and len(dmap) == 6
    assert main(["enumerate", out_path, "--shape", "0,0", "--decorated"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "decoration=00:00,10 shape=0,0 cells=10" in lines
    assert lines[-1] == f"count:{len(dmap)}"


def test_tensor_multichar_words_roundtrip(tmp_path, capsys):
    """A word that enumerate prints for a tensor of multi-character names is
    read back whole by extend --cells."""
    factor, product_file = tmp_path / "f.json", str(tmp_path / "t.json")
    factor.write_text(json.dumps({"rank": 1, "alphabet": ["aa", "b"],
                                  "matrices": [[[1, 1], [1, 1]]]}))
    assert main(["tensor", str(factor), str(factor), "-o", product_file]) == 0
    capsys.readouterr()
    assert main(["enumerate", product_file, "--shape", "1,0", "--limit", "1"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "shape=1,0 cells=aa.aa,aa.aa"
    cells = line.split("cells=")[1]
    assert main(["extend", product_file, "--shape", "1,0", "--cells", cells,
                 "--direction", "2", "--letter", "aa.b"]) == 0
    assert capsys.readouterr().out == "shape=1,1 cells=aa.aa,aa.b,aa.aa,aa.b\n"


def test_load_rejects_unknown_decoration_letter():
    data = {"rank": 1, "alphabet": ["0", "1"],
            "matrices": [[[1, 1], [1, 0]]],
            "decorations": {"names": ["d"], "delta": ["x"]}}
    with pytest.raises(SystemFileError) as err:
        parse_system(data)
    assert "delta[0]" in str(err.value)


def test_load_rejects_wrong_matrix_count():
    data = {"rank": 2, "alphabet": ["0"], "matrices": [[[1]]]}
    with pytest.raises(SystemFileError):
        parse_system(data)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SystemFileError) as err:
        load_system(path)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("argv", [
    ["verify", "{gm}", "--transpose"],
    ["tensor", "{gm}", "{gm}", "--transpose", "-o", "{out}"],
])
def test_transpose_flag_is_rejected(tmp_path, gm_file, argv):
    """Files use the a -> b convention only; argparse rejects the flag of the
    other convention before any file is read or written."""
    out_path = tmp_path / "out.json"
    code, out, err = _run_in_process([a.format(gm=gm_file, out=out_path)
                                      for a in argv])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.endswith("rankshift: error: unrecognized arguments: --transpose\n")
    assert not out_path.exists()


def test_non_utf8_file_exits_2_naming_it(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff" + json.dumps({"rank": 1}).encode())
    with pytest.raises(SystemFileError, match="not UTF-8"):
        load_system(path)
    code, out, err = _run_in_process(["verify", str(path)])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == f"error: {path}: not UTF-8 text, invalid start byte at byte 0\n"


def test_missing_file_exits_2(capsys):
    assert main(["verify", "/nonexistent/x.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_pass_exit_0(fs2_file, capsys):
    code = main(["verify", fs2_file, "--h3-p-bound", "2,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H0: pass" in out
    assert "H3 (bounded): bounded-pass" in out
    assert "result: ok" in out


def test_verify_fail_exit_1(jj_file, capsys):
    code = main(["verify", jj_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "H1a-c: fail" in out
    assert "H3* (j=1): skipped" in out


def test_verify_json_output(gm2_file, capsys):
    code = main(["verify", gm2_file, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1  # H3* fails for the squared golden mean
    conditions = {c["condition"]: c["status"] for c in data["checks"]}
    assert conditions["H3 (bounded)"] == "bounded-pass"
    assert conditions["H3* (j=2)"] == "fail"


def test_count_per_letter_format(gm2_file, capsys):
    assert main(["count", gm2_file, "--shape", "1,1", "--per-letter"]) == 0
    assert capsys.readouterr().out == "00:4 01:2 10:2 11:1 total:9\n"


def test_count_total_only(fs2_file, capsys):
    assert main(["count", fs2_file, "--shape", "1,1"]) == 0
    assert capsys.readouterr().out == "total:16\n"


def test_count_bad_shape_exits_2(gm2_file, capsys):
    assert main(["count", gm2_file, "--shape", "1"]) == 2
    assert main(["count", gm2_file, "--shape", "x,y"]) == 2


def test_count_negative_shape_exits_2(gm_file, capsys):
    assert main(["count", gm_file, "--shape=-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--shape" in captured.err and "negative" in captured.err


def test_bratteli_negative_upto_exits_2(gm_file, capsys):
    assert main(["bratteli", gm_file, "--upto=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--upto" in captured.err and "negative" in captured.err


def test_enumerate_negative_shape_exits_2(gm_file, capsys):
    assert main(["enumerate", gm_file, "--shape=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--shape" in captured.err and "negative" in captured.err


def test_witness_set_s_negative_p_bound_exits_2(fs2_file, capsys):
    assert main(["witness", "set-s", fs2_file, "--p-bound=-1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p-bound" in captured.err and "negative" in captured.err


@pytest.mark.parametrize("total, message", [
    ("1,1,1", "error: --total (1, 1, 1) has wrong rank; system rank is 2\n"),
    ("1,-1", "error: --total (1, -1) has a negative component\n"),
])
def test_witness_q_support_checks_total_before_the_search(gm2_file, total, message,
                                                          monkeypatch, capsys):
    """A bad --total exits 2 before the separating family is searched."""
    from rankshift import witnesses

    def no_search(*args):
        raise AssertionError("separating_family called before --total was checked")

    monkeypatch.setattr(witnesses, "separating_family", no_search)
    argv = ["witness", "q-support", gm2_file, "--p-bound", "3,3", "--total", total]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("argv, flag", [
    (["count", "{fs2}", "--shape"], "--shape"),
    (["count", "{fs2}", "--sha"], "--shape"),  # argparse's prefix matching
    (["enumerate", "{fs2}", "--shape"], "--shape"),
    (["extend", "{fs2}", "--cells", "0", "--direction", "1", "--letter", "0",
      "--shape"], "--shape"),
    (["product", "{fs2}", "--cells1", "00", "--cells2", "00", "--shape2", "0,0",
      "--shape1"], "--shape1"),
    (["product", "{fs2}", "--cells1", "00", "--cells2", "00", "--shape1", "0,0",
      "--shape2"], "--shape2"),
    (["bratteli", "{fs2}", "--upto"], "--upto"),
    (["verify", "{fs2}", "--h1-oracle-bound"], "--h1-oracle-bound"),
    (["verify", "{fs2}", "--h3-p-bound"], "--h3-p-bound"),
    (["verify", "{fs2}", "--h3-p"], "--h3-p-bound"),  # argparse's prefix matching
    (["witness", "set-s", "{fs2}", "--p-bound"], "--p-bound"),
    (["witness", "q-support", "{fs2}", "--p-bound"], "--p-bound"),
    (["witness", "nonperiodic", "{fs2}", "--p-bound"], "--p-bound"),
    (["witness", "connect", "{fs2}", "--from", "00", "--to", "00", "--min-shape"],
     "--min-shape"),
    (["witness", "q-support", "{fs2}", "--p-bound", "1,1", "--total"], "--total"),
])
@pytest.mark.parametrize("attach", [False, True])
def test_negative_shape_value_names_flag(fs2_file, argv, flag, attach, capsys):
    """``--flag -1,2`` and ``--flag=-1,2`` both reach the negative-component check."""
    argv = [a.format(fs2=fs2_file) for a in argv]
    argv = argv[:-1] + [f"{flag}=-1,2"] if attach else argv + ["-1,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} (-1, 2) has a negative component\n"


def test_enumerate(gm_file, capsys):
    assert main(["enumerate", gm_file, "--shape", "2", "--origin", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["shape=2 cells=1,0,0", "shape=2 cells=1,0,1", "count:2"]


def test_enumerate_limit(fs2_file, capsys):
    assert main(["enumerate", fs2_file, "--shape", "1,1", "--limit", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert out[-1] == "count:3"


def test_extend(gm_file, capsys):
    assert main(["extend", gm_file, "--shape", "1", "--cells", "0,1",
                 "--direction", "1", "--letter", "0"]) == 0
    assert capsys.readouterr().out == "shape=2 cells=0,1,0\n"


def test_extend_invalid_transition_exit_1(gm_file, capsys):
    code = main(["extend", gm_file, "--shape", "0", "--cells", "1",
                 "--direction", "1", "--letter", "1"])
    assert code == 1
    assert "failed" in capsys.readouterr().err


def test_product(gm_file, capsys):
    assert main(["product", gm_file, "--shape1", "1", "--cells1", "1,0",
                 "--shape2", "1", "--cells2", "0,1"]) == 0
    assert capsys.readouterr().out == "shape=2 cells=1,0,1\n"


def test_witness_connect(gm_file, capsys):
    assert main(["witness", "connect", gm_file, "--from", "1", "--to", "1",
                 "--min-shape", "2"]) == 0
    assert capsys.readouterr().out == "shape=2 cells=1,0,1\n"


def test_witness_distinct_pair(fs2_file, capsys):
    assert main(["witness", "distinct-pair", fs2_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] != lines[1]


def test_witness_nonperiodic(fs2_file, capsys):
    assert main(["witness", "nonperiodic", fs2_file, "--p-bound", "1,1",
                 "--origin", "00"]) == 0
    assert capsys.readouterr().out.startswith("shape=")


def test_witness_gate_blocks_bad_system(jj_file, capsys):
    code = main(["witness", "distinct-pair", jj_file])
    assert code == 1
    assert "H1a-c" in capsys.readouterr().err


def test_witness_nonperiodic_exhaustion_exits_1(tmp_path, capsys):
    """A system passing (H0)-(H2) can still lack witnesses: exit 1."""
    from rankshift import Alphabet, TileSystem
    p1 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    p2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    path = tmp_path / "perm.json"
    save_system(TileSystem(Alphabet("012"), [p1, p2]), path)
    code = main(["witness", "nonperiodic", str(path), "--p-bound", "1,1"])
    assert code == 1
    assert "no non-periodic witness" in capsys.readouterr().err


def test_enumerate_decorated(tmp_path, gm, capsys):
    dmap = DecorationMap(("p", "q", "r"), (0, 1, 0))
    path = tmp_path / "dec.json"
    save_system(gm, path, dmap)
    assert main(["enumerate", str(path), "--shape", "1", "--decorated",
                 "--origin", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    # two shape-1 words from letter 0, two decorations mapping to it
    assert out[-1] == "count:4"
    assert out[0] == "decoration=p shape=1 cells=0,0"


def _former_enumerate(argv):
    """(exit code, stdout) of the former ``rankshift enumerate``: one validated
    Word (or DecoratedWord) per grid, formatted by ``_format_word`` and
    written one line at a time.  The reference for the text-grid path."""
    args = cli._build_parser().parse_args(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            if args.limit is not None:
                check_floor(args.limit, 0, "--limit")
            ts, dmap = load_system(args.system)
            shape = cli._parse_shape(args.shape, ts, "--shape")
            origin = ts.alphabet.resolve(args.origin) if args.origin is not None else None
            terminus = (ts.alphabet.resolve(args.terminus)
                        if args.terminus is not None else None)
            if args.decorated:
                source = decorated_words_of_shape(ts, dmap, shape, origin, terminus)
            else:
                source = words_of_shape(ts, shape, origin=origin, terminus=terminus)
            count = 0
            for w in source:
                if args.limit is not None and count >= args.limit:
                    print(f"... truncated at --limit {args.limit}")
                    break
                sys.stdout.write(cli._format_word(ts, w, dmap) + "\n")
                count += 1
            print(f"count:{count}")
            code = 0
        except (SystemFileError, UnknownLetterError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    return code, out.getvalue()


@pytest.fixture(scope="module")
def enumerate_files(tmp_path_factory, fs3, gm2):
    """Sample files plus fs3, a redecorated gm2 (letter 0 carries three
    decorations) and a tensor with multi-character ``x.y`` names and one
    undecorated letter."""
    tmp = tmp_path_factory.mktemp("enumerate")
    files = {name: os.path.join(SAMPLES, f"{name}.json") for name in ("gm", "gm2", "fs2")}
    files["fs3"] = str(tmp / "fs3.json")
    save_system(fs3, files["fs3"])
    shapes = {"00": (1, 0), "01": (0, 1), "10": (1, 1), "11": (0, 0)}
    redecorated, _ = builders.redecorate_by_shape(
        gm2, DecorationMap.identity(gm2.alphabet), shapes)
    files["gm2-redecorated"] = str(tmp / "gm2-redecorated.json")
    save_system(gm2, files["gm2-redecorated"], redecorated)
    dotted = builders.tensor([builders.from_rank1(["x0", "y1"], [[1, 1], [1, 0]]),
                              builders.golden_mean()])
    files["dotted"] = str(tmp / "dotted.json")
    save_system(dotted, files["dotted"], DecorationMap(("p", "q", "r"), (0, 3, 0)))
    return files


@pytest.mark.parametrize("system, flags", [
    # rank 1: a box of one slab per cell
    ("gm", "--shape 0"), ("gm", "--shape 1"), ("gm", "--shape 5"),
    ("gm", "--shape 4 --origin 1"), ("gm", "--shape 4 --terminus 0"),
    # rank 2: boxes of one, two and several slabs
    ("gm2", "--shape 0,3"), ("gm2", "--shape 1,3"), ("gm2", "--shape 3,2"),
    ("gm2", "--shape 4,4 --origin 01 --terminus 11"), ("gm2", "--shape 5,1 --terminus 10"),
    ("fs2", "--shape 2,1"), ("fs2", "--shape 1,2 --origin 10"),
    ("fs2", "--shape 3,1 --decorated"),
    # rank 3
    ("fs3", "--shape 0,1,1"), ("fs3", "--shape 1,1,1 --origin 101"),
    ("fs3", "--shape 2,1,1 --terminus 011"),
    # decorated: redecorated letters and multi-character x.y names
    ("gm2-redecorated", "--shape 0,0 --decorated"),
    ("gm2-redecorated", "--shape 1,2 --decorated"),
    ("gm2-redecorated", "--shape 3,1 --decorated --origin 00"),
    ("dotted", "--shape 2,1"), ("dotted", "--shape 2,2 --decorated"),
    ("dotted", "--shape 3,0 --decorated --terminus y1.0"),
    # boxes of six to thirteen slabs: the far half of each box comes from a tail
    ("gm", "--shape 12 --terminus 1"), ("gm2", "--shape 8,2 --origin 01"),
    ("gm2", "--shape 6,3 --terminus 11"), ("gm2-redecorated", "--shape 6,1 --decorated"),
    ("dotted", "--shape 6,1"), ("fs3", "--shape 5,1,1"),
    # no words, and an unknown letter (exit 2)
    ("gm2", "--shape 0,1 --origin 11 --terminus 11"), ("gm", "--shape 2 --origin 7"),
])
def test_enumerate_matches_the_former_per_word_loop(enumerate_files, system, flags):
    """The text-grid ``enumerate`` writes the bytes the per-Word loop wrote,
    with the same exit code, unlimited and with --limit 0, 1, below, at and
    above the count."""
    argv = ["enumerate", enumerate_files[system], *flags.split()]
    code, out, _ = _run_in_process(argv)
    assert (code, out) == _former_enumerate(argv)
    total = int(out.rsplit("count:", 1)[1]) if code == 0 else 0
    for limit in sorted({0, 1, max(total - 1, 0), total, total + 1}):
        limited = [*argv, "--limit", str(limit)]
        code, out, _ = _run_in_process(limited)
        assert (code, out) == _former_enumerate(limited), limit


def test_witness_set_s_and_q_support(fs2_file, capsys):
    assert main(["witness", "set-s", fs2_file, "--p-bound", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("common-shape:")
    assert main(["witness", "q-support", fs2_file, "--p-bound", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "support-size:16" in out


def test_bratteli_text_and_dot(gm_file, capsys):
    assert main(["bratteli", gm_file, "--upto", "2"]) == 0
    out = capsys.readouterr().out
    assert "level 0: dims (1,1) total 2" in out
    assert "level 1: dims (2,1) total 3" in out
    assert "level 2: dims (3,2) total 5" in out
    assert main(["bratteli", gm_file, "--upto", "2", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert "digraph" in dot and '"1|0"' in dot


def test_bratteli_dot_escapes_letter_names(tmp_path, capsys):
    """A letter name holding '"' or '\\' is escaped in node ids and labels."""
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({"rank": 1, "alphabet": ['a"b', "c\\d"],
                                "matrices": [[[1, 1], [1, 0]]]}))
    assert main(["bratteli", str(path), "--upto", "1", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert '  "0|a\\"b" [label="a\\"b:1"];\n' in dot
    assert '  "0|c\\\\d" [label="c\\\\d:1"];\n' in dot
    assert '  "0|a\\"b" -> "1|c\\\\d" [label="1"];\n' in dot
    # outside its quoted strings, no line holds a quote or a backslash
    for line in dot.splitlines():
        bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", line)
        assert '"' not in bare and "\\" not in bare, line


def test_bratteli_chain(fs2_file, capsys):
    assert main(["bratteli", fs2_file, "--upto", "2,2", "--chain"]) == 0
    out = capsys.readouterr().out
    assert "chain 0,0: (1,1,1,1)" in out
    assert "chain 2,2: (16,16,16,16)" in out


def test_bratteli_chain_keeps_json_and_dot_whole(gm2_file, capsys):
    argv = ["bratteli", gm2_file, "--upto", "2,1"]
    assert main(argv + ["--format", "json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "json", "--chain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("chain") == [
        {"shape": [0, 0], "dims": {"00": 1, "01": 1, "10": 1, "11": 1}},
        {"shape": [1, 1], "dims": {"00": 4, "01": 2, "10": 2, "11": 1}}]
    assert doc == plain
    assert main(argv + ["--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert main(argv + ["--format", "dot", "--chain"]) == 0
    chained = capsys.readouterr().out
    assert chained.endswith("}\n") and chained.count("}") == 1
    assert chained == dot[:-2] + ("  // chain 0,0: (1,1,1,1)\n"
                                  "  // chain 1,1: (4,2,2,1)\n}\n")


def test_bratteli_rank3_text_digest(tmp_path, capsys):
    fs3 = str(tmp_path / "fs3.json")
    full2 = os.path.join(SAMPLES, "full2.json")
    assert main(["tensor", full2, full2, full2, "-o", fs3]) == 0
    capsys.readouterr()
    assert main(["bratteli", fs3, "--upto", "2,2,2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 27
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "39f9c1bd7a7082f56c1ed586211852762e4f312aa53a5a4a5a912683412a3d1e"


def _former_levels(d):
    return sorted(d.nodes, key=shape_key)


def _former_diagonal(d):
    out, m = [], zero(len(d.upto))
    while dominates(d.upto, m):
        out.append((m, d.nodes[m]))
        m = add(m, (1,) * len(m))
    return out


def _former_to_json(d):
    """BratteliDiagram.to_json as it was: a copy of the matrix per edge, and
    an upto test per (level, direction)."""
    ts = d.system
    names = ts.alphabet.letters
    levels = [{"shape": list(m),
               "dims": {names[a]: c for a, c in enumerate(d.nodes[m])},
               "total": sum(d.nodes[m])}
              for m in _former_levels(d)]
    edges = []
    for m in _former_levels(d):
        for j in range(1, ts.rank + 1):
            if dominates(d.upto, add(m, unit(ts.rank, j))):
                edges.append({"from": list(m), "direction": j,
                              "multiplicities": [list(row) for row in ts.matrices[j - 1]]})
    return {"alphabet": list(names), "upto": list(d.upto),
            "levels": levels, "edges": edges}


def _former_to_dot(d):
    """BratteliDiagram.to_dot as it was: edges from a scan of all n^2 entries."""
    ts = d.system
    names = ts.alphabet.letters
    lines = ["digraph bratteli {", "  rankdir=BT;"]

    def node_id(m, a):
        return af_core._dot_quote("%s|%s" % (",".join(map(str, m)), names[a]))

    for m in _former_levels(d):
        dims = d.nodes[m]
        lines.append("  // level (%s): dims (%s) total %d" % (
            ",".join(map(str, m)), ",".join(map(str, dims)), sum(dims)))
        for a, c in enumerate(dims):
            lines.append("  %s [label=%s];" % (
                node_id(m, a), af_core._dot_quote("%s:%d" % (names[a], c))))
    for m in _former_levels(d):
        for j in range(1, ts.rank + 1):
            target = add(m, unit(ts.rank, j))
            if not dominates(d.upto, target):
                continue
            mat = ts.matrices[j - 1]
            for a in range(len(names)):
                for b in range(len(names)):
                    if mat[b][a]:
                        lines.append("  %s -> %s [label=\"%d\"];" % (
                            node_id(m, a), node_id(target, b), mat[b][a]))
    lines.append("}")
    return "\n".join(lines)


def _former_bratteli(argv):
    """stdout of the former ``rankshift bratteli``: the whole JSON text built
    by json.dumps, then printed, and text lines joined per level and chain
    link from two formatted shapes each."""
    args = cli._build_parser().parse_args(argv)
    ts, dmap = load_system(args.system)
    diagram = af_core.bratteli(ts, dmap, cli._parse_shape(args.upto, ts, "--upto"))
    chain = _former_diagonal(diagram) if args.chain else []
    if args.format == "text":
        fmt = cli._format_shape
        return "".join([f"level {fmt(m)}: dims ({fmt(diagram.nodes[m])}) "
                         f"total {sum(diagram.nodes[m])}\n" for m in _former_levels(diagram)]
                        + [f"chain {fmt(m)}: ({fmt(c)})\n" for m, c in chain])
    if args.format == "json":
        doc = _former_to_json(diagram)
        if args.chain:
            doc["chain"] = [{"shape": list(m), "dims": dict(zip(ts.alphabet.letters, c))}
                            for m, c in chain]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    comments = "".join(f"  // chain {cli._format_shape(m)}: ({cli._format_shape(c)})\n"
                       for m, c in chain)
    return _former_to_dot(diagram).removesuffix("}") + comments + "}\n"


@pytest.fixture(scope="module")
def bratteli_files(tmp_path_factory, enumerate_files):
    """enumerate_files plus seeded random_system draws of rank 1-3 with
    random decorations; (H1a)-(H1c) hold on some and fail on others."""
    tmp = tmp_path_factory.mktemp("bratteli")
    files = dict(enumerate_files)
    rng = random.Random(0xB7A)
    passes = set()
    for k in range(9):
        ts = builders.random_system(rng, rng.randint(1, 5), k % 3 + 1,
                                    density=rng.choice([0.2, 0.5, 0.8]))
        delta = tuple(rng.randrange(ts.n_letters) for _ in range(rng.randint(1, 6)))
        files[f"random{k}"] = str(tmp / f"random{k}.json")
        save_system(ts, files[f"random{k}"],
                    DecorationMap(tuple(f"d{i}" for i in range(len(delta))), delta))
        passes.add(verify.check_h1_local(ts).status is verify.Status.PASS)
    assert passes == {True, False}
    return files


_BRATTELI_BOUNDS = {1: ["0", "1", "4"], 2: ["0,0", "2,0", "0,3", "2,3"],
                    3: ["0,0,0", "1,2,0", "2,0,1", "2,1,2"]}


@pytest.mark.parametrize("system", ["gm", "gm2", "fs2", "fs3", "gm2-redecorated", "dotted",
                                    *(f"random{k}" for k in range(9))])
def test_bratteli_exports_match_the_former_walks(bratteli_files, system):
    """levels, diagonal, to_json, to_dot and the CLI's text, json and dot
    output, --chain included, equal the former sorted levels, per-edge matrix
    copies, n^2 DOT scan, per-line shape joins and whole-text JSON writer at
    several bounds, of rank 1 to 3 (a bound with a zero component gives a
    direction no edge, whose rows the JSON writer never encodes)."""
    ts, dmap = load_system(bratteli_files[system])
    for upto in _BRATTELI_BOUNDS[ts.rank]:
        d = af_core.bratteli(ts, dmap, cli._parse_shape(upto, ts, "--upto"))
        assert d.levels() == _former_levels(d)
        assert d.diagonal() == _former_diagonal(d)
        assert d.to_json() == _former_to_json(d)
        assert d.to_dot() == _former_to_dot(d)
        for fmt in ("text", "json", "dot"):
            for chain in ([], ["--chain"]):
                argv = ["bratteli", bratteli_files[system], "--upto", upto,
                        "--format", fmt, *chain]
                assert _run_in_process(argv) == (0, _former_bratteli(argv), ""), argv


def test_tensor_subcommand(tmp_path, gm_file, gm2, capsys):
    out_path = str(tmp_path / "out.json")
    assert main(["tensor", gm_file, gm_file, "-o", out_path]) == 0
    built, _ = load_system(out_path)
    assert built == gm2


def test_redecorate_subcommand(tmp_path, gm_file, capsys):
    out_path = str(tmp_path / "re.json")
    assert main(["redecorate", gm_file, "--map", "0=1;1=0",
                 "-o", out_path]) == 0
    out = capsys.readouterr().out
    assert "0:00 -> 0" in out
    assert "1:1 -> 1" in out
    _, dmap = load_system(out_path)
    assert dmap.names == ("0:00", "0:01", "1:1")


def test_redecorate_requires_full_map(gm_file, capsys):
    assert main(["redecorate", gm_file, "--map", "0=1"]) == 2


def test_redecorate_rejects_a_repeated_decoration(gm2_file, capsys):
    argv = ["redecorate", gm2_file, "--map", "00=1,1;01=0,0;10=0,0;11=0,0;00=0,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--map[00]" in captured.err


def test_output_is_deterministic(gm2_file, capsys):
    main(["verify", gm2_file, "--json"])
    first = capsys.readouterr().out
    main(["verify", gm2_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


SAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "samples")

# (argv with sample file names, exit code, SHA-256 of stdout); the CLI's
# contract is byte-identical output, so a digest changes only on purpose
GOLDEN = [
    ("witness q-support gm2.json --p-bound 1,1", 0,
     "433d58c441e2ba83302154f87ee03dac5e50d7d1ed3698c9a617bcd9ac217af8"),
    ("witness q-support gm2.json --p-bound 1,1 --total 12,8", 0,
     "432cc88d6cb8f8b4c212498393b2d700e4c736f57d03134ecf299fdb5f48af91"),
    ("witness q-support fs2.json --p-bound 1,1", 0,
     "400650826b373bdd1ac31635478fd069eaddd1877c6082a79e5fcccc9c208646"),
    ("witness q-support fs2.json --p-bound 1,1 --total 12,7", 0,
     "82ad2d266d7701177e7d786ee1c60df01db74e5b378c9f16f7743fecf68b9b4e"),
    ("witness set-s gm2.json --p-bound 1,1", 0,
     "f47b64b9b842ef9c062ec41d5b3377bfeb1bdb9c529c452a2aeb15d8cc416c42"),
    ("witness nonperiodic fs2.json --p-bound 1,1", 0,
     "93a14eebd4eab800b457c1a0a96425a88ccc84af1d59744c2e999bcf732c3e77"),
    ("witness connect gm2.json --from 11 --to 11 --min-shape 2,1", 0,
     "8618749eac84f05b42bed34fc177677da6f1b95f398621c9ce18ce2fe1dad673"),
    ("witness distinct-pair gm2.json", 0,
     "0011af91a72d54fea27e11bd8c5676fc28e460b097d78f4be7d5f86885228c97"),
    ("verify fs2.json --json", 0,
     "6c2e535ef4f2ecf374df875c3853ebc60c8aa0455f8f289828d5ef8b87c60e64"),
    ("verify gm2.json --json", 1,
     "7b2459e385867f33df9f24582191de191f83c8d93c83e1d9188e5b0e9fbb4a51"),
    # the (H1) oracle's shapes with m_1 >= 2, built slab by slab, up to (4,4)
    ("verify fs2.json --h1-oracle-bound 4,4 --json", 0,
     "5fe76387210d0f9b7c51a5cc79fc94aaba2a1186deeed5853856fa5f04f1de3a"),
    # rank 1: one cell per slab; (H3*) fails
    ("verify gm.json --h1-oracle-bound 6 --json", 1,
     "6efa5eef9107c9b1083e90e91cad86da1600c2d5965923d109026ae024b35669"),
    ("enumerate gm2.json --shape 3,3 --terminus 11", 0,
     "6c3b6d1cfe28e5daa1997fced0cf97b3699ac9049738c19445dc3cff78f8d14e"),
    # the benchmark's slowest enumerate command: ten slabs, the last five from tails
    ("enumerate gm2.json --shape 9,9 --terminus 11", 0,
     "fb4dfce49b1a6349aa907d9356d4500af494ae2fc53995e5c63911abbbbf0387"),
    ("bratteli gm2.json --upto 3,3 --format json", 0,
     "76047f8c43983571e82dd43d6a0dbbcf09eac700ea84ee8abf7e5be38d998971"),
    ("bratteli gm2.json --upto 3,3", 0,
     "a35880a949ee6d09bf48f253dbecb0828f828b78da6c35a2997a7da47dcd1c6b"),
    ("bratteli gm2.json --upto 3,3 --chain", 0,
     "fc4137d4e6cf081d99388bf07d3a37162b85bb2de9eee14c986d987cbea8492b"),
    # 3,721 level lines: many full blocks of 256 and a partial last one
    ("bratteli gm2.json --upto 60,60", 0,
     "13da041545ab244e0cad779c51094212ba8af54ce29e17c54b416c29c43493d5"),
    ("bratteli gm2.json --upto 60,60 --chain", 0,
     "abb890cb26f095abef89b142cf6ff9ef40f788f9e3a330e51aa77fb9ba3e8aba"),
    ("bratteli gm2.json --upto 2,2 --format dot", 0,
     "ce5df3390d0d9f6afe5fefcb4c5bae325251ebb1c17abd4a9dee875451e11151"),
    ("enumerate gm2.json --shape 3,3 --limit 5", 0,
     "21868003616b219fda1d0ee091764a83829a8e6ee70ebf28f14885ad425f6796"),
    ("enumerate gm2.json --shape 4,4", 0,
     "86a48f6e66c2d032c5c1c35714a251a248215ddbeec152c7362c052588c1980c"),
    ("enumerate fs2.json --shape 2,3 --origin 01", 0,
     "383d2401ed63e3fa8d98e37bc5dedd7e6efaa49ae5f5df8c87208e8a55223ade"),
    ("enumerate gm2.json --shape 2,2 --decorated", 0,
     "2192b7066a62dfe964b307bacf7869e50b1f06c89c2869db841f132ec7dda500"),
    # an 11-spacer core, each witness word filled once along its staircase
    ("witness set-s fs2.json --p-bound 2,2", 0,
     "4b90a0995b3f9d04cf81e768af4adbb0a6583ef8e89c96ae62157d14153b7010"),
    ("witness q-support gm2.json --p-bound 2,2", 0,
     "03f9c5c7fb32e0f06a3bfe2e7f709d55473e6643fbb3235ef7b343510fa8dca7"),
    ("witness set-s gm2.json --p-bound 2,2", 0,
     "4b90a0995b3f9d04cf81e768af4adbb0a6583ef8e89c96ae62157d14153b7010"),
    ("witness nonperiodic gm2.json --p-bound 2,2", 0,
     "8eca4d5be12e42430cdf2dbad84449916b4b1b6c118f1526b22c0fd7ba9b8c99"),
    ("count gm2.json --shape 2,2 --json", 0,
     "a52ab48ab89cc41aeda3f367a69991254cf047ffc14b5b631c0066af74b354fe"),
]


def test_golden_output_digests(capsys):
    """Stdout stays byte-identical on the sample systems."""
    for command, code, digest in GOLDEN:
        argv = [os.path.join(SAMPLES, a) if a.endswith(".json") else a
                for a in command.split()]
        assert main(argv) == code, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_verify_json_h3_params_name_only_the_p_bound():
    """The bounded (H3) check reports the one bound it has, the p bound; the
    ``verify --json`` digests above pin this document."""
    ts, _ = load_system(os.path.join(SAMPLES, "fs2.json"))
    checks = {c["condition"]: c for c in verify.verify_report(ts).to_json()["checks"]}
    assert checks["H3 (bounded)"]["params"] == {"p_bound": [2, 2]}


@pytest.mark.parametrize("command", [
    ["tensor", "{gm}", "{gm}", "-o", "{missing}"],
    ["redecorate", "{gm}", "--map", "0=1;1=0", "-o", "{missing}"],
])
def test_unwritable_output_exits_2(tmp_path, gm_file, command, capsys):
    missing = str(tmp_path / "no-such-dir" / "out.json")
    argv = [a.format(gm=gm_file, missing=missing) for a in command]
    assert main(argv) == 2
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["enumerate", "{gm}", "--shape", "2", "--origin", ""], "unknown letter ''"),
    (["enumerate", "{gm}", "--shape", "2", "--terminus", ""], "unknown letter ''"),
    (["witness", "nonperiodic", "{fs2}", "--p-bound", "1,1", "--origin", ""],
     "unknown letter ''"),
    (["redecorate", "{gm}", "--map", "0=1;1=0", "-o", ""], "error: : "),
    (["tensor", "{gm}", "{gm}", "-o", ""], "error: : "),
])
def test_empty_flag_value_is_not_absent(gm_file, fs2_file, command, message, capsys):
    """An empty letter or output path is rejected, not read as a missing flag."""
    argv = [a.format(gm=gm_file, fs2=fs2_file) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_save_system_reports_path(tmp_path, gm):
    missing = tmp_path / "no-such-dir" / "out.json"
    with pytest.raises(SystemFileError, match="no-such-dir"):
        save_system(gm, missing)


@pytest.mark.parametrize("argv, flag", [
    (["verify", "{gm}", "--h3-star-cap", "0"], "--h3-star-cap"),
    (["verify", "{gm}", "--h3-p-bound", "0"], "--h3-p-bound"),
    (["enumerate", "{gm}", "--shape", "2", "--limit", "-1"], "--limit"),
    # bounds that would pass vacuously: no split of grade >= 2, no p != 0
    (["verify", "{fs2}", "--h1-oracle-bound", "1,0"], "--h1-oracle-bound"),
    (["verify", "{fs2}", "--h1-oracle-bound", "0,0"], "--h1-oracle-bound"),
    (["verify", "{gm}", "--h1-oracle-bound", "1"], "--h1-oracle-bound"),
    (["verify", "{fs2}", "--h3-p-bound", "0,0"], "--h3-p-bound"),
])
def test_search_bound_below_floor_exits_2(gm_file, fs2_file, argv, flag, capsys):
    assert main([a.format(gm=gm_file, fs2=fs2_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("argv, shape_bound, p_bound", [
    (["verify", "{fs2}", "--h3-shape-bound", "0,0"], "(0, 0)", "(2, 2)"),
    (["verify", "{fs2}", "--h3-p-bound", "1,2", "--h3-shape-bound", "3,1"],
     "(3, 1)", "(1, 2)"),
    (["witness", "nonperiodic", "{fs2}", "--p-bound", "1,1", "--shape-bound", "0,0"],
     "(0, 0)", "(1, 1)"),
    (["witness", "set-s", "{fs2}", "--p-bound", "1,1", "--shape-bound", "1,0"],
     "(1, 0)", "(1, 1)"),
    (["witness", "q-support", "{gm2}", "--p-bound", "1,1", "--shape-bound", "0,1"],
     "(0, 1)", "(1, 1)"),
    # (H1b) fails, so the bounded (H3) check is skipped: the bound still exits 2
    (["verify", "{jj}", "--h3-shape-bound", "0,0"], "(0, 0)", "(2, 2)"),
])
def test_shape_bound_below_the_p_bound_exits_2(gm2_file, fs2_file, jj_file, argv,
                                               shape_bound, p_bound):
    """There is no (H3) shape-bound flag: each p is decided at shape |p|, so
    no shape bound could change a result.  Each command line passes one, at
    shape_bound below its p bound p_bound, and argparse rejects the flag
    itself before any bound is read."""
    argv = [a.format(gm2=gm2_file, fs2=fs2_file, jj=jj_file) for a in argv]
    code, out, err = _run_in_process(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.endswith(f"rankshift: error: unrecognized arguments: "
                        f"{argv[-2]} {argv[-1]}\n")
    assert f"shape bound {shape_bound}" not in err and f"p bound {p_bound}" not in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "{gm}", "--shape", "1", "--origin", "9"],
    ["extend", "{gm}", "--shape", "1", "--cells", "0,1", "--direction", "1",
     "--letter", "7"],
])
def test_unknown_letter_exits_2(gm_file, argv, capsys):
    assert main([a.format(gm=gm_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown letter")


def test_load_rejects_duplicate_decoration_names():
    data = {"rank": 1, "alphabet": ["0", "1"],
            "matrices": [[[1, 1], [1, 0]]],
            "decorations": {"names": ["d", "d"], "delta": ["0", "1"]}}
    with pytest.raises(SystemFileError) as err:
        parse_system(data)
    assert "decorations.names" in str(err.value)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.floats(allow_nan=False) | st.sampled_from(["", "0", "1", "a"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["names", "delta", "x"]), inner, max_size=3),
    max_leaves=8)


@st.composite
def _system_json(draw):
    """A well-formed system file with up to two fields swapped for any JSON."""
    letters = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                            unique=True))
    n = len(letters)
    rank = draw(st.integers(1, 2))
    bit = st.integers(0, 1)
    matrices = draw(st.lists(st.lists(st.lists(bit, min_size=n, max_size=n),
                                      min_size=n, max_size=n),
                             min_size=rank, max_size=rank))
    k = draw(st.integers(1, 3))
    decorations = {
        "names": draw(st.lists(st.sampled_from(["x", "y"]), min_size=k, max_size=k)),
        "delta": draw(st.lists(st.sampled_from(letters), min_size=k, max_size=k))}
    data = {"rank": rank, "alphabet": letters, "matrices": matrices,
            "decorations": decorations}
    fields = [(decorations, "names"), (decorations, "delta"), (matrices[0][0], 0),
              (matrices[0], 0)] + [(data, key) for key in sorted(data)]
    for i in sorted(draw(st.sets(st.integers(0, len(fields) - 1), max_size=2))):
        parent, key = fields[i]
        parent[key] = draw(_json)
    return data


@given(st.one_of(_json, _system_json()))
@settings(max_examples=300, deadline=None)
def test_parse_system_raises_only_system_file_error(data):
    try:
        ts, dmap = parse_system(data)
    except SystemFileError:
        return
    assert len(dmap.delta) == len(dmap.names) and ts.rank == data["rank"]


def test_console_main_survives_closed_pipe():
    """A reader that stops early (``| head -1``) gets exit 0 and no traceback."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from rankshift.cli import console_main; console_main()",
         "enumerate", os.path.join(SAMPLES, "gm2.json"), "--shape", "8,8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"shape=8,8 cells=")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


def test_python_m_rankshift_runs_cli_without_warning():
    """``python -m rankshift`` is the CLI, with no runpy warning under -W error."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, head in [(["count", os.path.join(SAMPLES, "gm.json"), "--shape", "3"],
                        "total:8\n"),
                       (["verify", os.path.join(SAMPLES, "fs2.json")], "H0: pass\n")]:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rankshift", *argv],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, argv
        assert proc.stdout.decode() == _run_in_process(argv)[1]
        assert proc.stdout.decode().startswith(head)
        assert proc.stderr == b""


def _run_in_process(argv):
    """(exit code, stdout, stderr) of one main(argv) call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_many_commands(tmp_path, monkeypatch):
    """main reuses one parser per process: every command gives the same exit
    code, stdout and stderr from the shared parser, twice over, as from a
    parser built for it alone, and --help matches a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    gm, gm2, fs2 = (os.path.join(SAMPLES, f) for f in ("gm.json", "gm2.json", "fs2.json"))
    out = str(tmp_path / "out.json")
    commands = [
        ["verify", fs2],
        ["verify", gm2],
        ["count", gm2, "--shape", "1,1", "--per-letter"],
        ["enumerate", gm, "--shape", "2", "--origin", "1"],
        ["extend", gm, "--shape", "1", "--cells", "0,1", "--direction", "1",
         "--letter", "0"],
        ["product", gm, "--shape1", "1", "--cells1", "1,0", "--shape2", "1",
         "--cells2", "0,1"],
        ["witness", "nonperiodic", fs2, "--p-bound", "1,1", "--origin", "00"],
        ["witness", "connect", gm, "--from", "1", "--to", "1", "--min-shape", "2"],
        ["witness", "distinct-pair", fs2],
        ["witness", "set-s", fs2, "--p-bound", "1,1"],
        ["witness", "q-support", fs2, "--p-bound", "1,1"],
        ["bratteli", gm, "--upto", "2", "--format", "dot"],
        ["tensor", gm, gm, "-o", out],
        ["redecorate", gm, "--map", "0=1;1=0", "-o", out],
        ["count", gm],
        ["count", os.path.join(SAMPLES, "missing.json"), "--shape", "1"],
        ["--help"],
    ]
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(_run_in_process(argv))
    first, second = ([_run_in_process(argv) for argv in commands] for _ in range(2))
    assert fresh == first == second
    assert [code for code, _, _ in first] == [0, 1] + [0] * 12 + [2, 2, 0]
    assert "required: --shape" in first[-3][2]
    assert "No such file" in first[-2][2]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rankshift", "--help"],
                          capture_output=True, env=env, timeout=60)
    assert first[-1] == (proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def _shape_text(top=3):
    """Small shapes of rank 1-2, then of any rank or negative, then garbled."""
    return st.one_of(
        st.lists(st.integers(0, top), min_size=1, max_size=2),
        st.lists(st.integers(-1, top), max_size=3),
    ).map(lambda cs: ",".join(map(str, cs))) | st.sampled_from(["x", "1,,1", "1.5", "1;1"])


_SAMPLE = st.sampled_from(["gm.json", "gm2.json", "fs2.json", "full2.json",
                           "missing.json"]).map(lambda f: os.path.join(SAMPLES, f))
_LETTER = st.sampled_from(["0", "1", "00", "01", "10", "11", "", "z"])
_CELLS = st.lists(_LETTER, max_size=4).map(",".join)
_INT = st.integers(-1, 3).map(str) | st.just("x")


def _flag(name, value):
    """A required flag with a drawn value."""
    return value.map(lambda v: [name, v])


def _option(name, value):
    """An optional flag: absent, or present with a drawn value."""
    return st.none() | _flag(name, value)


def _switch(name):
    return st.sampled_from([None, [name]])


def _argv(head, *parts):
    return st.tuples(*parts).map(
        lambda ps: head + [a for p in ps if p is not None
                           for a in ([p] if isinstance(p, str) else p)])


_ARGV = st.one_of(
    _argv(["verify"], _SAMPLE, _option("--h1-oracle-bound", _shape_text()),
          _option("--h3-p-bound", _shape_text()),
          _option("--h3-star-cap", _INT), _switch("--json")),
    _argv(["count"], _SAMPLE, _flag("--shape", _shape_text()),
          _switch("--per-letter"), _switch("--json")),
    _argv(["enumerate"], _SAMPLE, _flag("--shape", _shape_text()),
          _option("--origin", _LETTER), _option("--terminus", _LETTER),
          _option("--limit", _INT), _switch("--decorated")),
    _argv(["extend"], _SAMPLE, _flag("--shape", _shape_text()), _flag("--cells", _CELLS),
          _flag("--direction", _INT), _flag("--letter", _LETTER)),
    _argv(["product"], _SAMPLE, _flag("--shape1", _shape_text()),
          _flag("--cells1", _CELLS), _flag("--shape2", _shape_text()),
          _flag("--cells2", _CELLS)),
    _argv(["witness", "nonperiodic"], _SAMPLE, _flag("--p-bound", _shape_text()),
          _option("--origin", _LETTER)),
    _argv(["witness", "connect"], _SAMPLE, _flag("--from", _LETTER),
          _flag("--to", _LETTER), _flag("--min-shape", _shape_text())),
    _argv(["witness", "distinct-pair"], _SAMPLE),
    # set-s and q-support grow fast in the p bound, so theirs stays at 2
    _argv(["witness", "set-s"], _SAMPLE, _flag("--p-bound", _shape_text(2))),
    _argv(["witness", "q-support"], _SAMPLE, _flag("--p-bound", _shape_text(2)),
          _option("--total", _shape_text())),
    _argv(["bratteli"], _SAMPLE, _flag("--upto", _shape_text()),
          _option("--format", st.sampled_from(["text", "dot", "json", "xml"])),
          _switch("--chain")),
    _argv(["tensor"], _SAMPLE, _SAMPLE, _flag("-o", st.just("{out}"))),
    _argv(["redecorate"], _SAMPLE,
          _flag("--map", st.lists(st.tuples(_LETTER, _shape_text()), max_size=3)
                .map(lambda items: ";".join(f"{d}={s}" for d, s in items))),
          _option("-o", st.just("{out}"))),
)


@given(_ARGV)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_argv_fuzz_exits_cleanly(argv):
    """Any small or garbled argv ends with exit 0, 1 or 2 and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{out}", os.path.join(tmp, "out.json")) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _readme_block(heading):
    """The first fenced code block in README's section ``## heading``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```")[1]


def test_readme_library_quick_start_runs():
    """The quick start runs, and dim_vector returns the tuple its comment states."""
    code = _readme_block("Library quick start").removeprefix("python\n")
    namespace = {}
    exec(code, namespace)
    line = next(line for line in code.splitlines() if line.startswith("dim_vector("))
    call, comment = line.split("#", 1)
    assert repr(eval(call, namespace)) == comment.split("—")[0].strip() == "(4, 2, 2, 1)"


def test_readme_tour_prints_its_stated_output():
    """A tour line followed by a ``# ->`` line prints exactly that line."""
    lines = _readme_block("CLI tour").splitlines()
    pairs = [(command, stated.split("# ->", 1)[1].strip())
             for command, stated in zip(lines, lines[1:])
             if stated.lstrip().startswith("# ->")]
    assert "count" in [command.split()[1] for command, _ in pairs]
    for command, stated in pairs:
        argv = [os.path.join(ROOT, a) if a.startswith("samples/") else a
                for a in command.split("#")[0].split()[1:]]
        assert _run_in_process(argv) == (0, stated + "\n", ""), command
