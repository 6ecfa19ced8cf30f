import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from reference import build_system, conjugation_orbit_groups, is_isomorphic

from solvquot import cli, counting, subgrowth
from solvquot.cli import main
from solvquot.groups import CapExceeded, builtin_group, chief_series
from solvquot.oracle import brute_hom, brute_hom_images
from solvquot.presentations import builtin_from_string, builtin_presentation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_epi_command(capsys):
    code, out = run_cli(capsys, "epi", "--source", "builtin:braid(4)", "--target", "S(4)")
    assert code == 0
    doc = json.loads(out)
    assert doc["epi"] == 72 and doc["delta"] == 3 and doc["aut"] == 24
    assert doc["hom"] is None
    assert [lvl["q"] for lvl in doc["levels"]] == [2, 3, 2]
    assert doc["config"]["target"] == "S(4)"


def test_delta_command(capsys):
    code, out = run_cli(capsys, "delta", "--source", "builtin:bs(2,6)", "--target", "D(8)")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == 3 and doc["hom"] is None
    code, out = run_cli(capsys, "hom", "--source", "builtin:bs(2,6)", "--target", "D(8)")
    assert code == 0
    doc = json.loads(out)
    assert doc["hom"] == brute_hom(builtin_presentation("bs", 2, 6), builtin_group("D(8)").group).count
    assert (doc["epi"], doc["aut"], doc["delta"], doc["levels"]) == (None, None, None, [])


def test_growth_command(capsys):
    code, out = run_cli(capsys, "growth", "--source", "builtin:braid(3)", "--kmax", "5")
    assert code == 0
    assert json.loads(out)["a"] == [1, 1, 4, 9, 6]
    code, out = run_cli(capsys, "growth", "--source", "builtin:free(2)", "--kmax", "3",
                        "--normal", "--tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["k", "h_k", "t_k", "a_k", "a_k_normal"]
    assert lines[2].split("\t") == ["2", "4", "3", "3", "3"]
    code, out = run_cli(capsys, "growth", "--source", "builtin:free(2)", "--kmax", "3",
                        "--normal")
    assert code == 0 and json.loads(out)["a_normal"] == [1, 3, 4]


def test_growth_cap_fires_before_any_search(capsys, monkeypatch):
    # --kmax past --cap-k (default 8) exits 2 without building any S_k
    built = []
    monkeypatch.setattr(subgrowth, "_symmetric", lambda k: built.append(k))
    code = main(["growth", "--source", "builtin:surface(2)", "--kmax", "9"])
    assert code == 2 and built == []
    assert capsys.readouterr().err.startswith("aborted: k = 9 exceeds")


def test_cap_k_has_a_ceiling(capsys, monkeypatch):
    # whatever --cap-k says, k past 10 exits 2 before any S_k is built
    # (S_11's permutations alone take 439 MB); k = 10 itself is allowed,
    # and a free source reaches it without building S_k
    def refuse(k):
        raise AssertionError("S_%d built" % k)

    monkeypatch.setattr(subgrowth, "_symmetric", refuse)
    for source in ("builtin:surface(2)", "builtin:free(2)"):
        code = main(["growth", "--source", source, "--kmax", "12", "--cap-k", "12"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted: k = 12 exceeds the symmetric-group cap 10")
    with pytest.raises(CapExceeded):
        subgrowth.hom_count_symmetric(builtin_presentation("braid3_split"), 11, cap=12)
    code, out = run_cli(capsys, "growth", "--source", "builtin:free(2)", "--kmax", "10",
                        "--cap-k", "12", "--tsv")
    assert code == 0
    assert out.splitlines()[-1].split("\t")[:2] == ["10", str(math.factorial(10) ** 2)]


def test_moebius_command(capsys):
    code, out = run_cli(capsys, "moebius", "--target", "D(6)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["order", "index", "generators", "mu"]
    assert len(lines) == 7  # header + 6 subgroups
    mus = [int(l.split("\t")[-1]) for l in lines[1:]]
    assert mus == [3, -1, -1, -1, -1, 1]


def test_cocycle_command(capsys):
    code, out = run_cli(capsys, "cocycle", "--source", "builtin:klein",
                        "--target", "S(4)", "--images", "2,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[0] == "row"
    assert len(lines) == 3  # one relator, two rows over Z_2^2
    bad_code = main(["cocycle", "--source", "builtin:klein", "--target", "S(4)",
                     "--images", "0,0,0"])
    capsys.readouterr()
    assert bad_code == 1


def test_cocycle_command_matches_the_reference(capsys):
    # the verb prints the batched system of one map; at every level of three
    # targets it equals the per-map reference build_system row for row, on
    # sampled homomorphisms, and sampled tuples that break a relator exit 1
    # with the reference's message
    rng = random.Random(43)
    shown = rejected = 0
    for label in ("klein", "free(2)", "surface(2)"):
        P = builtin_from_string(label)
        for spec in ("S(4)", "D(8)", "Q(8)"):
            for level, lay in enumerate(builtin_group(spec).layers):
                homs = brute_hom_images(P, lay.base)
                broken = sorted(set(itertools.product(range(len(lay.base)), repeat=P.n))
                                - set(homs))
                for images in (rng.sample(homs, min(3, len(homs)))
                               + rng.sample(broken, min(4, len(broken)))):
                    code = main(["cocycle", "--source", "builtin:" + label, "--target", spec,
                                 "--level", str(level), "--images", ",".join(map(str, images))])
                    out, err = capsys.readouterr()
                    try:
                        sysm = build_system(P, images, lay)
                    except ValueError as exc:
                        assert (code, out, err) == (1, "", "error: %s\n" % exc)
                        rejected += 1
                        continue
                    header = ["row"] + ["a%d_%d" % (i, c) for i in range(P.n)
                                        for c in range(lay.s)] + ["rhs"]
                    rows = [[r] + row + [x]
                            for r, (row, x) in enumerate(zip(sysm.matrix, sysm.chi_vec))]
                    assert code == 0 and err == "", (label, spec, level, images)
                    assert out == "".join("\t".join(map(str, row)) + "\n"
                                          for row in [header] + rows), (label, spec, level)
                    shown += 1
    assert shown >= 60 and rejected >= 8  # onto S(3) at level 2 of S(4)


def test_aut_command(capsys):
    code, out = run_cli(capsys, "aut", "--target", "Q(8)")
    assert code == 0 and json.loads(out)["aut"] == 24


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", "--sources", "builtin:bs(1,3)",
                        "--targets", "S(3)", "D(8)")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.split("\t")[-1] == "pass" for line in lines[1:])


def test_catalog_and_roundtrip(capsys, tmp_path):
    code, out = run_cli(capsys, "catalog")
    assert code == 0 and "D(8)" in out
    from solvquot.cli import read_table_file

    for spec in ("D(12)", "Q(16)"):
        code, out = run_cli(capsys, "catalog", "--dump", spec)
        assert code == 0
        path = tmp_path / "dump.tbl"
        path.write_text(out)
        tower = chief_series(read_table_file(str(path)))
        assert is_isomorphic(tower.group, builtin_group(spec).group)
    # the dump of Q(16) read back as a target has the |Aut| of the spec
    auts = [json.loads(run_cli(capsys, "aut", "--target", target)[1])["aut"]
            for target in (str(path), "Q(16)")]
    assert auts == [32, 32]


def test_exit_codes(capsys, tmp_path):
    assert main(["epi", "--source", "builtin:nosuch(1)", "--target", "S(4)"]) == 1
    capsys.readouterr()
    assert main(["epi", "--source", "builtin:braid(3)", "--target", "S(9)"]) == 1
    capsys.readouterr()
    assert main(["aut", "--target", "Z(2)^10"]) == 2
    capsys.readouterr()
    assert main(["epi", "--source", "nosuchfile.txt", "--target", "S(3)"]) == 1
    capsys.readouterr()
    # a builtin source family with too many or too few parameters
    for spec in ("surface(1,2)", "free()", "bs(2)", "parafree(1)", "braid(2,3)",
                 "nonorientable(1,1)", "klein(3)", "braid3_split(1)", "braid4_split(2,2)",
                 "hillman_link(5)"):
        assert main(["hom", "--source", "builtin:" + spec, "--target", "Z(2)"]) == 1, spec
        assert "wrong parameter count" in capsys.readouterr().err, spec
    assert main(["hom", "--source", "builtin:klein()", "--target", "Z(2)"]) == 0
    capsys.readouterr()
    # --kmax below 1, --nmax below 3, a negative cap or budget, and the
    # removed --threads, --time-budget and verbs, are usage errors
    for argv in (["growth", "--source", "builtin:braid(3)", "--kmax", "-2"],
                 ["table2", "--kmax", "0"],
                 ["table2", "--nmax", "2"],
                 ["hom", "--source", "builtin:braid(3)", "--target", "Z(2)", "--cap-frontier", "-5"],
                 ["epi", "--source", "builtin:braid(3)", "--target", "S(3)", "--cap-order", "-1"],
                 ["aut", "--target", "S(3)", "--cap-order", "-6"],
                 ["moebius", "--target", "S(3)", "--cap-lattice", "-1"],
                 ["growth", "--source", "builtin:braid(3)", "--cap-k", "-1"],
                 ["verify", "--budget", "-1"],
                 ["verify", "--cap-frontier", "-1"],
                 ["catalog", "--dump", "S(3)", "--cap-order", "-1"],
                 ["growth", "--source", "builtin:braid(3)", "--threads", "2"],
                 ["scan-braid-deltas"],
                 ["roundtrip", "--spec", "Q(16)", "--out", "x"],
                 ["table2", "--time-budget", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()
    # a directory, bytes that are not UTF-8, a table entry past the order,
    # rows past the declared order and order 0 are input errors
    (tmp_path / "bytes").write_bytes(b"\xff order 2\n")
    (tmp_path / "entry.tbl").write_text("order 3\n0 1 2\n1 2 0\n2 0 7\n")
    (tmp_path / "rows.tbl").write_text("order 2\n0 1\n1 0\n1 0\n")
    (tmp_path / "empty.tbl").write_text("order 0\n")
    for argv in (["aut", "--target", str(tmp_path)],
                 ["hom", "--source", str(tmp_path), "--target", "Z(2)"],
                 ["aut", "--target", str(tmp_path / "bytes")],
                 ["hom", "--source", str(tmp_path / "bytes"), "--target", "Z(2)"],
                 ["aut", "--target", str(tmp_path / "entry.tbl")],
                 ["aut", "--target", str(tmp_path / "rows.tbl")],
                 ["aut", "--target", str(tmp_path / "empty.tbl")]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # bad target specs, sources and cocycle options end in one error line
    hom = ["hom", "--target", "Z(2)", "--source"]
    cocycle = ["cocycle", "--source", "builtin:braid(3)", "--target", "Q(8)"]
    for argv, err in [
            (["aut", "--target", "D(4,2)"], "wrong parameter count for D(4, 2)"),
            (["aut", "--target", "Z(2)^0"], "empty group spec 'Z(2)^0'"),
            (hom + ["< x, x | x >"], "duplicate generator name 'x'"),
            (hom + ["< 1 | x >"], "expected a generator name, found '1' (at position 2)"),
            (hom + ["< x | x^y >"],
             "expected an integer or '(' after '^', found 'y' (at position 8)"),
            (hom + ["< x | ^ >"], "expected a generator, '(' or '[', found '^' (at position 6)"),
            (hom + ["builtin:free(0)"], "free(n) needs n >= 1"),
            (hom + ["builtin:surface(0)"], "surface(g) needs g >= 1"),
            (hom + ["builtin:nonorientable(0)"], "nonorientable(g) needs g >= 1"),
            (hom + ["builtin:braid(2)"], "braid(n) needs n >= 3"),
            (hom + ["builtin:free(x)"], "non-integer parameter in 'free(x)'"),
            (hom + ["builtin:free(2"], "cannot parse builtin presentation 'free(2'"),
            (cocycle + ["--level", "9", "--images", "0,0"],
             "level 9 out of range: Q(8) has levels 0..2"),
            (["cocycle", "--source", "builtin:braid(3)", "--target", "Z(1)", "--images", "0,0"],
             "Z(1) has no layers, so no level"),
            (cocycle + ["--images", "a,b"], "--images must be a comma list of integers")]:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % err), argv


def test_bad_table_targets(capsys, tmp_path):
    # a table of A(5), the even permutations of 5 points composed as maps,
    # is refused as not solvable by aut and hom and as past the order cap
    # under --cap-order 59; a file without its 'order N' line and one with
    # an entry that is not an integer are input errors; none of them ends
    # in a traceback
    even = [p for p in itertools.permutations(range(5))
            if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    index = {p: i for i, p in enumerate(even)}
    a5 = tmp_path / "a5.tbl"
    a5.write_text("order 60\n" + "".join(
        " ".join(str(index[tuple(p[x] for x in r)]) for r in even) + "\n" for p in even))
    (tmp_path / "no-order.tbl").write_text("0 1\n1 0\n")
    (tmp_path / "word.tbl").write_text("order 2\n0 1\n1 x\n")
    # a table whose element 0 is no identity, a loop of order 5 that is not
    # associative, and Z(66) with two entries of a row swapped, which the
    # associativity check finds on its sampled triples above order 64
    (tmp_path / "no-identity.tbl").write_text("order 2\n1 0\n0 1\n")
    (tmp_path / "loop.tbl").write_text("order 5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n"
                                       "3 2 4 0 1\n4 3 1 2 0\n")
    z66 = [[(a + b) % 66 for b in range(66)] for a in range(66)]
    z66[5][10], z66[5][11] = z66[5][11], z66[5][10]
    (tmp_path / "z66.tbl").write_text(
        "order 66\n" + "".join(" ".join(map(str, row)) + "\n" for row in z66))
    hom = ["hom", "--source", "builtin:free(2)", "--target"]
    for argv, code, err in [
            (["aut", "--target", str(a5)], 1, "error: group is not solvable\n"),
            (hom + [str(a5)], 1, "error: group is not solvable\n"),
            (["aut", "--target", str(a5), "--cap-order", "59"], 2,
             "aborted: group order 60 exceeds cap 59\n"),
            (hom + [str(a5), "--cap-order", "59"], 2, "aborted: group order 60 exceeds cap 59\n"),
            (["aut", "--target", str(tmp_path / "no-order.tbl")], 1,
             "error: table file must start with 'order N'\n"),
            (["aut", "--target", str(tmp_path / "word.tbl")], 1,
             "error: malformed table file %r\n" % str(tmp_path / "word.tbl")),
            (["aut", "--target", str(tmp_path / "no-identity.tbl")], 1,
             "error: element 0 is not an identity\n"),
            (hom + [str(tmp_path / "loop.tbl")], 1,
             "error: multiplication table is not associative\n"),
            (["aut", "--target", str(tmp_path / "z66.tbl")], 1,
             "error: multiplication table is not associative\n")]:
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err), argv
        assert "Traceback" not in captured.err


def test_isomorphism_search_is_capped_before_it_starts(capsys):
    # Z(2)^6 would need 63^6 candidate image tuples for |Aut|
    for argv in (["aut", "--target", "Z(2)^6"],
                 ["epi", "--source", "builtin:free(3)", "--target", "Z(2)^6"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "order 64 would try 62523502209 candidate image tuples" in err


def test_huge_exponent_is_capped_before_it_expands(capsys):
    # x^100000000 would expand to 10^8 letters, past the parser's cap of
    # 10^7, and exits 2 before a letter is built, as does an exponent of
    # 5000 digits and a huge power of the empty word; x^2000 is counted
    for rel in ("x^100000000 y^2", "x^%s y^2" % ("1" * 5000), "(x x^-1)^100000000 y^2"):
        start = time.perf_counter()
        assert main(["delta", "--source", "< x, y | %s >" % rel, "--target", "Z(2)"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "past the cap of 10000000 letters" in capsys.readouterr().err
    code, out = run_cli(capsys, "delta", "--source", "< x, y | x^2000 y^2 >", "--target", "Z(2)",
                        "--tsv")
    assert code == 0 and out.splitlines()[1].split("\t")[3:] == ["3", "1", "3"]


def test_letter_cap_is_charged_on_the_whole_presentation(capsys):
    # three powers of 4*10^6 letters each stay under the cap one by one but
    # pass it together, so the parser stops at the third before building it;
    # so does a commutator that would copy a large power twice
    for rel, pos in (("x^4000000 y^4000000 x^4000000 y^2", "power at position 31"),
                     ("[x^6000000, y]", "commutator at position 9")):
        start = time.perf_counter()
        assert main(["hom", "--source", "< x, y | %s >" % rel, "--target", "Z(2)"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert pos in err and "past the cap of 10000000 letters" in err
    code, out = run_cli(capsys, "hom", "--source", "< x, y | x^2000 y^2 >", "--target", "Z(2)",
                        "--tsv")
    assert code == 0 and out.splitlines()[1].split("\t")[2] == "4"
    for label in ("free(3)", "surface(3)", "nonorientable(4)", "klein", "bs(3,5)", "bs(2,6)",
                  "parafree(3,2)", "braid(5)", "braid3_split", "braid4_split", "hillman_link"):
        assert builtin_from_string(label).relators is not None


def test_unread_cap_options_are_rejected(capsys):
    # each cap is accepted only by the verbs that read it
    for argv in (["aut", "--target", "S(4)", "--cap-frontier", "0"],
                 ["cocycle", "--source", "builtin:klein", "--target", "S(4)",
                  "--images", "2,1", "--cap-frontier", "0"],
                 ["moebius", "--target", "D(6)", "--cap-frontier", "0"],
                 ["growth", "--source", "builtin:free(2)", "--kmax", "2",
                  "--cap-frontier", "0"],
                 ["growth", "--source", "builtin:free(2)", "--kmax", "2",
                  "--cap-order", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments: --cap-" in capsys.readouterr().err
    assert main(["epi", "--source", "builtin:braid(3)", "--target", "S(4)",
                 "--cap-frontier", "5"]) == 2
    assert "level 2 would reach 6 " in capsys.readouterr().err


def test_inline_and_file_sources(capsys, tmp_path):
    code, out = run_cli(capsys, "epi", "--source", "< x, y | y x y^-1 x >",
                        "--target", "S(3)")
    assert code == 0 and json.loads(out)["epi"] == 6
    path = tmp_path / "pres.txt"
    path.write_text("# the Klein bottle group\n< x, y | y x y^-1 x >\n")
    code, out = run_cli(capsys, "epi", "--source", str(path), "--target", "S(3)")
    assert code == 0 and json.loads(out)["epi"] == 6


def test_table2_command(capsys):
    code, out = run_cli(capsys, "table2", "--nmax", "4", "--kmax", "4")
    assert code == 0
    assert out == "group\ta_1\ta_2\ta_3\ta_4\nB3\t1\t1\t4\t9\nB4\t1\t1\t4\t17\n"
    # k = 9 is past the S_k cap of 8: its entry is '?' on any host
    code, out = run_cli(capsys, "table2", "--nmax", "3", "--kmax", "9")
    assert code == 0
    assert out == ("group\ta_1\ta_2\ta_3\ta_4\ta_5\ta_6\ta_7\ta_8\ta_9\n"
                   "B3\t1\t1\t4\t9\t6\t22\t43\t49\t?\n")


def test_table2_is_pinned_at_k8(capsys):
    # the braid table past k = 7, where the second generator of every B_n
    # runs over centraliser orbits; the same file is compared in CI with the
    # installed script's output
    pinned = (Path(__file__).parent / "data" / "table2-nmax6-kmax8.tsv").read_text()
    code, out = run_cli(capsys, "table2", "--nmax", "6", "--kmax", "8")
    assert code == 0 and out == pinned


@pytest.mark.parametrize("source, pinned", [
    ("hillman_link", "growth-hillman_link-kmax6-normal.tsv"),
    ("parafree(3,2)", "growth-parafree-3-2-kmax6-normal.tsv"),
    ("braid3_split", "growth-braid3_split-kmax6-normal.tsv"),
])
def test_growth_with_three_or_four_generators_is_pinned(capsys, source, pinned):
    # depth 1 is not the last one for these sources; the same files are
    # compared in CI with the installed script's output
    want = (Path(__file__).parent / "data" / pinned).read_text()
    code, out = run_cli(capsys, "growth", "--source", "builtin:" + source, "--kmax", "6",
                        "--normal", "--tsv")
    assert code == 0 and out == want


@pytest.mark.parametrize("argv, pinned", [
    (["catalog"], "catalog.tsv"),
    (["catalog", "--dump", "Z(2)*S(4)"], "dump-Z2xS4.tbl"),
    (["catalog", "--dump", "Q(16)"], "dump-Q16.tbl"),
    (["catalog", "--dump", "V(2,3,1)"], "dump-V-2-3-1.tbl"),
    (["moebius", "--target", "S(4)"], "moebius-S4.tsv"),
    (["moebius", "--target", "Z(2)*A(4)"], "moebius-Z2xA4.tsv"),
])
def test_tables_and_lattices_are_pinned(capsys, argv, pinned):
    # the catalog, three dumped tables and two Moebius tables, whose
    # subgroup generators come from the generating sequences of the
    # subgroups' tables; the same files are compared in CI with the
    # installed script's output
    want = (Path(__file__).parent / "data" / pinned).read_text()
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == want


GROWTH_SURFACE2_K8 = """\
{
  "command": "growth",
  "config": {
    "source": "builtin:surface(2)",
    "kmax": 8,
    "normal": false
  },
  "source": "builtin:surface(2)",
  "kmax": 8,
  "h": [
    1,
    16,
    486,
    34176,
    3858240,
    824354640,
    268020990720,
    135486004792320
  ],
  "t": [
    1,
    15,
    440,
    31650,
    3626064,
    792600480,
    260690336640,
    132905092496400
  ],
  "a": [
    1,
    15,
    220,
    5275,
    151086,
    6605004,
    362069912,
    26370058035
  ]
}
"""

GROWTH_SURFACE2_K8_NORMAL_TSV = (
    "k\th_k\tt_k\ta_k\ta_k_normal\n"
    "1\t1\t1\t1\t1\n"
    "2\t16\t15\t15\t15\n"
    "3\t486\t440\t220\t40\n"
    "4\t34176\t31650\t5275\t155\n"
    "5\t3858240\t3626064\t151086\t156\n"
    "6\t824354640\t792600480\t6605004\t660\n"
    "7\t268020990720\t260690336640\t362069912\t400\n"
    "8\t135486004792320\t132905092496400\t26370058035\t1635\n"
)


def test_growth_output_is_pinned(capsys):
    # the whole stdout of two growth reports, byte for byte; the a_k_normal
    # column sums Hall invariants
    code, out = run_cli(capsys, "growth", "--source", "builtin:surface(2)", "--kmax", "8")
    assert code == 0 and out == GROWTH_SURFACE2_K8
    code, out = run_cli(capsys, "growth", "--source", "builtin:surface(2)", "--kmax", "8",
                        "--normal", "--tsv")
    assert code == 0 and out == GROWTH_SURFACE2_K8_NORMAL_TSV


EPI_BRAID4_S4 = """\
{
  "command": "epi",
  "config": {
    "source": "builtin:braid(4)",
    "target": "S(4)",
    "cap_order": 512,
    "cap_frontier": 10000000
  },
  "source": "builtin:braid(4)",
  "target": "S(4)",
  "hom": null,
  "epi": 72,
  "aut": 24,
  "delta": 3,
  "levels": [
    {
      "q": 2,
      "s": 1,
      "zeta": 0,
      "kappa": 1,
      "alpha": 1,
      "split": 1,
      "epi_in": 1,
      "epi_out": 1
    },
    {
      "q": 3,
      "s": 1,
      "zeta": 1,
      "kappa": 1,
      "alpha": 1,
      "split": 1,
      "epi_in": 1,
      "epi_out": 6
    },
    {
      "q": 2,
      "s": 2,
      "zeta": 1,
      "kappa": 1,
      "alpha": 1,
      "split": 1,
      "epi_in": 6,
      "epi_out": 72
    }
  ],
  "provenance": {
    "epi": "chief-series lifting",
    "hom": null,
    "aut": "generator-image search"
  }
}
"""

DELTA_BS26_D8 = """\
{
  "command": "delta",
  "config": {
    "source": "builtin:bs(2,6)",
    "target": "D(8)",
    "cap_order": 512,
    "cap_frontier": 10000000
  },
  "source": "builtin:bs(2,6)",
  "target": "D(8)",
  "hom": null,
  "epi": 24,
  "aut": 8,
  "delta": 3,
  "levels": [
    {
      "q": 2,
      "s": 1,
      "zeta": 0,
      "kappa": 1,
      "alpha": 1,
      "split": 1,
      "epi_in": 1,
      "epi_out": 3
    },
    {
      "q": 2,
      "s": 1,
      "zeta": 0,
      "kappa": 1,
      "alpha": 2,
      "split": 1,
      "epi_in": 3,
      "epi_out": 6
    },
    {
      "q": 2,
      "s": 1,
      "zeta": 0,
      "kappa": 1,
      "alpha": 2,
      "split": 0,
      "epi_in": 6,
      "epi_out": 24
    }
  ],
  "provenance": {
    "epi": "chief-series lifting",
    "hom": null,
    "aut": "generator-image search"
  }
}
"""

EPI_BRAID4_S4_TSV = (
    "source\ttarget\thom\tepi\taut\tdelta\n"
    "builtin:braid(4)\tS(4)\t-\t72\t24\t3\n"
)

DELTA_BS26_D8_TSV = (
    "source\ttarget\thom\tepi\taut\tdelta\n"
    "builtin:bs(2,6)\tD(8)\t-\t24\t8\t3\n"
)


def test_count_output_is_pinned(capsys):
    # the whole stdout of epi and delta, JSON and TSV, byte for byte
    for argv, want in [
        (("epi", "--source", "builtin:braid(4)", "--target", "S(4)"), EPI_BRAID4_S4),
        (("delta", "--source", "builtin:bs(2,6)", "--target", "D(8)"), DELTA_BS26_D8),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == want
    for argv, want in [
        (("epi", "--source", "builtin:braid(4)", "--target", "S(4)"), EPI_BRAID4_S4_TSV),
        (("delta", "--source", "builtin:bs(2,6)", "--target", "D(8)"), DELTA_BS26_D8_TSV),
    ]:
        code, out = run_cli(capsys, *argv, "--tsv")
        assert code == 0 and out == want


def test_hom_runs_only_the_hom_lifting(capsys, monkeypatch):
    # |Aut(Z_2^5)| would need 28629151 candidate image tuples, over the
    # search's cap; hom needs neither it nor the Epi lifting
    def refuse(*args, **kwargs):
        raise AssertionError("hom ran more than the Hom lifting")

    monkeypatch.setattr(counting, "aut_order", refuse)
    monkeypatch.setattr(counting, "epi_count", refuse)
    argv = ("hom", "--source", "builtin:free(2)", "--target", "Z(2)^5")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert (doc["hom"], doc["epi"], doc["aut"], doc["delta"], doc["levels"]) == (
        1024, None, None, None, [])
    assert doc["provenance"] == {"epi": None, "hom": "layerwise cocycle counting",
                                 "aut": None}
    code, out = run_cli(capsys, *argv, "--tsv")
    assert code == 0
    assert out == "source\ttarget\thom\tepi\taut\tdelta\nbuiltin:free(2)\tZ(2)^5\t1024\t-\t-\t-\n"


def test_epi_and_delta_honour_cap_order(capsys):
    # epi and delta build their target under --cap-order, as aut does:
    # Z(521) is past the default cap of 512
    for verb in ("epi", "delta"):
        argv = (verb, "--source", "builtin:free(2)", "--target", "Z(521)")
        assert main(list(argv)) == 2
        assert capsys.readouterr().err.startswith("aborted: group order 521 exceeds cap 512")
        code, out = run_cli(capsys, *argv, "--cap-order", "1024")
        doc = json.loads(out)
        assert code == 0 and (doc["epi"], doc["aut"], doc["delta"]) == (521**2 - 1, 520, 522)


def test_huge_specs_end_at_once(capsys):
    # the order cap is charged before any table is built: every verb ends
    # within a second, with exit 2 past the cap and exit 1 on a bad spec
    for spec, code, err in [
        ("Z(2)^14300", 2, "aborted: group order at least 2048 exceeds cap 512\n"),
        ("Z(2)^100000000", 2, "aborted: group order at least 2048 exceeds cap 512\n"),
        ("Z(%s)" % ("9" * 5001), 1, "error: a number in group spec %r has too many digits\n"
         % ("Z(%s)" % ("9" * 5001))),
        ("D(1001)", 1, "error: D(n) needs even n >= 2\n"),
    ]:
        for argv in (("aut", "--target", spec),
                     ("epi", "--source", "builtin:free(2)", "--target", spec),
                     ("delta", "--source", "builtin:free(2)", "--target", spec),
                     ("catalog", "--dump", spec)):
            start = time.perf_counter()
            assert main(list(argv)) == code, argv
            assert time.perf_counter() - start < 1, argv
            assert capsys.readouterr().err == err, argv


def test_huge_builtin_sources_are_refused_before_they_are_built():
    # each family's generators and relator letters are charged to the letter
    # cap from its parameters alone, so these end within a second in a child
    # process under a 1 GB address-space limit, where building their names
    # or text would end in a MemoryError
    specs = ["free(%d)" % 10**8, "free(%d)" % 10**23, "free(99999999999999999999999)",
             "surface(%d)" % 10**7, "surface(%d)" % 10**8, "nonorientable(%d)" % 10**8,
             "braid(%d)" % 10**8, "braid(%d)" % 10**5, "bs(1,%d)" % 10**8,
             "parafree(%d,1)" % 10**8]
    child = (
        "import resource, sys, time\n"
        "from solvquot.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "for spec in sys.argv[1:]:\n"
        "    start = time.perf_counter()\n"
        "    code = main(['hom', '--source', 'builtin:' + spec, '--target', 'Z(2)'])\n"
        "    print(code, time.perf_counter() - start)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", child, *specs], capture_output=True,
                         text=True, timeout=120, env=env)
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    assert run.stderr.splitlines() == [
        "aborted: the builtin %s presentation would pass the cap of 10000000 letters"
        % spec.split("(")[0] for spec in specs]
    lines = run.stdout.splitlines()
    assert len(lines) == len(specs)
    for spec, line in zip(specs, lines):
        code, seconds = line.split()
        assert code == "2" and float(seconds) < 1, spec


@pytest.mark.slow
def test_epi_cap_order_past_the_default_on_a_dihedral_target(capsys, monkeypatch):
    code, out = run_cli(capsys, "aut", "--target", "D(520)", "--cap-order", "1024")
    assert code == 0 and json.loads(out)["aut"] == 24960
    towers = []
    real = cli.load_target
    monkeypatch.setattr(cli, "load_target", lambda *args: towers.append(real(*args)) or towers[-1])
    code, out = run_cli(capsys, "epi", "--source", "builtin:free(2)", "--target", "D(520)",
                        "--cap-order", "1024")
    doc = json.loads(out)
    assert code == 0 and (doc["epi"], doc["aut"], doc["delta"]) == (74880, 24960, 3)
    # epi and hom onto D(520) lift modulo conjugation: its 24960 series
    # automorphisms would keep 24960 * 520 image entries, past the entry
    # cap, which refuses the search (it has no order cap)
    code, out = run_cli(capsys, "hom", "--source", "builtin:free(2)", "--target", "D(520)",
                        "--cap-order", "1024")
    assert code == 0 and json.loads(out)["hom"] == 520**2
    for tower in towers:
        with pytest.raises(CapExceeded, match="would keep at least"):
            tower._series_automorphisms()
        inn = conjugation_orbit_groups(tower)
        levels = range(1, len(tower.layers))
        assert sorted(tower._orbit_groups) == list(levels)
        assert all(np.array_equal(np.unique(tower._orbit_groups[i].rows, axis=0), inn(i).rows)
                   for i in levels)
    assert len(towers) == 2
