import hashlib
import json
from pathlib import Path

import pytest

from vstring import cli
from vstring.cli import main
from vstring.core import ALL_MOVES, MoveKind, find_sites, parse
from vstring.enumeration import canonical_population
from vstring.invariants import invariant_bundle
from vstring.ops import cable, gen_alpha_n, gen_gamma_pq
from vstring.tabulate import record_for, record_to_json, tabulation_records

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "compute", "ABCACB|aaa")
        assert code == 0
        assert "u: t^2 - 2t" in out
        assert "rho: 3" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "compute", "ABCACB|aaa", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == json.loads(
            json.dumps(invariant_bundle(parse("ABCACB|aaa")), sort_keys=True)
        )
        assert data["u_polynomial"] == [[1, -2], [2, 1]]

    def test_json_fingerprint(self, capsys):
        words = [x for w in canonical_population(3) for x in (w, cable(w, 2))]
        codes = [main(["compute", x.text(), "--json"]) for x in words]
        data = capsys.readouterr().out.encode()
        assert codes == [0] * len(codes)
        assert data.count(b"\n") == 56
        assert hashlib.sha256(data).hexdigest() == (
            "b326b6e78a3150e89fe810d42b68a1109380e7f24a3df06f9357cd7ad8832bcd"
        )

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "compute", "ABA|aa")
        assert code == 1
        assert "error" in err


class TestWordCommands:
    def test_cover(self, capsys):
        code, out, _ = run(capsys, "cover", "ABCACB|aaa", "-r", "2")
        assert (code, out.strip()) == (0, "AA|a")

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "ABACDBDC|abbb", "ABACBC|abb")
        assert (code, out.strip()) == (0, "ABACDBDCEFEGFG|abbbabb")

    def test_cable(self, capsys):
        code, out, _ = run(capsys, "cable", "ABCACB|aaa", "-n", "2")
        assert code == 0
        assert parse(out.strip()).rank == 13

    def test_rdot(self, capsys):
        code, out, _ = run(capsys, "rdot", "ABACBC|aab", "-r", "2")
        assert code == 0
        assert out.strip() == "ABCDBAEFDCFE|aaaabb"

    def test_gen(self, capsys):
        code, out, _ = run(capsys, "gen", "gamma", "2", "3")
        assert code == 0
        assert parse(out.strip()).rank == 5
        code, out, _ = run(capsys, "gen", "alphan", "5")
        assert code == 0
        assert parse(out.strip()).rank == 5

    def test_preimage(self, capsys):
        code, out, _ = run(capsys, "preimage", "ABAB|aa", "-r", "2")
        assert code == 0
        word = parse(out.strip())
        assert word.rank == 4

    def test_gen_bad_params_exit_one(self, capsys):
        code, _, err = run(capsys, "gen", "alphan", "1")
        assert code == 1
        assert "error" in err

    def test_stdout_fingerprint(self, capsys, monkeypatch, tmp_path):
        # Default stdout of every word command, human `compute` and `graph`,
        # followed by the DOT file `graph` writes.
        monkeypatch.chdir(tmp_path)
        table = [
            ("cover", "ABCACB|aaa", "-r", "2"),
            ("cover", "ABCADBECDE|aaaaa", "-r", "0"),
            ("compose", "ABACDBDC|abbb", "ABACBC|abb"),
            ("cable", "ABCACB|aaa", "-n", "2"),
            ("cable", "XYXZYZ|abb", "-n", "3"),
            ("rdot", "ABACBC|aab", "-r", "2"),
            ("rdot", "ABAB|ab", "-r", "3"),
            ("preimage", "ABAB|aa", "-r", "2"),
            ("preimage", "ABCACB|aaa", "-r", "0"),
            ("gen", "gamma", "2", "3"),
            ("gen", "alphan", "5"),
            ("compute", "ABCACB|aaa"),
            ("compute", "0"),
            ("compute", "ABCADBECDE|aaaaa"),
            ("graph", "--max-rank", "3", "-r", "2", "--dot", "g.dot"),
        ]
        codes = [main(list(argv)) for argv in table]
        data = capsys.readouterr().out.encode() + (tmp_path / "g.dot").read_bytes()
        assert codes == [0] * len(table)
        assert data.count(b"\n") == 85
        assert hashlib.sha256(data).hexdigest() == (
            "ce1232056c1dbc4625629aa1a0d838888310f681ecdd64f1c251bf2b3616c6b9"
        )


class TestSearchCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "ABCABC|aba")
        assert code == 0
        assert out.splitlines()[0] == "0"
        assert "H1-" in out or "H2a-" in out

    def test_reduce_budget_flag(self, capsys):
        code, out, _ = run(capsys, "reduce", "ABAB|aa", "--budget", "1,1000,16")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_equiv_homotopic(self, capsys):
        code, out, _ = run(capsys, "equiv", "ABCBDCAD|aabb", "BACDBCDA|aabb")
        assert code == 0
        assert out.splitlines()[0] == "homotopic"

    def test_equiv_distinct(self, capsys):
        code, out, _ = run(capsys, "equiv", "0", "ABABCDCD|aaaa")
        assert code == 0
        assert out.splitlines()[0] == "distinct"
        assert "rho" in out

    def test_equiv_unknown_exit_zero(self, capsys):
        # A trivial word of the weight-zero family: every invariant agrees
        # with the empty word, and the tiny budget cannot connect them.
        code, out, _ = run(capsys, "equiv", "ABCADCEDFEBF|abaaaa", "0", "--budget", "0,2,1")
        assert code == 0
        assert out.splitlines()[0] == "unknown"

    @pytest.mark.parametrize(
        "seed,lines,digest",
        [
            (11, 30, "782eca3c5fe9c16830a4ce7d6f948f4be108bd57bd36c730b23edb4da36e76f0"),
            (12, 32, "c7adb9113794746a7367965b34ab180f01a2f5fd73975a3d90955ae76b385ecc"),
        ],
        ids=["seed-11", "seed-12"],
    )
    def test_benchmark_queries_fingerprint(
        self, capsys, monkeypatch, seed, lines, digest
    ):
        # The nine queries of the search-trivial benchmark workload.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import search_queries

        codes = [main(args) for _, args, _ in search_queries(seed)]
        data = capsys.readouterr().out.encode()
        assert codes == [0] * 9
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "u-cable", "--max-rank", "2", "--sample", "10")
        assert code == 0
        assert out.splitlines() == ["u-cable: 32/32 instances pass [ok]"]

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])

    def test_failing_suite_exit_two(self, capsys, monkeypatch):
        import vstring.suites as suites

        def broken(max_rank=3, seed=7, sample=200):
            report = suites.SuiteReport("broken")
            report.check(False, "synthetic failure")
            return report

        monkeypatch.setitem(suites.SUITES, "broken", broken)
        code, out, _ = run(capsys, "verify", "broken")
        assert code == 2
        assert "FAIL synthetic failure" in out

    def test_failure_labels_name_word_and_site(self, monkeypatch):
        import vstring.suites as suites

        monkeypatch.setattr(suites, "bm_isomorphic", lambda p, q: False)
        report = suites.suite_move_invariance(max_rank=1, seed=7, sample=0)
        word = suites.population(1, 7, 0)[0]
        site = next(s for k in (MoveKind.SHIFT, *ALL_MOVES) for s in find_sites(word, k))
        assert report.passed == 0 and len(report.failures) == 20
        assert report.failures[0] == f"{word.text()} under {site}"

    def test_population_holds_each_word_once(self):
        # The sample draws ranks 4-5, so at rank 4 only its rank-5 words are new.
        import vstring.suites as suites
        from vstring.enumeration import sample_nanowords

        words = suites.population(4, 7, 200)
        sampled = [w for w in sample_nanowords((4, 5), 200, 7) if w.rank == 5]
        assert len(set(words)) == len(words) == 355
        assert list(words) == canonical_population(4) + sampled

    def test_cable_failure_labels_name_word_n_and_r(self, monkeypatch):
        import vstring.suites as suites

        monkeypatch.setattr(suites, "isomorphic", lambda a, b: False)
        report = suites.suite_cover_cable_commute(max_rank=1, seed=7, sample=0)
        word = suites.population(1, 7, 0)[0]
        assert report.failures[0] == f"{word.text()} n=2 r=2"
        assert report.failures[4] == f"{word.text()} n=3 r=0"


class TestTabulate:
    def test_deterministic_and_reproducible(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert run(capsys, "tabulate", "--max-rank", "2", "--out", str(out1))[0] == 0
        assert run(capsys, "tabulate", "--max-rank", "2", "--out", str(out2))[0] == 0
        assert out1.read_text() == out2.read_text()
        lines = out1.read_text().splitlines()
        canonicals = [json.loads(line)["canonical"] for line in lines]
        assert canonicals == sorted(canonicals)

    @pytest.mark.parametrize(
        "rank,lines,digest",
        [
            (4, 246, "960db869fee400c7840bfef4c210a627db3bb8451222d44b777959eac0fbb00b"),
            (5, 3274, "fc384d59c9c3d12d35a19098b21b5845b8b8908885cf7c524c1b903de420dca7"),
        ],
        ids=["r4", "r5"],
    )
    def test_fingerprint(self, tmp_path, capsys, rank, lines, digest):
        out = tmp_path / "t.jsonl"
        assert run(capsys, "tabulate", "--max-rank", str(rank), "--out", str(out))[0] == 0
        data = out.read_bytes()
        assert data.count(b"\n") == lines
        assert hashlib.sha256(data).hexdigest() == digest

    def test_reingest_bit_identical(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        run(capsys, "tabulate", "--max-rank", "4", "--out", str(out))
        for line in out.read_text().splitlines():
            word = parse(json.loads(line)["canonical"])
            assert record_to_json(record_for(word)) == line

    def test_oracle_merges_trivial_words(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        run(capsys, "tabulate", "--max-rank", "2", "--out", str(out), "--oracle")
        plain = list(tabulation_records(2))
        merged = out.read_text().splitlines()
        assert len(merged) < len(plain)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "df65cfacea536fafddbabad24cdbcf16b846e77a94cddca2f837b96db9faaa1c"
        )
        assert len(merged) == 1


class TestGraph:
    def test_dot_file(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", "--max-rank", "2", "-r", "2", "--dot", str(dot))
        assert code == 0
        assert "trees with a root loop: True" in out
        text = dot.read_text()
        assert text.startswith("digraph covering {")
        assert 'label="r=2"' in text


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["cover", "AA|a"])


class TestParser:
    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        # Each main call reuses one parser, also after a usage error, and
        # gives the same output as a fresh one; build_parser stays fresh.
        build = cli.build_parser
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        outputs = [run(capsys, "compute", "ABCACB|aaa") for _ in range(2)]
        with pytest.raises(SystemExit):
            main(["cover", "AA|a"])
        outputs.append(run(capsys, "cover", "ABCACB|aaa", "-r", "2"))
        cli._parser.cache_clear()
        assert len(built) == 1
        assert outputs[0] == outputs[1] and outputs[2][0] == 0
        assert build() is not build()


class TestSizeGuards:
    @pytest.mark.parametrize(
        "argv,builder",
        [
            (("cable", "ABCACB|aaa", "-n", "58"), "cable"),  # rank 3 * 58^2 + 57
            (("rdot", "ABCACB|aaa", "-r", "3334"), "r_dot"),
            (("gen", "gamma", "5000", "5001"), "gen_gamma_pq"),
            (("gen", "alphan", "10001"), "gen_alpha_n"),
            (("tabulate", "--max-rank", "7", "--out", "t.jsonl"), "tabulation_records"),
            (
                ("graph", "--max-rank", "7", "-r", "2", "--dot", "g.dot"),
                "canonical_population",
            ),
            (("verify", "structural", "--max-rank", "7"), "run_suite"),
            (("verify", "structural", "--max-rank", "6"), "run_suite"),
            (("verify", "structural", "--sample", "1001"), "run_suite"),
            (("verify", "all", "--sample", "100000"), "run_suite"),
            # rank 200 + sum |n(X)| 20,000 = 20,200
            (("preimage", gen_gamma_pq(100, 100).text(), "-r", "2"), "uncover_preimage"),
            (("verify", "structural", "--max-rank", "5"), "run_suite"),
            (("tabulate", "--max-rank", "4", "--out", "t.jsonl", "--oracle"), "tabulation_records"),
            (("compute", gen_alpha_n(1001).text()), "invariant_bundle"),
            (("equiv", gen_alpha_n(1001).text(), "0"), "equivalent_bounded"),
            (("reduce", gen_alpha_n(33).text()), "reduce_bounded"),
            (("equiv", gen_alpha_n(33).text(), "0"), "equivalent_bounded"),
        ],
    )
    def test_rejected_before_building(
        self, capsys, monkeypatch, tmp_path, argv, builder
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{builder} called despite the size guard")

        monkeypatch.setattr(cli, builder, refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "exceeds the limit" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv,builder",
        [
            (("tabulate", "--max-rank", "5", "--out"), "tabulation_records"),
            (("graph", "--max-rank", "5", "-r", "2", "--dot"), "covering_graph"),
        ],
    )
    def test_output_opened_before_building(
        self, capsys, monkeypatch, tmp_path, argv, builder
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{builder} called before the output was opened")

        monkeypatch.setattr(cli, builder, refuse)
        code, out, err = run(capsys, *argv, str(tmp_path / "missing" / "out"))
        assert code == 1
        assert "No such file or directory" in err
        assert out == ""

    def test_limit_itself_accepted(self, capsys):
        code, out, _ = run(capsys, "rdot", "AA|a", "-r", str(cli.MAX_WORD_RANK))
        assert code == 0
        assert parse(out.strip()).rank == cli.MAX_WORD_RANK
        code, _, err = run(capsys, "rdot", "AA|a", "-r", str(cli.MAX_WORD_RANK + 1))
        assert code == 1
        assert "r-dot rank 10001 exceeds the limit 10000" in err
        # rank 3,334 + sum |n(X)| 6,666 = 10,000
        code, out, _ = run(capsys, "preimage", gen_gamma_pq(1, 3333).text(), "-r", "2")
        assert code == 0
        assert parse(out.strip()).rank == cli.MAX_WORD_RANK
        word = gen_alpha_n(cli.MAX_SEARCH_RANK).text()
        assert run(capsys, "reduce", word, "--budget", "0,1,1")[0] == 0

    def test_budget_state_cap_checked_before_searching(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("searched past the state cap")

        monkeypatch.setattr(cli, "reduce_bounded", refuse)
        code, out, err = run(capsys, "reduce", "AA|a", "--budget", "2,1000001,64")
        assert code == 1
        assert "--budget max_states 1000001 exceeds the limit 1000000" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("graph", "--max-rank", "2", "-r", "-1", "--dot", "out"),
                "covering index must be >= 0, got -1",
            ),
            (("reduce", "AA|a", "--budget", "1,2"), "expected 3 comma-separated integers"),
            (("preimage", "ABAB|aa", "-r", "-3"), "covering index must be >= 0, got -3"),
            (("cable", "ABAB|aa", "-n", "-200"), "cable width must be >= 1, got -200"),
            (
                ("reduce", "AA|a", "--budget", "1,2,x"),
                "expected 3 comma-separated integers, got '1,2,x'",
            ),
            (("reduce", "AA|a", "--budget", ""), "expected 3 comma-separated integers, got ''"),
        ],
        ids=[
            "graph-negative-r",
            "reduce-bad-budget",
            "preimage-negative-r",
            "cable-negative-width",
            "reduce-budget-not-integer",
            "reduce-empty-budget",
        ],
    )
    def test_bad_arguments_keep_existing_output(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").write_text("keep")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert message in err
        assert out == "" and (tmp_path / "out").read_text() == "keep"

    @pytest.mark.parametrize(
        "argv",
        [
            ("tabulate", "--max-rank", "-1", "--out", "t.jsonl"),
            ("graph", "--max-rank", "-2", "-r", "2", "--dot", "g.dot"),
            ("verify", "structural", "--max-rank", "-1"),
            ("verify", "structural", "--sample", "-1"),
        ],
    )
    def test_negative_rank_rejected(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "is negative" in err
        assert out == "" and not any(tmp_path.iterdir())


def test_output_ignores_environment(capsys, monkeypatch, tmp_path):
    # Read as a search budget, this value would make the equivalence unknown.
    plain, with_env = tmp_path / "plain.jsonl", tmp_path / "env.jsonl"
    run(capsys, "tabulate", "--max-rank", "2", "--oracle", "--out", str(plain))
    monkeypatch.setenv("VSTRING_BUDGET", "0,2,1")
    code, out, _ = run(capsys, "equiv", "ABCADCEDFEBF|abaaaa", "0")
    assert code == 0
    assert out.splitlines()[0] == "homotopic"
    run(capsys, "tabulate", "--max-rank", "2", "--oracle", "--out", str(with_env))
    assert with_env.read_bytes() == plain.read_bytes()
