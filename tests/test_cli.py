import os
import subprocess
import sys

import pytest

from bitextaug.cli import main
from bitextaug.corpus import load_parallel, read_sidecar

from conftest import make_corpus, mock_cmd, write_pair_files


@pytest.fixture
def train_files(tmp_path):
    corpus = make_corpus(60, seed=31, min_len=13, max_len=22)
    return write_pair_files(tmp_path, corpus, prefix="train")


@pytest.fixture
def test_files(tmp_path):
    corpus = make_corpus(30, seed=32, min_len=2, max_len=45, unique_lines=False)
    return write_pair_files(tmp_path, corpus, prefix="test")


class TestValidate:
    def test_clean_exits_zero(self, train_files, capsys):
        src, tgt = train_files
        code = main(["validate", "--source", str(src), "--target", str(tgt)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_separator_violation_names_line(self, tmp_path, capsys):
        # only a whitespace-delimited token is the separator: x<sep>y is an ordinary word
        src = tmp_path / "bad.src"
        src.write_text("clean line\nx<sep>y\nhas <sep> inside\n", encoding="utf-8")
        (tmp_path / "bad.tgt").write_text("a\nb\nc\n", encoding="utf-8")
        code = main(["validate", "--source", str(src), "--target", str(tmp_path / "bad.tgt")])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{src}:3: contains reserved separator token '<sep>'" in out
        assert "bad.src:2" not in out

    def test_mismatched_line_counts(self, tmp_path, capsys):
        (tmp_path / "a.src").write_text("x\ny\nz\n", encoding="utf-8")
        (tmp_path / "a.tgt").write_text("x\ny\n", encoding="utf-8")
        code = main(
            ["validate", "--source", str(tmp_path / "a.src"), "--target", str(tmp_path / "a.tgt")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "line-count mismatch 3 vs 2" in out

    def test_carriage_return_inside_a_line_names_it(self, tmp_path, capsys):
        # a lone CR does not end a line: each file holds 2 lines, not 3
        for name in ("cr.src", "cr.tgt"):
            (tmp_path / name).write_bytes(b"a\rb c\nd e\n")
        code = main(
            ["validate", "--source", str(tmp_path / "cr.src"), "--target", str(tmp_path / "cr.tgt")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "cr.src:1: carriage return" in out
        assert "cr.tgt:1: carriage return" in out
        assert "mismatch" not in out

    def test_crlf_files_are_clean(self, tmp_path, capsys):
        for name in ("crlf.src", "crlf.tgt"):
            (tmp_path / name).write_bytes(b"a b\r\nc d\r\n")
        code = main(
            ["validate", "--source", str(tmp_path / "crlf.src"), "--target", str(tmp_path / "crlf.tgt")]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_misspelled_length_side_is_a_violation(self, train_files, capsys):
        src, tgt = train_files
        code = main(
            ["validate", "--source", str(src), "--target", str(tgt), "--length-side", "soruce"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "length_side" in out and "soruce" in out

    def test_bad_translator_template(self, train_files, capsys):
        src, tgt = train_files
        code = main(
            [
                "validate",
                "--source", str(src), "--target", str(tgt),
                "--recipe", "vanilla+bt",
                "--backward-cmd", "translate-stuff --in {IN}",
            ]
        )
        assert code == 1
        assert "{OUT}" in capsys.readouterr().out


class TestDataCommands:
    def test_sample(self, train_files, tmp_path, capsys):
        src, tgt = train_files
        code = main(
            ["sample", "--source", str(src), "--target", str(tgt),
             "-n", "20", "--seed", "5", "--out-prefix", str(tmp_path / "sampled")]
        )
        assert code == 0
        out = load_parallel(tmp_path / "sampled.src", tmp_path / "sampled.tgt")
        assert len(out) == 20
        sidecar = read_sidecar(tmp_path / "sampled.meta")
        assert sidecar["sample_seed"] == "5"
        assert sidecar["prng"] == "numpy-pcg64"

    def test_split(self, train_files, tmp_path):
        src, tgt = train_files
        code = main(
            ["split", "--source", str(src), "--target", str(tgt),
             "--train-n", "40", "--test-n", "20", "--seed", "3",
             "--out-dir", str(tmp_path / "splitdir")]
        )
        assert code == 0
        train = load_parallel(tmp_path / "splitdir" / "train.src", tmp_path / "splitdir" / "train.tgt")
        heldout = load_parallel(tmp_path / "splitdir" / "heldout.src", tmp_path / "splitdir" / "heldout.tgt")
        assert len(train) == 40 and len(heldout) == 20
        assert {p.source for p in train}.isdisjoint({p.source for p in heldout})

    def test_concat(self, train_files, tmp_path):
        src, tgt = train_files
        code = main(
            ["concat", "--source", str(src), "--target", str(tgt),
             "--count", "80", "--seed", "2", "--min-len", "25",
             "--out-prefix", str(tmp_path / "cc")]
        )
        assert code == 0
        out = load_parallel(tmp_path / "cc.src", tmp_path / "cc.tgt")
        assert len(out) == 80
        assert all("<sep>" in p.source.split() for p in out)
        sidecar = read_sidecar(tmp_path / "cc.meta")
        assert sidecar["target_count"] == "80"

    def test_bt_and_st(self, train_files, tmp_path):
        src, tgt = train_files
        assert 0 == main(
            ["bt", "--source", str(src), "--target", str(tgt),
             "--backward-cmd", mock_cmd("identity"), "--out-prefix", str(tmp_path / "bt")]
        )
        bt = load_parallel(tmp_path / "bt.src", tmp_path / "bt.tgt")
        assert [p.target for p in bt] == [
            line for line in tgt.read_text(encoding="utf-8").splitlines()
        ]
        assert 0 == main(
            ["st", "--source", str(src), "--target", str(tgt),
             "--forward-cmd", mock_cmd("reverse"), "--out-prefix", str(tmp_path / "st")]
        )
        st = load_parallel(tmp_path / "st.src", tmp_path / "st.tgt")
        assert [p.source for p in st] == [
            line for line in src.read_text(encoding="utf-8").splitlines()
        ]

    def test_translator_failure_exit_code(self, train_files, tmp_path):
        src, tgt = train_files
        code = main(
            ["bt", "--source", str(src), "--target", str(tgt),
             "--backward-cmd", "false # {IN} {OUT}", "--out-prefix", str(tmp_path / "bt")]
        )
        assert code == 3

    def test_mix(self, train_files, tmp_path):
        src, tgt = train_files
        code = main(
            ["mix", "--source", str(src), "--target", str(tgt),
             "--recipe", "vanilla+bt+concat", "--seed", "4",
             "--backward-cmd", mock_cmd("identity"),
             "--out-dir", str(tmp_path / "mixdir")]
        )
        assert code == 0
        entries = read_sidecar(tmp_path / "mixdir" / "train.manifest")
        assert entries["pairs.total"] == "240"
        assert entries["pairs.concat"] == "120"


class TestScoringCommands:
    def test_bleu_plain(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d\ne f g\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c d\ne f g\n", encoding="utf-8")
        code = main(["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")])
        assert code == 0
        assert "BLEU = 100.0" in capsys.readouterr().out

    def test_bleu_bucketed_with_csv(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d\ne f g\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c d\ne f x\n", encoding="utf-8")
        (tmp_path / "src.txt").write_text("s s s s s\n" + "s " * 15 + "s\n", encoding="utf-8")
        code = main(
            ["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
             "--src", str(tmp_path / "src.txt"), "--smooth",
             "--out-csv", str(tmp_path / "report.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1-10\t1\t" in out
        assert (tmp_path / "report.csv").exists()

    def test_bleu_bucket_of_empty_decodes_scores_zero(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("\na b c\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a\na b c\n", encoding="utf-8")
        (tmp_path / "src.txt").write_text("s\n" + "s " * 14 + "s\n", encoding="utf-8")
        code = main(
            ["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
             "--src", str(tmp_path / "src.txt")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1-10\t1\t0.0" in out
        assert "11-20\t1\t100.0" in out

    def test_diff_command(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d e\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c d e\n", encoding="utf-8")
        (tmp_path / "src.txt").write_text("s s s\n", encoding="utf-8")
        for name in ("a", "b"):
            main(
                ["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt"),
                 "--src", str(tmp_path / "src.txt"),
                 "--out-csv", str(tmp_path / f"{name}.csv")]
            )
        capsys.readouterr()
        code = main(
            ["diff", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
             "--out-csv", str(tmp_path / "diff.csv"), "--out-svg", str(tmp_path / "diff.svg")]
        )
        assert code == 0
        assert "overall\t+0.0" in capsys.readouterr().out
        assert (tmp_path / "diff.svg").read_text(encoding="utf-8").startswith("<svg")

    def test_judge_command(self, tmp_path, capsys):
        (tmp_path / "j.tsv").write_text(
            "item_id\tsource_len\tdimension\tverdict\n"
            "i1\t5\tadequacy\twin\n"
            "i1\t5\tfluency\ttie\n",
            encoding="utf-8",
        )
        code = main(["judge", "--judgments", str(tmp_path / "j.tsv"), "--out-md", str(tmp_path / "j.md")])
        assert code == 0
        out = capsys.readouterr().out
        assert "| overall |" in out
        assert (tmp_path / "j.md").exists()

    def test_judge_duplicate_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "j.tsv").write_text(
            "item_id\tsource_len\tdimension\tverdict\n"
            "i1\t5\tadequacy\twin\n"
            "i1\t9\tadequacy\tlose\n",
            encoding="utf-8",
        )
        code = main(["judge", "--judgments", str(tmp_path / "j.tsv")])
        assert code == 1
        assert "duplicate" in capsys.readouterr().err


class TestRun:
    def run_args(self, tmp_path, train, test, out_name, recipe="vanilla+bt+concat"):
        return [
            "run",
            "--source", str(train[0]), "--target", str(train[1]),
            "--test-source", str(test[0]), "--test-target", str(test[1]),
            "--recipe", recipe, "--base-size", "50",
            "--backward-cmd", mock_cmd("identity"),
            "--forward-cmd", mock_cmd("identity"),
            "--run-seeds", "1,2,3",
            "--out-dir", str(tmp_path / out_name),
        ]

    def test_manifest_counts_and_metadata(self, tmp_path, train_files, test_files, capsys):
        code = main(self.run_args(tmp_path, train_files, test_files, "out"))
        assert code == 0
        entries = read_sidecar(tmp_path / "out" / "mix" / "train.manifest")
        assert entries["pairs.original"] == "50"
        assert entries["pairs.pseudo_bt"] == "50"
        assert entries["pairs.concat"] == "100"
        metadata = read_sidecar(tmp_path / "out" / "report" / "metadata.txt")
        assert metadata["run_seeds"] == "1,2,3"
        assert metadata["n_runs"] == "3"
        for seed in (1, 2, 3):
            assert (tmp_path / "out" / "runs" / f"run-{seed}" / "report.csv").exists()

    def test_config_file_with_overrides(self, tmp_path, train_files, test_files):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "\n".join(
                [
                    f"source={train_files[0]}",
                    f"target={train_files[1]}",
                    f"test_source={test_files[0]}",
                    f"test_target={test_files[1]}",
                    "recipe=vanilla",
                    "base_size=50",
                    f"forward_cmd={mock_cmd('identity')}",
                    "run_seeds=7",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        code = main(
            ["run", "--config", str(config), "--out-dir", str(tmp_path / "cfgout"),
             "--run-seeds", "7,8"]
        )
        assert code == 0
        resolved = (tmp_path / "cfgout" / "resolved.cfg").read_text(encoding="utf-8")
        assert "run_seeds=7,8" in resolved  # flag overrode the file
        assert "recipe=vanilla" in resolved

    def test_quarantine_on_failure_preserves_prior_outputs(self, tmp_path, train_files, test_files, capsys):
        ok_args = self.run_args(tmp_path, train_files, test_files, "q", recipe="vanilla")
        assert main(ok_args) == 0
        table_before = (tmp_path / "q" / "report" / "bucket_table.md").read_bytes()
        bad_args = [
            a if a != mock_cmd("identity") else "false # {IN} {OUT}" for a in ok_args
        ]
        code = main(bad_args)
        assert code == 3
        assert table_before == (tmp_path / "q" / "report" / "bucket_table.md").read_bytes()
        quarantined = list((tmp_path / "q" / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.endswith("-decode")

    def test_lock_blocks_concurrent_runs(self, tmp_path, train_files, test_files, capsys):
        out_dir = tmp_path / "locked"
        out_dir.mkdir()
        (out_dir / ".lock").write_text(str(os.getpid()), encoding="utf-8")  # a live owner
        code = main(self.run_args(tmp_path, train_files, test_files, "locked", recipe="vanilla"))
        assert code == 2
        assert "locked by another run" in capsys.readouterr().err

    def test_lock_of_dead_run_is_broken(self, tmp_path, train_files, test_files, capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its PID names no process now
        out_dir = tmp_path / "killed"
        out_dir.mkdir()
        (out_dir / ".lock").write_text(str(child.pid), encoding="utf-8")
        (out_dir / ".work").mkdir()  # what the killed run had staged
        code = main(self.run_args(tmp_path, train_files, test_files, "killed", recipe="vanilla"))
        assert code == 0
        assert not (out_dir / ".lock").exists()
        assert [q.name for q in (out_dir / "quarantine").iterdir()] == ["0001-stale"]
        assert (out_dir / "report" / "averaged.csv").is_file()

    def test_unparsable_lock_still_blocks(self, tmp_path, train_files, test_files, capsys):
        out_dir = tmp_path / "garbled"
        out_dir.mkdir()
        (out_dir / ".lock").write_text("not a pid", encoding="utf-8")
        code = main(self.run_args(tmp_path, train_files, test_files, "garbled", recipe="vanilla"))
        assert code == 2
        assert "locked by another run" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key=1\n", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err
