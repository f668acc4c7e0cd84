import fcntl
import hashlib
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from bitextaug import pipeline
from bitextaug.cli import main
from bitextaug.corpus import Corpus, load_parallel, read_lines, read_sidecar, rows_with_token, scan_lines
from bitextaug.errors import PipelineError
from bitextaug.metrics import report_from_csv
from bitextaug.pipeline import PipelineConfig, cmd_run

from conftest import make_corpus, mock_cmd, record_forks, write_pair_files

# a translator that writes one byte that is not UTF-8 and ignores its input
BAD_UTF8_CMD = "printf '\\377\\n' > {OUT} # {IN}"


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

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--n-order", "0", "n_order must be >= 1, got 0"),
            ("--base-size", "-1", "base_size must be 0 (all pairs) or >= 2, got -1"),
            ("--base-size", "1", "base_size must be 0 (all pairs) or >= 2, got 1"),
        ],
    )
    def test_setting_that_run_rejects_is_a_violation(self, train_files, capsys, flag, value, message):
        src, tgt = train_files
        code = main(["validate", "--source", str(src), "--target", str(tgt), flag, value])
        assert code == 1
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize(
        "source_lang,target_lang,message",
        [
            ("", "de", "source_lang '' must be non-empty"),
            ("en", "en", "source_lang and target_lang are both 'en'"),
            ("en/x", "de", "source_lang 'en/x' must be non-empty, without whitespace or a path separator"),
            ("en", "d e", "target_lang 'd e' must be non-empty, without whitespace or a path separator"),
            ("manifest", "de", "source_lang 'manifest' is reserved for the manifest file"),
            ("en", "meta", "target_lang 'meta' is reserved for the meta file"),
        ],
    )
    def test_language_code_that_cannot_name_a_file_is_a_violation(
        self, train_files, capsys, source_lang, target_lang, message
    ):
        src, tgt = train_files
        code = main(
            ["validate", "--source", str(src), "--target", str(tgt),
             "--source-lang", source_lang, "--target-lang", target_lang]
        )
        assert code == 1
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "0", "1e7"])
    def test_timeout_that_the_translator_wait_cannot_take_is_a_violation(
        self, train_files, capsys, timeout
    ):
        src, tgt = train_files
        code = main(
            ["validate", "--source", str(src), "--target", str(tgt),
             "--backward-cmd", "cp {IN} {OUT}", f"--timeout={timeout}"]
        )
        assert code == 1
        assert f"timeout must be in (0, 2147483] s, got {float(timeout)}" in capsys.readouterr().out

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

    def test_sigterm_to_bt_stops_its_translator_and_ends_bt_by_that_signal(self, train_files, tmp_path):
        src, tgt = train_files
        pid_file, tmp = tmp_path / "translator.pid", tmp_path / "tmp"
        tmp.mkdir()
        args = ["bt", "--source", str(src), "--target", str(tgt),
                "--backward-cmd", TestRunSides.sleeping_decoder(pid_file), "--out-prefix", str(tmp_path / "bt")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "bitextaug.cli", *args],
            stderr=subprocess.PIPE, text=True, env={**os.environ, "TMPDIR": str(tmp)},
        )
        try:
            deadline = time.monotonic() + 30
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == -signal.SIGTERM, err
        assert "Traceback" not in err
        TestRunSides.assert_gone(pid_file)
        assert not list(tmp.glob("bitextaug-*"))  # the translator's input and output are removed

    def test_sigterm_while_the_translator_starts_stops_it(self, train_files, tmp_path):
        # SIGTERM lands inside Popen, after the translator has started and
        # written its PID, before Popen has returned a process to kill
        script = (
            "import signal, subprocess, sys, time\n"
            "from pathlib import Path\n"
            "from bitextaug.cli import main\n"
            "pid_file, start = Path(sys.argv[1]), subprocess.Popen._execute_child\n"
            "def started_then_signalled(*args, **kwargs):\n"
            "    start(*args, **kwargs)\n"
            "    deadline = time.monotonic() + 20\n"
            "    while not pid_file.exists() and time.monotonic() < deadline:\n"
            "        time.sleep(0.05)\n"
            "    signal.raise_signal(signal.SIGTERM)\n"
            "subprocess.Popen._execute_child = started_then_signalled\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        src, tgt = train_files
        pid_file, tmp = tmp_path / "translator.pid", tmp_path / "tmp"
        tmp.mkdir()
        args = ["bt", "--source", str(src), "--target", str(tgt),
                "--backward-cmd", TestRunSides.sleeping_decoder(pid_file), "--out-prefix", str(tmp_path / "bt")]
        proc = subprocess.run(
            [sys.executable, "-c", script, str(pid_file), *args],
            stderr=subprocess.PIPE, text=True, env={**os.environ, "TMPDIR": str(tmp)}, timeout=60,
        )
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        assert "Traceback" not in proc.stderr
        TestRunSides.assert_gone(pid_file)
        assert not list(tmp.glob("bitextaug-*"))

    @pytest.mark.parametrize("command,flag", [("bt", "--backward-cmd"), ("st", "--forward-cmd")])
    @pytest.mark.parametrize("timeout", ["nan", "inf", "1e7"])
    def test_timeout_that_the_translator_wait_cannot_take_is_a_validation_error(
        self, train_files, tmp_path, capsys, command, flag, timeout
    ):
        src, tgt = train_files
        code = main(
            [command, "--source", str(src), "--target", str(tgt), flag, mock_cmd("identity"),
             "--timeout", timeout, "--out-prefix", str(tmp_path / command)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "timeout must be in (0, 2147483] s" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,messages",
        [
            (["sample", "-n", "10", "--seed", "-3", "--out-prefix", "{out}/s"], ["seed must be >= 0, got -3"]),
            (["split", "--train-n", "40", "--test-n", "20", "--seed", "-1", "--out-dir", "{out}"],
             ["seed must be >= 0, got -1"]),
            (["concat", "--count", "80", "--seed", "-1", "--out-prefix", "{out}/c"],
             ["seed must be >= 0, got -1"]),
            (["mix", "--recipe", "vanilla+concat", "--seed", "-1", "--out-dir", "{out}"],
             ["seed must be >= 0, got -1"]),
            (["validate", "--concat-seed", "-1", "--sample-seed", "-2", "--base-size", "10"],
             ["config: seed must be >= 0, got -1", "config: sample_seed must be >= 0, got -2"]),
        ],
    )
    def test_negative_seed_is_a_validation_error(self, train_files, tmp_path, capsys, argv, messages):
        src, tgt = train_files
        argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
        code = main(argv + ["--source", str(src), "--target", str(tgt)])
        captured = capsys.readouterr()
        assert code == 1
        assert all(m in captured.out + captured.err for m in messages)
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_missing_source_is_a_validation_error(self, train_files, tmp_path, capsys):
        missing = tmp_path / "missing.src"
        code = main(
            ["sample", "--source", str(missing), "--target", str(train_files[1]),
             "-n", "2", "--seed", "1", "--out-prefix", str(tmp_path / "sampled")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert f"{missing}: file not found" in err
        assert "Traceback" not in err

    def test_undecodable_translator_output_exits_3(self, train_files, tmp_path, capsys):
        src, tgt = train_files
        code = main(
            ["bt", "--source", str(src), "--target", str(tgt),
             "--backward-cmd", BAD_UTF8_CMD, "--out-prefix", str(tmp_path / "bt")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "translator error" in err and "invalid UTF-8" in err
        assert "Traceback" not in err

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

    def test_sigterm_to_mix_stops_its_target_writer_and_ends_mix_by_that_signal(self, train_files, tmp_path):
        # every corpus forks a target writer, which records its pid and then sleeps where it would write
        script = (
            "import os, sys, time\n"
            "from bitextaug import corpus\n"
            "from bitextaug.cli import main\n"
            "parent, writer, write = os.getpid(), sys.argv.pop(1), corpus.write_lines\n"
            "def write_lines(path, lines):\n"
            "    if os.getpid() != parent:\n"
            "        with open(writer + '.tmp', 'w') as f:\n"
            "            f.write(str(os.getpid()))\n"
            "        os.rename(writer + '.tmp', writer)\n"
            "        time.sleep(60)\n"
            "    return write(path, lines)\n"
            "corpus.write_lines = write_lines\n"
            "corpus._FORK_MIN_LINES = 1\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src, tgt = train_files
        writer = tmp_path / "writer.pid"
        cli = [sys.executable, "-c", script, str(writer), "mix", "--source", str(src), "--target", str(tgt),
               "--recipe", "vanilla+concat", "--seed", "4", "--out-dir", str(tmp_path / "mixdir")]
        with open(tmp_path / "stderr.txt", "w") as stderr:  # not a pipe, which a writer left running holds open
            proc = subprocess.Popen(cli, stderr=stderr)
        try:
            deadline = time.monotonic() + 30
            while not writer.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert writer.exists(), "no target writer started"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err = (tmp_path / "stderr.txt").read_text(encoding="utf-8")
        assert proc.returncode == -signal.SIGTERM, err
        assert "Traceback" not in err
        TestRunSides.assert_gone(writer)

    @pytest.mark.parametrize("source_lang,target_lang", [("en", "en"), ("manifest", "de"), ("en", "meta")])
    @pytest.mark.parametrize("command", ["mix", "sample"])
    def test_clashing_language_codes_write_nothing(
        self, train_files, tmp_path, capsys, command, source_lang, target_lang
    ):
        # codes that clash with each other or with the manifest or sidecar suffix
        src, tgt = train_files
        out = tmp_path / "out"
        langs = ["--source-lang", source_lang, "--target-lang", target_lang]
        if command == "mix":
            argv = ["mix", "--recipe", "vanilla", "--seed", "1", "--out-dir", str(out)]
        else:
            out.mkdir()
            argv = ["sample", "-n", "10", "--seed", "1", "--out-prefix", str(out / "sampled")]
        code = main(argv + ["--source", str(src), "--target", str(tgt)] + langs)
        err = capsys.readouterr().err
        assert code == 1
        assert "validation error" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


class TestScoringCommands:
    def test_bleu_plain(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d\ne f g\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c d\ne f g\n", encoding="utf-8")
        code = main(["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")])
        assert code == 0
        assert "BLEU = 100.0" in capsys.readouterr().out

    def test_bleu_of_byte_order_marked_hypotheses(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_bytes(b"\xef\xbb\xbfa b c d\ne f g\n")
        (tmp_path / "ref.txt").write_text("a b c d\ne f g\n", encoding="utf-8")
        code = main(["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")])
        assert code == 0
        assert "BLEU = 100.0" in capsys.readouterr().out

    def test_bleu_of_missing_hypotheses(self, tmp_path, capsys):
        (tmp_path / "ref.txt").write_text("a b c d\n", encoding="utf-8")
        missing = tmp_path / "hyp.txt"
        code = main(["bleu", "--hyp", str(missing), "--ref", str(tmp_path / "ref.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{missing}: file not found" in err
        assert "Traceback" not in err

    def test_bleu_of_undecodable_hypotheses(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_bytes(b"a b\n\xff c d\n")
        (tmp_path / "ref.txt").write_text("a b\nc d\n", encoding="utf-8")
        code = main(["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{tmp_path / 'hyp.txt'}: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_sigterm_to_a_bleu_shard_worker_ends_bleu_by_that_signal(self, tmp_path):
        # two shards; the forked one sends itself SIGTERM where it would count
        script = (
            "import os, signal, sys\n"
            "from bitextaug import metrics\n"
            "from bitextaug.cli import main\n"
            "parent, count = os.getpid(), metrics._ngram_stats\n"
            "def kernel(hyps, refs, n_order):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return count(hyps, refs, n_order)\n"
            "metrics._ngram_stats = kernel\n"
            "metrics.SHARD_MIN_CHARS = 1\n"
            "metrics.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b c d\ne f g\n" * 4, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", script, "bleu", "--hyp", str(hyp), "--ref", str(hyp)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sigterm_to_bleu_stops_its_shard_worker_and_ends_bleu_by_that_signal(self, tmp_path):
        # two shards that sleep where they would count; the forked one records its pid first
        script = (
            "import os, sys, time\n"
            "from bitextaug import metrics\n"
            "from bitextaug.cli import main\n"
            "parent, worker, count = os.getpid(), sys.argv.pop(1), metrics._ngram_stats\n"
            "def kernel(hyps, refs, n_order):\n"
            "    if os.getpid() != parent:\n"
            "        with open(worker + '.tmp', 'w') as f:\n"
            "            f.write(str(os.getpid()))\n"
            "        os.rename(worker + '.tmp', worker)\n"
            "    time.sleep(60)\n"
            "    return count(hyps, refs, n_order)\n"
            "metrics._ngram_stats = kernel\n"
            "metrics.SHARD_MIN_CHARS = 1\n"
            "metrics.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        hyp, worker = tmp_path / "hyp.txt", tmp_path / "worker.pid"
        hyp.write_text("a b c d\ne f g\n" * 4, encoding="utf-8")
        cli = [sys.executable, "-c", script, str(worker), "bleu", "--hyp", str(hyp), "--ref", str(hyp)]
        with open(tmp_path / "stderr.txt", "w") as stderr:  # not a pipe, which a worker left running holds open
            proc = subprocess.Popen(cli, stderr=stderr)
        try:
            deadline = time.monotonic() + 30
            while not worker.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err = (tmp_path / "stderr.txt").read_text(encoding="utf-8")
        assert proc.returncode == -signal.SIGTERM, err
        assert "Traceback" not in err
        TestRunSides.assert_gone(worker)

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# n_order=4\nbucket,count,score\nall,1\n", "bad report CSV row 'all,1'"),
            ("# n_order=4\nbucket,count,score\nall,1,x\n", "bad report CSV row 'all,1,x'"),
            ("# n_order=four\nbucket,count,score\nall,1,50.0\n", "n_order='four'"),
        ],
    )
    def test_diff_of_malformed_report(self, tmp_path, capsys, text, message):
        (tmp_path / "bad.csv").write_text(text, encoding="utf-8")
        (tmp_path / "good.csv").write_text(
            "# n_order=4\nbucket,count,score\nall,1,50.0\n", encoding="utf-8"
        )
        code = main(["diff", "--a", str(tmp_path / "bad.csv"), "--b", str(tmp_path / "good.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["diff", "--a", "{}", "--b", "{}"], ["judge", "--judgments", "{}"]])
    def test_missing_input_file(self, tmp_path, capsys, flags):
        missing = tmp_path / "missing"
        code = main([flag.format(missing) for flag in flags])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{missing}: file not found" in err
        assert "Traceback" not in err

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

    def test_repeated_run_seed_is_rejected_before_the_run(self, tmp_path, train_files, test_files, capsys):
        args = self.run_args(tmp_path, train_files, test_files, "dup")
        args[args.index("1,2,3")] = "1,2,1"
        code = main(args)
        assert code == 1
        assert "--run-seeds: run_seeds repeats seed 1" in capsys.readouterr().err
        assert not (tmp_path / "dup").exists()

    def test_negative_sample_seed_stops_the_run_at_validate(self, tmp_path, train_files, test_files, capsys):
        args = self.run_args(tmp_path, train_files, test_files, "negseed", recipe="vanilla")
        code = main(args + ["--sample-seed", "-2", "--base-size", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert "config: sample_seed must be >= 0, got -2" in err and "Traceback" not in err
        quarantined = list((tmp_path / "negseed" / "quarantine").iterdir())
        assert [q.name for q in quarantined] == ["0001-validate"]

    def test_interrupt_during_promotion_leaves_one_run_in_place(
        self, tmp_path, train_files, test_files, monkeypatch
    ):
        # an interrupt right after the first staged output is moved in takes
        # effect only once the others are in place too
        assert main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla")) == 0
        rename = Path.rename

        def interrupting_rename(path, target):
            moved = rename(path, target)
            if path.parent.name == ".work":
                signal.raise_signal(signal.SIGINT)
            return moved

        monkeypatch.setattr(Path, "rename", interrupting_rename)
        with pytest.raises(KeyboardInterrupt):
            main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla+concat"))
        manifest = read_sidecar(tmp_path / "out" / "mix" / "train.manifest")
        metadata = read_sidecar(tmp_path / "out" / "report" / "metadata.txt")
        assert manifest["meta.recipe"] == metadata["recipe"] == "vanilla+concat"

    def test_prior_outputs_are_deleted_once_the_new_ones_are_in_place(
        self, tmp_path, train_files, test_files, monkeypatch
    ):
        out = tmp_path / "out"
        assert main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla")) == 0
        rmtree, calls = shutil.rmtree, []

        def watched_rmtree(path, *args, **kwargs):
            if Path(path).is_relative_to(out):
                held = signal.pthread_sigmask(signal.SIG_BLOCK, [])
                recipe = read_sidecar(out / "report" / "metadata.txt")["recipe"]
                calls.append((path, held, recipe))
            return rmtree(path, *args, **kwargs)

        monkeypatch.setattr(shutil, "rmtree", watched_rmtree)
        assert main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla+concat")) == 0
        assert calls
        for path, held, recipe in calls:
            assert not held & {signal.SIGINT, signal.SIGTERM, signal.SIGHUP}, path
            assert recipe == "vanilla+concat", path
        assert sorted(p.name for p in out.iterdir()) == ["mix", "report", "resolved.cfg", "runs"]

    def test_prior_outputs_left_by_an_interrupted_deletion_are_deleted_not_quarantined(
        self, tmp_path, train_files, test_files, monkeypatch
    ):
        # a run stopped while it deletes the prior outputs leaves only them in
        # .work, as dot-names; the next run has nothing of a failed run to keep
        out = tmp_path / "out"
        assert main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla")) == 0
        with monkeypatch.context() as mp:
            def interrupted_rmtree(path, *args, **kwargs):
                raise KeyboardInterrupt

            mp.setattr(shutil, "rmtree", interrupted_rmtree)
            with pytest.raises(KeyboardInterrupt):
                main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla+concat"))
        assert sorted(p.name for p in (out / ".work").iterdir()) == [".mix", ".report", ".resolved.cfg", ".runs"]
        second = {p: p.read_bytes() for p in out.rglob("*") if p.is_file() and ".work" not in p.parts}
        assert read_sidecar(out / "report" / "metadata.txt")["recipe"] == "vanilla+concat"
        assert main(self.run_args(tmp_path, train_files, test_files, "out", recipe="vanilla+concat")) == 0
        assert sorted(p.name for p in out.iterdir()) == ["mix", "report", "resolved.cfg", "runs"]
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == second  # the same run again

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

    def test_undecodable_decode_quarantines_under_decode(self, tmp_path, train_files, test_files, capsys):
        args = self.run_args(tmp_path, train_files, test_files, "badbytes", recipe="vanilla")
        args[args.index("--forward-cmd") + 1] = BAD_UTF8_CMD
        code = main(args)
        err = capsys.readouterr().err
        assert code == 3
        assert "invalid UTF-8" in err and "Traceback" not in err
        quarantined = list((tmp_path / "badbytes" / "quarantine").iterdir())
        assert [q.name for q in quarantined] == ["0001-decode"]

    def test_training_and_test_targets_are_scanned_once(
        self, tmp_path, train_files, test_files, monkeypatch
    ):
        # without os.fork the test side runs in this process, so its scans count too
        monkeypatch.delattr(os, "fork")
        scanned: Counter = Counter()

        def counting_scan(path):
            scanned[Path(path)] += 1
            return scan_lines(path)

        for name, module in list(sys.modules.items()):
            if name.startswith("bitextaug") and getattr(module, "scan_lines", None) is scan_lines:
                monkeypatch.setattr(module, "scan_lines", counting_scan)
        assert main(self.run_args(tmp_path, train_files, test_files, "once")) == 0
        # the back-translator's files lived in a temporary directory of the run
        bt_files = {path.name: n for path, n in scanned.items() if path.name.startswith("bt.")}
        others = {path: n for path, n in scanned.items() if not path.name.startswith("bt.")}
        hyps = [tmp_path / "once" / ".work" / "runs" / f"run-{seed}" / "hyp.txt" for seed in (1, 2, 3)]
        # translate_file counts the lines of its own input: the input check
        # reads the test source once, and each of the 3 run seeds once more
        assert bt_files == {"bt.in": 1, "bt.out": 1}
        assert others == {train_files[0]: 1, train_files[1]: 1, test_files[1]: 1, test_files[0]: 4,
                          **{hyp: 1 for hyp in hyps}}

    def test_only_the_back_translated_sources_are_scanned_for_the_separator(
        self, tmp_path, train_files, test_files, monkeypatch
    ):
        # the input check has rejected every training line that holds the
        # separator, so only the back-translator's output can hold one
        scanned = []

        def counting(lines, token):
            scanned.append(lines)
            return rows_with_token(lines, token)

        for name, module in list(sys.modules.items()):
            if name.startswith("bitextaug") and getattr(module, "rows_with_token", None) is rows_with_token:
                monkeypatch.setattr(module, "rows_with_token", counting)
        args = self.run_args(tmp_path, train_files, test_files, "scans")
        args[args.index("--backward-cmd") + 1] = mock_cmd("reverse")
        assert main(args) == 0
        targets = set(load_parallel(*train_files).targets)
        assert [len(lines) for lines in scanned] == [50]
        assert all(" ".join(reversed(line.split())) in targets for line in scanned[0])

    def test_short_decode_quarantines_under_score_naming_its_seed(
        self, tmp_path, train_files, test_files, capsys, monkeypatch
    ):
        # translate_file checks the line count of its own output, so a fake
        # in its place plays a decoder that comes back one line short on seed 2
        def decode(spec, input_path, output_path, seed=None):
            lines = Path(input_path).read_text(encoding="utf-8").splitlines(keepends=True)
            Path(output_path).write_text("".join(lines[:-1] if seed == 2 else lines), encoding="utf-8")
            return read_lines(output_path)

        monkeypatch.setattr(pipeline, "translate_file", decode)
        code = main(self.run_args(tmp_path, train_files, test_files, "short", recipe="vanilla"))
        assert code == 2
        assert "run 2: decoder returned 29 lines for 30 test items" in capsys.readouterr().err
        quarantined = list((tmp_path / "short" / "quarantine").iterdir())
        assert [q.name for q in quarantined] == ["0001-score"]
        assert (quarantined[0] / "runs" / "run-1" / "hyp.txt").is_file()
        assert not list(quarantined[0].glob("runs/*/report.csv"))  # no seed is scored alone

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    @pytest.mark.parametrize("stage,name", [
        ("validate", "read_parallel"),
        ("load", "MixRecipe"),
        ("sample", "sample"),  # the run samples 50 of the 60 training pairs
        ("mix", "write_mix"),
        ("decode", "translate_file"),
        ("score", "bucketed_bleu_runs"),
        ("report", "render_diff_chart"),
    ])
    def test_each_stage_quarantines_under_its_own_name(
        self, tmp_path, train_files, test_files, capsys, monkeypatch, stage, name, fork
    ):
        def broken(*args, **kwargs):
            raise PipelineError(f"{name} broke")

        monkeypatch.setattr(pipeline, name, broken)
        if not fork:
            monkeypatch.delattr(os, "fork")
        code = main(self.run_args(tmp_path, train_files, test_files, "stages", recipe="vanilla"))
        assert code == 2
        assert f"error: {name} broke" in capsys.readouterr().err
        out = tmp_path / "stages"
        assert [q.name for q in (out / "quarantine").iterdir()] == [f"0001-{stage}"]
        assert sorted(p.name for p in out.iterdir()) == ["quarantine"]  # no .work, no .lock

    def test_short_real_decode_quarantines_under_decode(self, tmp_path, train_files, test_files, capsys):
        # translate_file counts the lines of a real decoder's output itself
        args = self.run_args(tmp_path, train_files, test_files, "short", recipe="vanilla")
        args[args.index("--forward-cmd") + 1] = "sed '$d' {IN} > {OUT}"
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "translator 'forward' line-count mismatch: 30 input lines vs 29 output lines" in err
        assert [q.name for q in (tmp_path / "short" / "quarantine").iterdir()] == ["0001-decode"]

    def test_scoring_failure_quarantines_under_score(self, tmp_path, train_files, test_files, capsys):
        # every test source has at least 2 words, so a 1-word bucket covers none
        args = self.run_args(tmp_path, train_files, test_files, "uncovered", recipe="vanilla")
        code = main(args + ["--buckets", "1"])
        assert code == 1
        assert "every item falls outside the bucket spec" in capsys.readouterr().err
        quarantined = list((tmp_path / "uncovered" / "quarantine").iterdir())
        assert [q.name for q in quarantined] == ["0001-score"]

    def test_stray_name_in_quarantine_is_not_numbered(self, tmp_path, train_files, test_files, capsys):
        out_dir = tmp_path / "stray"
        for name in ("2024notes", "0003-mix", "12-x", "\u00b2\u00b2\u00b2\u00b2-x"):
            (out_dir / "quarantine" / name).mkdir(parents=True)
        args = self.run_args(tmp_path, train_files, test_files, "stray", recipe="vanilla")
        args[args.index("--forward-cmd") + 1] = "false # {IN} {OUT}"
        assert main(args) == 3
        assert "translator 'forward' exited 1" in capsys.readouterr().err
        names = sorted(p.name for p in (out_dir / "quarantine").iterdir())
        assert names == sorted(["0004-decode", "2024notes", "0003-mix", "12-x", "\u00b2\u00b2\u00b2\u00b2-x"])
        assert not (out_dir / ".work").exists()

    def test_lock_blocks_concurrent_runs(self, tmp_path, train_files, test_files, capsys):
        out_dir = tmp_path / "locked"
        out_dir.mkdir()
        with open(out_dir / ".lock", "w") as owner:  # a live owner holds the lock
            fcntl.flock(owner, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = main(self.run_args(tmp_path, train_files, test_files, "locked", recipe="vanilla"))
        assert code == 2
        assert "locked by another run" in capsys.readouterr().err
        assert not (out_dir / ".work").exists()

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

    def test_leftover_lock_file_is_taken_over(self, tmp_path, train_files, test_files, capsys):
        out_dir = tmp_path / "leftover"
        out_dir.mkdir()
        (out_dir / ".lock").write_text("not a pid", encoding="utf-8")  # no process holds it
        code = main(self.run_args(tmp_path, train_files, test_files, "leftover", recipe="vanilla"))
        assert code == 0
        assert not (out_dir / ".lock").exists()

    def test_config_with_byte_order_mark_loads(self, tmp_path):
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbfrecipe=vanilla\nbase_size=7\n")
        loaded = PipelineConfig.from_file(config)
        assert (loaded.recipe, loaded.base_size) == ("vanilla", 7)

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = main(["run", "--config", str(missing), "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{missing}: file not found" in err
        assert "Traceback" not in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key=1\n", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err


# sha256 prefixes of every file `run` writes, except resolved.cfg (it names
# the output directory), for the config in TestRunPinnedBytes: a change to
# any byte of the mix, the decodes or the reports shows up here, not only as
# a difference between two runs of the same code.
PINNED_RUN_DIGESTS = {
    "mix/train.manifest": "c1255d4de26a5c9f",
    "mix/train.src": "a920ca27ab0f6216",
    "mix/train.tgt": "7d495850d0c81a5e",
    "report/averaged.csv": "ba7ca893c057a999",
    "report/bucket_table.md": "f90d37d1c2025bd7",
    "report/metadata.txt": "363089b1d0fc8640",
    "report/scores.svg": "468b6d6d36ee0abb",
    "runs/run-1/hyp.txt": "ebc61d95900eea9a",
    "runs/run-1/report.csv": "5ae8c5d794af87ae",
    "runs/run-2/hyp.txt": "ebc61d95900eea9a",
    "runs/run-2/report.csv": "5ae8c5d794af87ae",
    "runs/run-3/hyp.txt": "ebc61d95900eea9a",
    "runs/run-3/report.csv": "5ae8c5d794af87ae",
}


class TestRunPinnedBytes:
    def test_run_files_match_pinned_digests(self, tmp_path):
        train = make_corpus(40, seed=51, min_len=13, max_len=22)
        # targets keep about 80% of their source's tokens, so the identity
        # decodes score strictly between 0 and 100
        base = make_corpus(30, seed=52, min_len=2, max_len=40, unique_lines=False)
        rng = random.Random(53)
        kept = [
            " ".join(t if rng.random() < 0.8 else f"v{rng.randint(0, 30)}" for t in line.split())
            for line in base.sources
        ]
        test = Corpus(base.sources, kept, base.origins)
        train_src, train_tgt = write_pair_files(tmp_path, train, prefix="train")
        test_src, test_tgt = write_pair_files(tmp_path, test, prefix="test")
        out = tmp_path / "out"
        cmd_run(
            PipelineConfig(
                source=str(train_src), target=str(train_tgt),
                test_source=str(test_src), test_target=str(test_tgt),
                out_dir=str(out), recipe="vanilla+bt+concat", base_size=30,
                forward_cmd=mock_cmd("identity"), backward_cmd=mock_cmd("reverse"),
                run_seeds=(1, 2, 3),
            )
        )
        digests = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "resolved.cfg"
        }
        assert digests == PINNED_RUN_DIGESTS
        averaged = report_from_csv((out / "report" / "averaged.csv").read_text(encoding="utf-8"))
        assert 0.0 < averaged.overall < 100.0


class TestRunSides:
    """The train side (sample, mix) runs in the parent while a forked child decodes and scores."""

    def run_args(self, tmp_path, train, test, out_name, forward, backward):
        return [
            "run",
            "--source", str(train[0]), "--target", str(train[1]),
            "--test-source", str(test[0]), "--test-target", str(test[1]),
            "--recipe", "vanilla+bt+concat", "--base-size", "50",
            "--backward-cmd", backward, "--forward-cmd", forward,
            "--run-seeds", "1,2",
            "--out-dir", str(tmp_path / out_name),
        ]

    @staticmethod
    def sleeping_decoder(pid_file) -> str:
        """A forward command that writes its PID to pid_file, then sleeps."""
        pid = shlex.quote(str(pid_file))
        return f"echo $$ > {pid}.tmp && mv {pid}.tmp {pid} && exec sleep 60 # {{IN}} {{OUT}}"

    @staticmethod
    def wait_for(path) -> str:
        """Shell code that waits up to 20 s for a file to appear."""
        quoted = shlex.quote(str(path))
        return f"i=0; while [ ! -e {quoted} ] && [ $i -lt 400 ]; do sleep 0.05; i=$((i+1)); done"

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids forked meanwhile; each must be reaped by the time the test ends."""
        forked = record_forks(monkeypatch)
        yield forked
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @staticmethod
    def assert_gone(pid_file):
        """The process whose pid is in pid_file ends within 10 s; a zombie has ended."""
        pid = int(pid_file.read_text(encoding="ascii"))
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return
            try:  # a killed process that no one reaps stays a zombie (state Z)
                if Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z":
                    return
            except FileNotFoundError:  # it ended meanwhile, or there is no /proc
                pass
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        pytest.fail(f"process {pid} was left running")

    def test_failing_mix_stops_the_decoder(self, tmp_path, train_files, test_files, capsys, forks):
        pid_file = tmp_path / "decoder.pid"
        backward = f"{self.wait_for(pid_file)}; exit 5 # {{IN}} {{OUT}}"
        args = self.run_args(
            tmp_path, train_files, test_files, "orphan", self.sleeping_decoder(pid_file), backward
        )
        start = time.monotonic()
        assert main(args) == 3
        assert time.monotonic() - start < 30
        assert "translator 'backward' exited 5" in capsys.readouterr().err
        assert [q.name for q in (tmp_path / "orphan" / "quarantine").iterdir()] == ["0001-mix"]
        assert forks
        self.assert_gone(pid_file)

    def test_interrupted_mix_stops_the_decoder(self, tmp_path, train_files, test_files, monkeypatch, forks):
        pid_file = tmp_path / "decoder.pid"

        def interrupted_mix(*args, **kwargs):
            deadline = time.monotonic() + 20
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "build_mix", interrupted_mix)
        args = self.run_args(
            tmp_path, train_files, test_files, "interrupted", self.sleeping_decoder(pid_file),
            mock_cmd("identity"),
        )
        with pytest.raises(KeyboardInterrupt):
            main(args)
        assert [q.name for q in (tmp_path / "interrupted" / "quarantine").iterdir()] == ["0001-mix"]
        self.assert_gone(pid_file)

    def test_failing_decode_with_a_good_mix_quarantines_under_decode(
        self, tmp_path, train_files, test_files, capsys, forks
    ):
        args = self.run_args(
            tmp_path, train_files, test_files, "decode", "exit 4 # {IN} {OUT}", mock_cmd("identity")
        )
        assert main(args) == 3
        assert "translator 'forward' exited 4" in capsys.readouterr().err
        quarantined = list((tmp_path / "decode" / "quarantine").iterdir())
        assert [q.name for q in quarantined] == ["0001-decode"]
        assert (quarantined[0] / "mix" / "train.manifest").is_file()  # the train side finished

    def test_when_both_sides_fail_the_train_side_wins(self, tmp_path, train_files, test_files, capsys, forks):
        # the decoder fails at once; the back-translator fails once that failure is written
        failed = tmp_path / "decode.failed"
        forward = f"touch {shlex.quote(str(failed))}; exit 4 # {{IN}} {{OUT}}"
        backward = f"{self.wait_for(failed)}; exit 5 # {{IN}} {{OUT}}"
        args = self.run_args(tmp_path, train_files, test_files, "both", forward, backward)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "translator 'backward' exited 5" in err
        assert "exited 4" not in err
        assert [q.name for q in (tmp_path / "both" / "quarantine").iterdir()] == ["0001-mix"]

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP])
    def test_ending_signal_stops_the_run_cleanly_and_then_ends_it(
        self, tmp_path, train_files, test_files, signum
    ):
        pid_file = tmp_path / "decoder.pid"
        out = tmp_path / "signalled"
        args = self.run_args(
            tmp_path, train_files, test_files, "signalled", self.sleeping_decoder(pid_file),
            mock_cmd("identity"),
        )
        proc = subprocess.Popen([sys.executable, "-m", "bitextaug.cli", *args])
        try:
            manifest = out / ".work" / "mix" / "train.manifest"
            deadline = time.monotonic() + 30
            while not (pid_file.exists() and manifest.exists()) and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)  # the train side has finished; only the decodes are left
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == -signum  # ended by the signal, after cleaning up
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.assert_gone(pid_file)
        assert [p.name for p in out.iterdir()] == ["quarantine"]  # no .work, no .lock
        assert [q.name for q in (out / "quarantine").iterdir()] == ["0001-decode"]
        # the forked test side has the same command line as the run, which named out
        proc_dir = Path("/proc")
        if proc_dir.is_dir():
            left = []
            for cmdline in proc_dir.glob("[0-9]*/cmdline"):
                try:
                    if str(out).encode() in cmdline.read_bytes():
                        left.append(cmdline.parent.name)
                except OSError:  # the process ended meanwhile
                    pass
            assert not left, f"processes {left} of the run were left running"

    def test_sigterm_to_the_test_side_ends_the_run_by_that_signal(self, tmp_path, train_files, test_files):
        # the decoder's shell records its parent, the forked test side, then sleeps
        worker_file, pid_file = tmp_path / "worker.pid", tmp_path / "decoder.pid"
        worker = shlex.quote(str(worker_file))
        forward = f"echo $PPID > {worker}.tmp && mv {worker}.tmp {worker} && {self.sleeping_decoder(pid_file)}"
        out = tmp_path / "worker"
        args = self.run_args(tmp_path, train_files, test_files, "worker", forward, mock_cmd("identity"))
        cli = [sys.executable, "-m", "bitextaug.cli", *args]
        proc = subprocess.Popen(cli, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            os.kill(int(worker_file.read_text(encoding="ascii")), signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == -signal.SIGTERM
        assert "Traceback" not in err
        self.assert_gone(pid_file)
        assert [p.name for p in out.iterdir()] == ["quarantine"]  # no .work, no .lock
        assert [q.name for q in (out / "quarantine").iterdir()] == ["0001-decode"]

    def test_a_killed_run_keeps_its_directory_locked_while_its_test_side_lives(
        self, tmp_path, train_files, test_files, capsys
    ):
        # the decoder's shell records its parent, the forked test side, then waits for release
        worker_file, release = tmp_path / "worker.pid", tmp_path / "release"
        worker = shlex.quote(str(worker_file))
        forward = f"echo $PPID > {worker}.tmp && mv {worker}.tmp {worker}; {self.wait_for(release)}; cp {{IN}} {{OUT}}"
        out = tmp_path / "killed"
        first = self.run_args(tmp_path, train_files, test_files, "killed", forward, mock_cmd("identity"))
        again = self.run_args(tmp_path, train_files, test_files, "killed", mock_cmd("identity"), mock_cmd("identity"))
        proc = subprocess.Popen([sys.executable, "-m", "bitextaug.cli", *first])
        try:
            manifest = out / ".work" / "mix" / "train.manifest"
            deadline = time.monotonic() + 30
            while not (worker_file.exists() and manifest.exists()) and time.monotonic() < deadline:
                time.sleep(0.05)
            proc.kill()  # the test side lives on, decoding into out/.work
            proc.wait(timeout=30)
            assert main(again) == 2
            assert "output directory is locked by another run" in capsys.readouterr().err
        finally:
            release.touch()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.assert_gone(worker_file)
        assert main(again) == 0
        assert [q.name for q in (out / "quarantine").iterdir()] == ["0001-stale"]

    def test_without_fork_the_sides_run_in_turn_and_write_the_same_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        TestRunPinnedBytes().test_run_files_match_pinned_digests(tmp_path)
