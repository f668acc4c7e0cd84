import os
import shlex
import signal
import time
from pathlib import Path

import pytest

from bitextaug.corpus import Origin, load_parallel
from bitextaug.errors import TranslatorError, ValidationError
from bitextaug.translate import (
    Direction,
    TranslatorSpec,
    back_translate,
    mock_spec,
    self_train,
    translate_file,
)

from conftest import PYTHON, make_corpus, write_pair_files


def gone_or_zombie(pid):
    """True when the process has exited; a zombie may stay unreaped if PID 1 does not reap."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"  # the state follows the name's ")"


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestTranslatorSpec:
    def test_template_needs_both_placeholders(self):
        with pytest.raises(ValidationError, match=r"\{OUT\}"):
            TranslatorSpec("cat {IN}", Direction.FORWARD).validate()
        with pytest.raises(ValidationError, match=r"\{IN\}"):
            TranslatorSpec("toucher {OUT}", Direction.FORWARD).validate()
        with pytest.raises(ValidationError, match="exactly once"):
            TranslatorSpec("x {IN} {IN} {OUT}", Direction.FORWARD).validate()

    def test_timeout_positive(self):
        with pytest.raises(ValidationError, match="timeout"):
            TranslatorSpec("x {IN} {OUT}", Direction.FORWARD, timeout=0).validate()

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), float("-inf"), 2147484])
    def test_timeout_that_the_wait_cannot_take(self, timeout):
        # a longer wait than poll() takes raised OverflowError from inside the decode
        with pytest.raises(ValidationError, match=r"timeout must be in \(0, 2147483\] s"):
            TranslatorSpec("x {IN} {OUT}", Direction.FORWARD, timeout=timeout).validate()
        TranslatorSpec("x {IN} {OUT}", Direction.FORWARD, timeout=2147483).validate()


class TestTranslateFile:
    def test_identity_mock(self, tmp_path):
        infile = tmp_path / "in.txt"
        lines = [f"line {i} alpha beta" for i in range(5)]
        write_lines(infile, lines)
        out = translate_file(mock_spec("identity", Direction.FORWARD), infile)
        assert out == lines
        assert infile.with_name("in.txt.mock-identity.out").read_bytes() == infile.read_bytes()

    def test_reverse_mock(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a b c"])
        out = translate_file(
            mock_spec("reverse", Direction.FORWARD), infile, tmp_path / "out.txt"
        )
        assert out == ["c b a"]

    def test_truncate_mock(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["t0 t1 t2 t3 t4 t5 t6 t7"])
        spec = mock_spec("truncate", Direction.FORWARD, max_tokens=3)
        out = translate_file(spec, infile, tmp_path / "out.txt")
        assert out == ["t0 t1 t2"]

    def test_nonzero_exit_carries_diagnostics(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["x"])
        spec = TranslatorSpec(
            f"{PYTHON} -c 'import sys; sys.stderr.write(\"boom diagnostic\\n\"); sys.exit(1)' "
            "# {IN} {OUT}",
            Direction.FORWARD,
        )
        with pytest.raises(TranslatorError, match="boom diagnostic"):
            translate_file(spec, infile, tmp_path / "out.txt")

    def test_undecodable_stderr_does_not_fail_a_good_decode(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a b"])
        spec = TranslatorSpec("printf '\\377 warn\\n' >&2; cp {IN} {OUT}", Direction.FORWARD)
        out = translate_file(spec, infile, tmp_path / "out.txt")
        assert out == ["a b"]
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a b\n"

    def test_undecodable_stderr_keeps_failure_diagnostics(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a b"])
        spec = TranslatorSpec("printf '\\377 fail\\n' >&2; : {IN} {OUT}; exit 3", Direction.FORWARD)
        with pytest.raises(TranslatorError, match="exited 3") as err:
            translate_file(spec, infile, tmp_path / "out.txt")
        assert str(err.value).endswith("\ufffd fail")

    def test_line_count_mismatch_detected(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a", "b", "c"])
        spec = TranslatorSpec(
            f"{PYTHON} -c 'open(\"{tmp_path}/out.txt\", \"w\").write(\"one line\\n\")' "
            "# {IN} {OUT}",
            Direction.FORWARD,
        )
        with pytest.raises(TranslatorError, match="3 input lines vs 1 output"):
            translate_file(spec, infile, tmp_path / "out.txt")

    def test_missing_output_detected(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a"])
        spec = TranslatorSpec("true # {IN} {OUT}", Direction.FORWARD)
        with pytest.raises(TranslatorError, match="produced no output"):
            translate_file(spec, infile, tmp_path / "out.txt")

    def test_undecodable_output_is_a_translator_error(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a"])
        spec = TranslatorSpec("printf '\\377\\n' > {OUT} # {IN}", Direction.FORWARD, name="bad")
        with pytest.raises(TranslatorError, match=r"'bad' .*out\.txt: invalid UTF-8"):
            translate_file(spec, infile, tmp_path / "out.txt")

    def test_timeout(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a"])
        spec = TranslatorSpec(
            f"{PYTHON} -c 'import time; time.sleep(30)' # {{IN}} {{OUT}}",
            Direction.FORWARD,
            timeout=0.5,
        )
        with pytest.raises(TranslatorError, match="timed out"):
            translate_file(spec, infile, tmp_path / "out.txt")

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_timeout_kills_the_translator_not_only_its_shell(self, tmp_path):
        infile = tmp_path / "in.txt"
        write_lines(infile, ["a"])
        pid_file = tmp_path / "translator.pid"
        script = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(30)"
        # two commands, so the shell forks the translator instead of exec-ing it
        spec = TranslatorSpec(
            f"{PYTHON} -c {shlex.quote(script)}; true # {{IN}} {{OUT}}",
            Direction.FORWARD,
            timeout=3.0,
        )
        start = time.monotonic()
        with pytest.raises(TranslatorError, match="timed out"):
            translate_file(spec, infile, tmp_path / "out.txt")
        assert time.monotonic() - start < 20  # did not wait out the translator's sleep
        pid = int(pid_file.read_text())
        try:
            # SIGKILL takes effect asynchronously: allow it a moment
            deadline = time.monotonic() + 5
            while not gone_or_zombie(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert gone_or_zombie(pid)
        finally:
            if not gone_or_zombie(pid):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("where", ["input", "output"])
    @pytest.mark.parametrize("placeholder", ["{IN}", "{OUT}", "{SEED}"])
    def test_placeholder_inside_a_path_is_part_of_its_name(self, tmp_path, where, placeholder):
        # a path is inserted into the command once; a placeholder in it is not filled again
        named = tmp_path / f"dir-{placeholder}"
        named.mkdir()
        infile = (named if where == "input" else tmp_path) / "in.txt"
        outfile = (named if where == "output" else tmp_path) / f"out-{placeholder}.txt"
        write_lines(infile, ["a b c"])
        seed_file = tmp_path / "seed.txt"
        spec = TranslatorSpec(f"cp {{IN}} {{OUT}} && echo {{SEED}} > {shlex.quote(str(seed_file))}", Direction.FORWARD)
        assert translate_file(spec, infile, outfile, seed=7) == ["a b c"]
        assert outfile.read_bytes() == infile.read_bytes()
        assert seed_file.read_text() == "7\n"

    def test_missing_input(self, tmp_path):
        spec = mock_spec("identity", Direction.FORWARD)
        with pytest.raises(ValidationError, match="does not exist"):
            translate_file(spec, tmp_path / "nope.txt")


class TestBackTranslate:
    def test_identity_mock_swaps_nothing_on_target(self):
        corpus = make_corpus(20, seed=1)
        out = back_translate(corpus, mock_spec("identity", Direction.BACKWARD))
        assert len(out) == len(corpus)
        for orig, new in zip(corpus, out):
            assert new.origin is Origin.PSEUDO_BT
            # identity backward model: pseudo source equals the target text
            assert new.source == orig.target
            # target side is byte-identical (it is the same object)
            assert new.target == orig.target

    def test_targets_byte_identical_with_lossy_translator(self):
        corpus = make_corpus(25, seed=2, min_len=6, max_len=15)
        out = back_translate(corpus, mock_spec("truncate", Direction.BACKWARD, max_tokens=2))
        assert [p.target for p in out] == [p.target for p in corpus]
        assert all(len(p.source.split()) <= 2 for p in out)

    def test_order_preserved(self):
        corpus = make_corpus(10, seed=3)
        out = back_translate(corpus, mock_spec("reverse", Direction.BACKWARD))
        for orig, new in zip(corpus, out):
            assert new.source.split() == list(reversed(orig.target.split()))

    def test_direction_enforced(self):
        corpus = make_corpus(4, seed=3)
        with pytest.raises(ValidationError, match="backward-direction"):
            back_translate(corpus, mock_spec("identity", Direction.FORWARD))

    def test_requires_original_corpus(self):
        corpus = make_corpus(4, seed=3, origin=Origin.PSEUDO_BT)
        with pytest.raises(ValidationError, match="original-origin"):
            back_translate(corpus, mock_spec("identity", Direction.BACKWARD))

    def test_carriage_return_in_output_names_the_line(self):
        # a CR inside a decoded line neither splits it nor reaches the corpus
        corpus = make_corpus(3, seed=3)
        spec = TranslatorSpec(
            f"{PYTHON} -c 'import sys; n = len(open(sys.argv[1]).readlines()); "
            "open(sys.argv[2], \"w\", newline=\"\").write(\"a\\rb\\n\" * n)' {IN} {OUT}",
            Direction.BACKWARD,
        )
        with pytest.raises(TranslatorError, match="output line 1: carriage return"):
            back_translate(corpus, spec)

    @pytest.mark.parametrize("placeholder", ["{IN}", "{OUT}", "{SEED}"])
    def test_placeholder_inside_the_work_directory_is_part_of_its_name(self, tmp_path, placeholder):
        workdir = tmp_path / f"work-{placeholder}"
        workdir.mkdir()
        corpus = make_corpus(5, seed=5)
        out = back_translate(corpus, mock_spec("identity", Direction.BACKWARD), workdir)
        assert [p.source for p in out] == [p.target for p in corpus]
        assert list(workdir.iterdir()) == []

    def test_idempotent_source_under_identity(self):
        # applying the identity backward model twice on the source side
        # changes nothing after the first application
        from bitextaug.corpus import Corpus

        corpus = make_corpus(8, seed=4)
        once = back_translate(corpus, mock_spec("identity", Direction.BACKWARD))
        as_original = Corpus(once.sources, once.targets, [Origin.ORIGINAL] * len(once))
        twice = back_translate(as_original, mock_spec("identity", Direction.BACKWARD))
        assert [p.source for p in twice] == [p.source for p in once]


class TestSelfTrain:
    def test_identity_mock(self):
        corpus = make_corpus(20, seed=5)
        out = self_train(corpus, mock_spec("identity", Direction.FORWARD))
        assert len(out) == len(corpus)
        for orig, new in zip(corpus, out):
            assert new.origin is Origin.PSEUDO_ST
            assert new.target == orig.source
            assert new.source == orig.source

    def test_sources_byte_identical_with_lossy_translator(self):
        corpus = make_corpus(25, seed=6, min_len=6, max_len=15)
        out = self_train(corpus, mock_spec("truncate", Direction.FORWARD, max_tokens=3))
        assert [p.source for p in out] == [p.source for p in corpus]

    def test_direction_enforced(self):
        corpus = make_corpus(4, seed=7)
        with pytest.raises(ValidationError, match="forward-direction"):
            self_train(corpus, mock_spec("identity", Direction.BACKWARD))


class TestRoundTripThroughFiles:
    def test_bt_output_loadable(self, tmp_path):
        corpus = make_corpus(15, seed=9)
        out = back_translate(corpus, mock_spec("identity", Direction.BACKWARD))
        src, tgt = write_pair_files(tmp_path, out, prefix="bt")
        again = load_parallel(src, tgt, origin=Origin.PSEUDO_BT)
        assert [p.source for p in again] == [p.source for p in out]
