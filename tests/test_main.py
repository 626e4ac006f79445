"""The `python -m repro` entry point (script mode)."""

import os
import subprocess
import sys
import textwrap


def run_main(args, script_text=None, tmp_path=None):
    argv = [sys.executable, "-m", "repro"] + args
    if script_text is not None:
        script = tmp_path / "session.gdb"
        script.write_text(script_text)
        argv += ["--script", str(script)]
    # run inside tmp_path so artifacts the CLI writes into its cwd
    # (e.g. automatic flight-recorder dumps on a deadlock stop) land in
    # the test sandbox, not the repo root; absolutize PYTHONPATH entries
    # so a relative `PYTHONPATH=src` still resolves from there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    )
    return subprocess.run(
        argv,
        capture_output=True,
        text=True,
        timeout=180,
        cwd=str(tmp_path) if tmp_path is not None else None,
        env=env,
    )


def test_demo_amodule_scripted(tmp_path):
    result = run_main(
        ["--demo", "amodule"],
        script_text="run\ndataflow info\nfilter filter_1 catch work\ncontinue\n",
        tmp_path=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "reconstructed" in result.stdout
    assert "WORK method of filter `filter_1'" in result.stdout


def test_demo_h264_with_bug(tmp_path):
    result = run_main(
        ["--demo", "h264", "--bug", "rate-mismatch"],
        script_text="run\ncontinue\ndataflow links\n",
        tmp_path=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "injected bug" in result.stdout
    assert "20 token(s) queued" in result.stdout


def test_adl_file_loading(tmp_path):
    (tmp_path / "app.adl").write_text(textwrap.dedent("""
        @Filter
        primitive Inc {
            source inc.c;
            input U32 as i;
            output U32 as o;
        }
        @Module
        composite M {
            contains as controller { source ctl.c; maxsteps 3; }
            contains Inc as inc;
            input U32 as min_;
            output U32 as mout;
            binds this.min_ to inc.i;
            binds inc.o to this.mout;
        }
    """))
    (tmp_path / "inc.c").write_text("void work() { pedf.io.o[0] = pedf.io.i[0] + 1; }")
    (tmp_path / "ctl.c").write_text("void work() { ACTOR_FIRE(inc); WAIT_FOR_ACTOR_SYNC(); }")
    result = run_main(
        [
            "--adl", str(tmp_path / "app.adl"),
            "--src", str(tmp_path / "inc.c"),
            "--src", str(tmp_path / "ctl.c"),
            "--source-values", "10,20,30",
        ],
        script_text="run\ncontinue\ndataflow links\n",
        tmp_path=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "pushed 3, popped 3" in result.stdout


def test_unknown_bug_variant_errors():
    result = run_main(["--demo", "h264", "--bug", "nope"])
    assert result.returncode == 1
    assert "unknown bug variant" in result.stderr


def test_missing_arguments():
    result = run_main([])
    assert result.returncode == 2


def test_tab_completes_the_line_typed_so_far():
    from repro.__main__ import bind_completion
    from repro.serve.builders import build_program_cli

    class FakeReadline:
        line = ""

        def set_completer(self, fn):
            self.completer = fn

        def set_completer_delims(self, delims):
            self.delims = delims

        def parse_and_bind(self, text):
            self.bound = text

        def get_line_buffer(self):
            return self.line

        def get_endidx(self):
            return len(self.line)

    cli, _sink = build_program_cli("rle")
    readline = FakeReadline()
    bind_completion(readline, cli)
    assert readline.bound == "tab: complete" and readline.delims == " "
    readline.line = "break pa"
    offered = []
    while (word := readline.completer("pa", len(offered))) is not None:
        offered.append(word)
    assert offered == ["pack.c"]
