import importlib.metadata
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import iccflow
from iccflow.cli import main

LEAKY = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_target i "Out"
      put_extra i "imei" x
      icc start_activity i
    }
  }
  component activity Out {
    method onCreate(this) {
      g = get_intent
      v = get_extra g "imei"
      sink "sendTextMessage" v
    }
  }
}
"""

PARTNER = """
app "B" {
  component activity Hub {
    filter { action "com.b.HUB"; }
    method onCreate(this) {
      g = get_intent
      v = get_extra g "imei"
      sink "writeLog" v
    }
  }
}
"""

CONF = "source getDeviceId\nsink sendTextMessage\nsink writeLog\n"


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "a.cir").write_text(LEAKY, encoding="utf-8")
    (tmp_path / "rules.conf").write_text(CONF, encoding="utf-8")
    return tmp_path


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------


def test_every_public_name_is_exported():
    missing = [name for name in iccflow.__all__ if not hasattr(iccflow, name)]
    assert missing == []


def test_check_ok(corpus, capsys):
    code, out, err = _run(capsys, "check", str(corpus / "a.cir"))
    assert code == 0
    assert out == "ok: 1 app(s), 2 component(s)\n"


def test_check_reports_parse_errors(corpus, capsys):
    (corpus / "broken.cir").write_text('app "Z" {\n  what\n', encoding="utf-8")
    code, out, err = _run(capsys, "check", str(corpus / "broken.cir"))
    assert code == 1
    assert "error" in err and out == ""


def test_check_rejects_a_synthetic_filter(corpus, capsys):
    text = LEAKY.replace('filter { action "MAIN"; }', 'synthetic filter { action "MAIN"; }')
    (corpus / "a.cir").write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "check", str(corpus / "a.cir"))
    assert code == 1
    assert "a.cir:4:15: error: a filter cannot be synthetic" in err and out == ""


def test_check_rejects_duplicate_app_ids(corpus, capsys):
    (corpus / "b.cir").write_text(LEAKY, encoding="utf-8")
    code, _, err = _run(capsys, "check", str(corpus))
    assert code == 1
    assert "duplicate app id" in err


def test_usage_error_is_exit_2(corpus):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(corpus / "a.cir")])  # --config missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _usage_error(corpus, command, *args) -> str:
    """Run the CLI in a fresh interpreter: exit 2, nothing on stdout, no
    traceback. Returns stderr."""
    argv = [sys.executable, "-m", "iccflow.cli", command, str(corpus / "a.cir"), *args]
    if command == "analyze":
        argv += ["--config", str(corpus / "rules.conf")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize("command", ["combine", "analyze"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_max_len_is_a_usage_error(corpus, command, value):
    assert "argument --max-len: " in _usage_error(corpus, command, "--max-len", value)


@pytest.mark.parametrize("command", ["links", "instrument", "combine", "analyze"])
def test_removed_db_flag_is_a_usage_error(corpus, command):
    assert "unrecognized arguments: --db" in _usage_error(corpus, command, "--db", "x")


def test_links_lists_resolved_edges(corpus, capsys):
    code, out, err = _run(capsys, "links", str(corpus / "a.cir"))
    assert code == 0
    assert out == "A/Main/onCreate/b0/4\tstart_activity\tA/Out\texact\tin-app\n"


def test_links_diagnostic_exit(corpus, capsys):
    text = LEAKY.replace('set_target i "Out"', 'set_target i "Nowhere"')
    (corpus / "a.cir").write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "links", str(corpus / "a.cir"))
    assert code == 1
    assert out == ""
    assert "no such component" in err


def test_instrument_to_stdout(corpus, capsys):
    code, out, _ = _run(capsys, "instrument", str(corpus / "a.cir"))
    assert code == 0
    assert "class IpcSC" in out and "redirect0" in out
    assert "icc start_activity" not in out


def test_instrument_to_directory(corpus, capsys, tmp_path):
    dest = tmp_path / "out"
    code, out, _ = _run(capsys, "instrument", str(corpus / "a.cir"), "-o", str(dest))
    assert code == 0
    assert out == ""
    written = (dest / "A.cir").read_text(encoding="utf-8")
    assert "intent_for_ipc" in written


def test_combine_prints_app_sets(corpus, capsys, tmp_path):
    (corpus / "b.cir").write_text(PARTNER, encoding="utf-8")
    code, out, _ = _run(capsys, "combine", str(corpus))
    assert code == 0
    # no cross-app links between A and B: two singleton sets
    assert out.splitlines() == ["A", "B"]


def test_analyze_text_and_exit_codes(corpus, capsys):
    code, out, err = _run(
        capsys, "analyze", str(corpus / "a.cir"), "--config", str(corpus / "rules.conf")
    )
    assert code == 0
    assert "A/Main/onCreate/b0/0" in out and "A/Out/onCreate/b0/2" in out
    assert err == ""


def test_analyze_identical_across_runs(corpus, capsys):
    """Two runs of the same command print the same report."""
    (corpus / "b.cir").write_text(PARTNER, encoding="utf-8")
    args = ["analyze", str(corpus), "--config", str(corpus / "rules.conf"), "--format", "tsv"]
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert first.count("\n") >= 2  # header plus at least one path


def test_analyze_missing_config(corpus, capsys):
    code, _, err = _run(capsys, "analyze", str(corpus / "a.cir"), "--config", "/nonexistent")
    assert code == 1
    assert "error" in err


def _fails_cleanly(path, *args):
    """Run the CLI in a fresh interpreter: exit 1, an error naming the path,
    no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "iccflow.cli", *args],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr and str(path) in proc.stderr


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_a_directory_without_cir_files_is_an_error(corpus, capsys, command):
    empty = corpus / "empty"
    empty.mkdir()
    args = ["--config", str(corpus / "rules.conf")] if command == "analyze" else []
    code, out, err = _run(capsys, command, str(empty), *args)
    assert (code, out) == (1, "")
    assert err == f"{empty}: error: no .cir files under {str(empty)!r}\n"


def test_inputs_load_once_in_sorted_order_with_their_diagnostics(corpus, capsys):
    (corpus / "b").mkdir()
    paths = [corpus / "z", corpus, corpus / "a.cir", corpus / "b"]
    code, out, err = _run(capsys, "check", *map(str, paths))
    assert (code, out) == (1, "")
    want = [corpus / "b", corpus / "z"]
    assert err.splitlines() == [f"{p}: error: no .cir files under {str(p)!r}" for p in want]


def test_non_utf8_input_is_a_diagnostic(corpus):
    bad = corpus / "bad.cir"
    bad.write_bytes(b"\xff\xfeapp")
    _fails_cleanly(bad, "check", str(bad))


def test_missing_bench_root_is_a_diagnostic(corpus):
    root = corpus / "missing"
    _fails_cleanly(root, "bench", str(root), "--config", str(corpus / "rules.conf"))


def test_instrument_output_that_is_a_file_is_an_error(corpus):
    dest = corpus / "rules.conf"
    _fails_cleanly(dest, "instrument", str(corpus / "a.cir"), "-o", str(dest))


# two apps that each declare class Main of origin app Z: their statement
# ids and method keys would collide
SENDS_AS_Z = """
app "A" {
  component activity Main from "Z" {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_action i "com.b.SHOW"
      put_extra i "k" x
      icc start_activity i
    }
  }
}
"""

READS_AS_Z = """
app "B" {
  component activity Main from "Z" {
    filter { action "com.b.SHOW"; }
    method onCreate(this) {
      g = get_intent
      v = get_extra g "k"
      sink "writeLog" v
    }
  }
}
"""


@pytest.mark.parametrize("command", ["check", "links", "analyze"])
def test_two_apps_declaring_one_class_is_an_error(corpus, command):
    (corpus / "a.cir").write_text(SENDS_AS_Z, encoding="utf-8")
    (corpus / "b.cir").write_text(READS_AS_Z, encoding="utf-8")
    args = [str(corpus / "a.cir"), str(corpus / "b.cir")]
    if command == "analyze":
        args += ["--config", str(corpus / "rules.conf")]
    proc = subprocess.run(
        [sys.executable, "-m", "iccflow.cli", command, *args],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{corpus / 'b.cir'}: error: class 'Z/Main' declared by apps 'A' and 'B'" in proc.stderr


def test_bench_case_whose_apps_declare_one_class_is_invalid(corpus, capsys, tmp_path):
    case = tmp_path / "cases" / "twice"
    case.mkdir(parents=True)
    tagged = SENDS_AS_Z.replace('x = source "getDeviceId"', 'x = source "getDeviceId"  # @tag s')
    (case / "a.cir").write_text(tagged, encoding="utf-8")
    tagged = READS_AS_Z.replace('sink "writeLog" v', 'sink "writeLog" v  # @tag k')
    (case / "b.cir").write_text(tagged, encoding="utf-8")
    (case / "truth").write_text("leak s k\n", encoding="utf-8")
    code, out, err = _run(capsys, "bench", str(case.parent), "--config", str(corpus / "rules.conf"))
    assert code == 1
    assert out.splitlines()[1].split()[:2] == ["twice", "invalid"]
    assert f"{case / 'b.cir'}: error: class 'Z/Main' declared by apps 'A' and 'B'" in err.splitlines()


@pytest.mark.parametrize("fmt, line", [
    ("text", "[Intra] getLocation @ WBoot/Boot/main/b0/0 -> sendToUrl @ WBoot/Boot/main/b0/2"
             " (3 stmts, apps: WBoot)"),
    ("tsv", "Intra\tWBoot/Boot/main/b0/0\tWBoot/Boot/main/b0/2\t3\tWBoot"),
], ids=["text", "tsv"])
def test_a_leak_in_a_plain_class_names_its_app(capsys, repo_root, fmt, line):
    code, out, _ = _run(
        capsys, "analyze", str(repo_root / "corpus" / "warnings"),
        "--config", str(repo_root / "corpus" / "sources_sinks.conf"), "--format", fmt,
    )
    assert code == 1  # the corpus calls unknown methods on purpose
    assert line in out.splitlines()


@pytest.mark.parametrize("command", ["analyze", "bench"])
def test_non_utf8_config_is_an_error(corpus, command):
    conf = corpus / "bad.conf"
    conf.write_bytes(b"\xff\xfe")
    target = corpus / "a.cir" if command == "analyze" else corpus
    _fails_cleanly(conf, command, str(target), "--config", str(conf))


def test_bench_command(corpus, capsys, tmp_path):
    root = tmp_path / "cases"
    case = root / "only"
    case.mkdir(parents=True)
    tagged = LEAKY.replace('x = source "getDeviceId"', 'x = source "getDeviceId"  # @tag s')
    tagged = tagged.replace('sink "sendTextMessage" v', 'sink "sendTextMessage" v  # @tag k')
    (case / "app.cir").write_text(tagged, encoding="utf-8")
    (case / "truth").write_text("leak s k class ICC\n", encoding="utf-8")
    code, out, _ = _run(
        capsys, "bench", str(root), "--config", str(corpus / "rules.conf")
    )
    assert code == 0
    assert "Precision: 100.0%" in out
    bad = root / "sick"
    bad.mkdir()
    (bad / "truth").write_text("nonsense\n", encoding="utf-8")
    (bad / "app.cir").write_text(LEAKY.replace('"A"', '"Q"'), encoding="utf-8")
    code, out, err = _run(capsys, "bench", str(root), "--config", str(corpus / "rules.conf"))
    assert code == 1
    assert "invalid" in out


# `iccflow` as a console script. pip writes a wrapper that imports the entry
# point's object and exits with its return value; these tests run that same
# wrapper from the declaration in a fresh interpreter, so they hold without
# the package being installed, and compare it with `python -m iccflow.cli`.

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
HAVE_TOMLLIB = importlib.util.find_spec("tomllib") is not None

# pip's console-script wrapper, with the entry point's module and attribute.
WRAPPER = "import sys\nfrom {module} import {attr}\nsys.argv[0] = 'iccflow'\nsys.exit({attr}())\n"


def _installed_distribution():
    try:
        return importlib.metadata.distribution("iccflow")
    except importlib.metadata.PackageNotFoundError:
        return None


def _declared_scripts() -> dict:
    """Console scripts declared for iccflow: `[project.scripts]` in
    pyproject.toml where `tomllib` exists (Python 3.11+), otherwise the
    installed distribution's `console_scripts` metadata."""
    if HAVE_TOMLLIB and PYPROJECT.is_file():
        import tomllib

        with PYPROJECT.open("rb") as fh:
            return dict(tomllib.load(fh)["project"].get("scripts", {}))
    return {
        ep.name: ep.value
        for ep in _installed_distribution().entry_points
        if ep.group == "console_scripts"
    }


def _subprocess_env() -> dict:
    # Subprocesses import the same iccflow the in-process tests imported,
    # whatever PYTHONPATH pytest was launched with.
    src = str(Path(iccflow.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def _run_proc(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, env=_subprocess_env())
    return proc.returncode, proc.stdout


def _check_cases(corpus):
    """Arguments of a clean `check` (exit 0) and of an invalid one (exit 1)."""
    (corpus / "broken.cir").write_text('app "Z" {\n  what\n', encoding="utf-8")
    return ("check", str(corpus / "a.cir")), ("check", str(corpus / "broken.cir"))


def _module_run(*args):
    return _run_proc([sys.executable, "-m", "iccflow.cli", *args])


@pytest.mark.skipif(
    not (HAVE_TOMLLIB and PYPROJECT.is_file()) and _installed_distribution() is None,
    reason="needs tomllib and pyproject.toml, or an installed iccflow distribution",
)
def test_console_script_subprocess(corpus):
    scripts = _declared_scripts()
    assert scripts.get("iccflow") == "iccflow.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="iccflow", value=scripts["iccflow"], group="console_scripts"
    )
    wrapper = [sys.executable, "-c", WRAPPER.format(module=ep.module, attr=ep.attr)]
    clean, invalid = _check_cases(corpus)

    assert _module_run(*clean) == (0, "ok: 1 app(s), 2 component(s)\n")
    assert _module_run(*invalid) == (1, "")
    for args in (clean, invalid):
        assert _run_proc([*wrapper, *args]) == _module_run(*args)


@pytest.mark.skipif(shutil.which("iccflow") is None, reason="no iccflow script on PATH")
def test_installed_console_script(corpus):
    for args in _check_cases(corpus):
        assert _run_proc([shutil.which("iccflow"), *args]) == _module_run(*args)
