"""CLI smoke tests for ``python -m repro sanitize``."""

from repro.__main__ import main


def test_list_exits_zero(capsys):
    assert main(["sanitize", "--list"]) == 0
    out = capsys.readouterr().out
    assert "helmholtz" in out
    assert "racy-ww" in out


def test_unknown_app_rejected(capsys):
    assert main(["sanitize", "no-such-app"]) == 1
    assert "unknown app" in capsys.readouterr().err


def test_unknown_exec_config_rejected(capsys):
    assert main(["sanitize", "helmholtz", "--exec", "bogus"]) == 1
    assert "unknown exec config" in capsys.readouterr().err


def test_bad_nodes_rejected(capsys):
    assert main(["sanitize", "helmholtz", "--nodes", "0"]) == 1


def test_clean_app_exits_zero(capsys):
    assert main(["sanitize", "md", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: OK" in out


def test_racy_app_exits_two_and_names_sites(capsys):
    assert main(["sanitize", "racy-ww", "--nodes", "2"]) == 2
    out = capsys.readouterr().out
    assert "data-race" in out
    assert "races with earlier" in out


def test_expect_races_inverts_exit(capsys):
    assert main(["sanitize", "racy-ww", "--nodes", "2", "--expect-races"]) == 0
    assert main(["sanitize", "md", "--nodes", "2", "--expect-races"]) == 2
