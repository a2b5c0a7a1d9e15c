"""``python -m repro``: the one front door.

Bad input fails in one stderr line with exit 1, before anything runs;
the run options are the tagged :class:`RunSpec` fields and nothing else;
tagging them left every cache key where it was.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.__main__ import OPTIONS, TAGGED, VERBS, build_parser, main
from repro.fleet.spec import RunSpec

RUN_VERBS = sorted(name for name, verb in VERBS.items() if verb.runs)

BAD_RUN_INPUT = {
    "unknown app": ["no-such-app"],
    "unknown plan in a list": ["helmholtz", "--plan", "drop,nope"],
    "unknown exec": ["--exec", "9Thread-9CPU"],
    "no nodes": ["--nodes", "0"],
    "zero period": ["--period", "0"],
}

MISSING_INPUT = {
    "trace-diff": ["/nonexistent.jsonl", "/nonexistent-too.jsonl"],
    "translate": ["/nonexistent.c"],
}


@pytest.mark.parametrize(
    "argv",
    [[verb, *bad] for verb in RUN_VERBS for bad in BAD_RUN_INPUT.values()]
    + [[verb, *args] for verb, args in MISSING_INPUT.items()],
    ids=[f"{verb}-{case}" for verb in RUN_VERBS for case in BAD_RUN_INPUT]
    + [f"{verb}-missing input" for verb in MISSING_INPUT],
)
def test_bad_input_fails_in_one_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    assert len(captured.err.strip().splitlines()) == 1, captured.err


def test_run_spec_cache_key_is_pinned():
    """Flag metadata never enters the key; the set of fields does."""
    spec = RunSpec(workload="helmholtz", factory=("repro.apps.helmholtz", "make_program"))
    assert spec.fingerprint() == (
        "55341e6b10129c8fece65b316716476c9826716d5a9e66d66b9a52fcfcd4a9fb"
    )


def _dests(verb: str, parser=None):
    """The attributes a parse of *verb* with no arguments sets."""
    return set(vars((parser or build_parser()).parse_args([verb]))) - {"verb"}


@pytest.mark.parametrize("verb", RUN_VERBS)
def test_run_verb_options_are_the_tagged_fields_plus_its_own(verb):
    own = argparse.ArgumentParser()
    verbs = own.add_subparsers(dest="verb")
    sub = verbs.add_parser(verb)
    for key in ("apps", "--list", *VERBS[verb].options):
        sub.add_argument(*key.split(), **OPTIONS[key])
    assert _dests(verb) == set(TAGGED) | _dests(verb, own)
    assert set(TAGGED) == {
        "n_nodes", "mode", "exec_name", "accel", "hier", "sanitize",
        "fault_plan", "chaos_seed", "metrics_period",
    }
    untagged = {f.name for f in fields(RunSpec)} - set(TAGGED)
    assert {"observe_timed", "pool_bytes"} <= untagged
    assert not untagged & _dests(verb)


def test_every_declared_option_is_used_by_some_verb():
    used = {key for verb in VERBS.values() for key in verb.options} | {"apps", "--list"}
    assert set(OPTIONS) == used - set(TAGGED)


def test_parsing_imports_no_verb_body():
    """A verb's body (and the translator) is imported only when the door
    dispatches to it, and nothing imports scipy, a CG run included."""
    code = (
        "import sys\n"
        "from repro.__main__ import VERBS, build_parser, main\n"
        "build_parser().parse_args(['trace', 'cg'])\n"
        "bodies = {v.body.split(':')[0] for v in VERBS.values()}\n"
        "loaded = (bodies | {'scipy', 'repro.translator'}) & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert main(['sanitize', 'cg', '--nodes', '2', '--jobs', '1', '--no-cache']) == 0\n"
        "assert 'repro.apps.cg' in sys.modules and 'scipy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
