"""What a fresh process loads: template, verify and verma wait for first use."""

import json
import os
import subprocess
import sys

import flowloop

SRC = os.path.dirname(os.path.dirname(os.path.abspath(flowloop.__file__)))
LAZY = ("flowloop.template", "flowloop.verify", "flowloop.verma")


def fresh(code):
    """The JSON that `code` prints last, run in a new interpreter on this
    checkout's flowloop."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_lazy_submodule():
    loaded = fresh(
        "import json, sys, flowloop\n"
        f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")
    assert loaded == []


def test_every_public_name_resolves_and_is_listed():
    got = fresh(
        "import json, flowloop\n"
        "names = flowloop.__all__\n"
        "print(json.dumps({\n"
        "    'unresolved': [n for n in names\n"
        "                   if getattr(flowloop, n, None) is None],\n"
        "    'unlisted': sorted(set(names) - set(dir(flowloop))),\n"
        "    'cached': sorted(set(flowloop._LAZY) & set(vars(flowloop))),\n"
        "    'same': flowloop.zeta_classical\n"
        "            is flowloop.template.zeta_classical,\n"
        "}))")
    assert got == {"unresolved": [], "unlisted": [], "cached": [],
                   "same": True}


def test_star_import_binds_every_public_name():
    missing = fresh(
        "import json\n"
        "from flowloop import *\n"
        "import flowloop\n"
        "print(json.dumps([n for n in flowloop.__all__\n"
        "                  if n not in globals()]))")
    assert missing == []


def test_unknown_name_raises_attribute_error():
    got = fresh(
        "import json, flowloop\n"
        "print(json.dumps(hasattr(flowloop, 'no_such_name')))")
    assert got is False


def test_cli_zhat_loads_neither_template_nor_verify():
    loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from flowloop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['zhat', '--braid', '1 -2 1 -2', '--order', '3'])\n"
        "print(json.dumps([code] + [m for m in sys.modules\n"
        "    if m in ('flowloop.template', 'flowloop.verify')]))")
    assert loaded == [0]
