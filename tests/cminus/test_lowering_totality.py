"""Lowering totality: every program sema accepts lowers completely.

The register VM is the only execution tier, so a construct that sema
accepts and the compiler refuses would make a valid program unrunnable
(:class:`~repro.errors.CMinusLoweringError`).  ``vm_unit(p).failed``
must be empty for the differential suite's random programs, for a corpus
of constructs in an actor context, for every Filter-C string in the
tests, examples and applications that sema accepts on its own, and for
the ADL example's actors.
"""

import ast as pyast
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.cminus import analyze, parse_program
from repro.cminus.sema import ActorContext, IfaceSig
from repro.cminus.typesys import U32
from repro.cminus.vm.compiler import vm_unit
from repro.errors import ReproError

from .test_compile_tiers import fc_program

ROOT = Path(__file__).resolve().parents[2]


def lowering_failures(source, context=None):
    prog = parse_program(source, "<totality>")
    analyze(prog, context, source)
    return vm_unit(prog).failed


@settings(max_examples=60, deadline=None)
@given(fc_program())
def test_random_programs_lower_completely(source):
    assert lowering_failures(source) == {}


def filter_context():
    ctx = ActorContext(kind="filter")
    ctx.ifaces["inp"] = IfaceSig("inp", "input", U32)
    ctx.ifaces["out"] = IfaceSig("out", "output", U32)
    ctx.data["d"] = U32
    ctx.attributes["a"] = U32
    return ctx


#: one program per construct family, including the global initialisers
#: that read the environment
CONSTRUCTS = {
    "data_update": "void work() { pedf.data.d++; pedf.data.d += 2; pedf.data.d = pedf.attribute.a; }",
    "global_reads_input": "U32 g = pedf.io.inp[0];\nvoid work() { pedf.io.out[0] = g; }",
    "global_reads_data": "U32 g = pedf.data.d + pedf.attribute.a;\nvoid work() { pedf.io.out[0] = g; }",
    "global_bool": "bool b = 1 > 0;\nconst U32 k = 3;\nvoid work() { pedf.io.out[0] = b ? k : 0; }",
    "global_array": "U32 g[4];\nvoid work() { g[1] = 2; g[1]++; g[1] <<= 2; pedf.io.out[0] = g[1]; }",
    "struct": (
        "struct P { U32 x; };\nstruct P p;\n"
        "void work() { p.x++; p.x += 2; struct P q = p; struct P r = q.x > 1 ? p : q; "
        "pedf.io.out[0] = r.x; }"
    ),
    "statements": (
        "void work() { 3; abs(2); print(\"x\", true); trap(); U32 i = 0; "
        "do { i++; if (i == 2) continue; if (i > 5) break; } while (i < 9); "
        "for (;;) { break; } while (i > 0) { i--; } return; }"
    ),
    "wide_shifts": "void work() { U32 x = 1 << 40; U32 y = 1; y <<= 40; y >>= x; }",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTS))
def test_construct_lowers_completely(name):
    assert lowering_failures(CONSTRUCTS[name], filter_context()) == {}


def _string_sources():
    """Every string literal in the tests, examples and applications that
    parses and passes sema as a plain (actor-less) program."""
    found = []
    files = [p for d in ("tests", "examples", "src/repro/apps") for p in (ROOT / d).rglob("*.py")]
    for path in sorted(files):
        for node in pyast.walk(pyast.parse(path.read_text())):
            text = getattr(node, "value", None)
            if not (isinstance(node, pyast.Constant) and isinstance(text, str)):
                continue
            if "{" not in text or ";" not in text:
                continue
            try:
                prog = parse_program(text, "<totality>")
                analyze(prog, None, text)
            except ReproError:
                continue
            found.append((f"{path.relative_to(ROOT)}:{node.lineno}", prog))
    return found


def test_every_plain_source_in_the_tree_lowers_completely():
    sources = _string_sources()
    assert len(sources) > 50
    failed = {where: vm_unit(prog).failed for where, prog in sources if vm_unit(prog).failed}
    assert failed == {}


def test_the_adl_example_lowers_completely():
    """The ADL front end's actors (``examples/adl``); the shipped demos
    are ``test_vm.py::test_every_shipped_program_lowers_completely``."""
    from repro import build_debug_session

    adl = ROOT / "examples" / "adl"
    sources = {p.name: p.read_text() for p in adl.glob("*.c")}
    _dbg, _cli, _session, runtime = build_debug_session((adl / "amodule.adl").read_text(), sources)
    programs = [a.interp.program for a in runtime.all_actors() if getattr(a, "interp", None)]
    assert programs
    assert [vm_unit(p).failed for p in programs] == [{} for _ in programs]
