"""The front-end compile cache: lex/parse/sema memoized by source digest.

Replay re-executions and timeline forks rebuild the whole application
from scratch — the cache makes the second and every later rebuild reuse
the analyzed program, and lets identical sources share one bytecode
unit (memoized per Program object).
"""

import pytest

from repro.cminus import frontend_cache
from repro.cminus.frontend import FrontendCache, type_signature
from repro.cminus.typesys import S32, U8, U32, ArrayType, StructType
from repro.pedf.compile import compile_actor
from repro.pedf.decls import FilterDecl, ModuleDecl


SRC = """\
void work() {
    U32 v = pedf.io.an_input[0];
    pedf.io.an_output[0] = v + 1;
}
"""


def make_decl(name="filt", source=SRC):
    decl = FilterDecl(name=name, source=source)
    decl.add_iface("an_input", "input", U32)
    decl.add_iface("an_output", "output", U32)
    return decl


def make_module(name="m"):
    return ModuleDecl(name=name)


@pytest.fixture(autouse=True)
def clean_cache():
    frontend_cache.clear()
    yield
    frontend_cache.clear()


def test_identical_sources_share_one_program():
    module = make_module()
    d1, d2 = make_decl("filt"), make_decl("filt")
    compile_actor(d1, module)
    compile_actor(d2, module)
    assert frontend_cache.hits == 1 and frontend_cache.misses == 1
    # same mangle + same source + same context → the same analyzed program
    assert d1.cprogram is d2.cprogram
    assert d1.debug_info is d2.debug_info
    assert d1.work_symbol == d2.work_symbol


def test_different_instance_names_do_not_collide():
    """Mangling differs per instance — the cache must key on it."""
    module = make_module()
    d1, d2 = make_decl("alpha"), make_decl("beta")
    compile_actor(d1, module)
    compile_actor(d2, module)
    assert frontend_cache.hits == 0 and frontend_cache.misses == 2
    assert d1.cprogram is not d2.cprogram
    assert d1.work_symbol != d2.work_symbol


def test_different_sources_do_not_collide():
    module = make_module()
    d1 = make_decl("filt")
    d2 = make_decl("filt", source=SRC.replace("v + 1", "v + 2"))
    compile_actor(d1, module)
    compile_actor(d2, module)
    assert frontend_cache.misses == 2
    assert d1.cprogram is not d2.cprogram


def test_rebuild_hits_the_cache():
    """The replay scenario: a fresh declaration tree, same sources."""
    compile_actor(make_decl(), make_module())
    assert frontend_cache.stats() == (1, 0, 1)
    compile_actor(make_decl(), make_module())
    compile_actor(make_decl(), make_module())
    assert frontend_cache.stats() == (1, 2, 1)


def test_clear_resets_everything():
    compile_actor(make_decl(), make_module())
    assert len(frontend_cache) == 1
    frontend_cache.clear()
    assert frontend_cache.stats() == (0, 0, 0)


def test_amodule_rebuild_reuses_programs():
    """End to end: rebuilding the demo app re-parses nothing."""
    from repro.apps.amodule import build_demo

    build_demo([1, 2])
    misses_first = frontend_cache.misses
    assert misses_first > 0
    hits_before = frontend_cache.hits
    build_demo([3, 4])
    assert frontend_cache.misses == misses_first, "rebuild re-parsed a source"
    assert frontend_cache.hits > hits_before


def test_type_signature_distinguishes_struct_layouts():
    a = StructType("Pt", [("x", S32), ("y", S32)])
    b = StructType("Pt", [("x", S32), ("y", U8)])
    assert type_signature(a) != type_signature(b)
    assert type_signature(ArrayType(S32, 4)) != type_signature(ArrayType(S32, 5))


def test_cache_is_a_plain_memo():
    cache = FrontendCache()
    key = cache.digest("src", "f.c", "salt")
    assert cache.get(key) is None
    cache.put(key, ("x",))
    assert cache.get(key) == ("x",)
    assert cache.stats() == (1, 1, 1)
    assert key != cache.digest("src", "f.c", "other-salt")
