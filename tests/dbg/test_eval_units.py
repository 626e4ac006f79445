"""Unit tests for the debugger's dynamic-typed expression evaluator."""

import pytest

from repro.cminus.typesys import BOOL, S32, U8, U32, ArrayType, StructType
from repro.cminus.values import Value
from repro.dbg.eval import EvalError, Evaluator, ValueHistory, format_typed


class FakeFrame:
    def __init__(self, variables):
        self._vars = variables

    def lookup(self, name):
        return self._vars.get(name)

    def variables(self):
        return dict(self._vars)


def make_eval(**variables):
    history = ValueHistory()
    frame = FakeFrame({k: Value(*v) for k, v in variables.items()})
    return Evaluator(frame=frame, history=history), history


def test_scalar_arithmetic_and_types():
    ev, _ = make_eval(a=(U8, 200), b=(U8, 100))
    ctype, raw = ev.eval_text("a + b")
    assert raw == 300  # promoted to S32, no U8 wrap
    assert ctype is S32
    ctype, raw = ev.eval_text("(U8)(a + b)")
    assert raw == 44


def test_aggregate_equality_but_no_ordering():
    point = StructType("P", (("x", S32), ("y", S32)))
    ev, _ = make_eval(p=(point, {"x": 1, "y": 2}), q=(point, {"x": 1, "y": 2}))
    assert ev.eval_text("p == q")[1] is True
    assert ev.eval_text("p != q")[1] is False
    with pytest.raises(EvalError):
        ev.eval_text("p < q")


def test_array_indexing_and_bounds():
    arr = ArrayType(elem=U32, size=3)
    ev, _ = make_eval(a=(arr, [10, 20, 30]))
    assert ev.eval_text("a[1] + a[2]")[1] == 50
    with pytest.raises(EvalError):
        ev.eval_text("a[3]")
    with pytest.raises(EvalError):
        ev.eval_text("a[0][0]")


def test_member_access_errors():
    point = StructType("P", (("x", S32),))
    ev, _ = make_eval(p=(point, {"x": 5}))
    assert ev.eval_text("p.x")[1] == 5
    with pytest.raises(EvalError) as e:
        ev.eval_text("p.y")
    assert "fields: x" in str(e.value)
    ev2, _ = make_eval(n=(U32, 1))
    with pytest.raises(EvalError):
        ev2.eval_text("n.x")


def test_pure_builtins_allowed_others_rejected():
    ev, _ = make_eval(n=(S32, -7))
    assert ev.eval_text("abs(n)")[1] == 7
    assert ev.eval_text("clip(n, 0, 5)")[1] == 0
    with pytest.raises(EvalError) as e:
        ev.eval_text("print(n)")
    assert "pure builtins" in str(e.value)


def test_builtin_with_the_wrong_argument_count_is_an_error():
    ev, _ = make_eval(n=(S32, -7))
    with pytest.raises(EvalError, match=r"min\(\) takes 2 argument\(s\), not 1"):
        ev.eval_text("min(n)")
    with pytest.raises(EvalError, match=r"abs\(\) takes 1 argument\(s\), not 0"):
        ev.eval_text("abs()")


def test_division_and_modulo_guards():
    ev, _ = make_eval(z=(S32, 0))
    with pytest.raises(EvalError):
        ev.eval_text("1 / z")
    with pytest.raises(EvalError):
        ev.eval_text("1 % z")
    assert ev.eval_text("-7 / 2")[1] == -3  # trunc toward zero


def test_short_circuit_avoids_errors():
    ev, _ = make_eval(z=(S32, 0))
    assert ev.eval_text("false && (1 / z > 0)")[1] is False
    assert ev.eval_text("true || (1 / z > 0)")[1] is True


def test_history_recall_with_members():
    point = StructType("P", (("x", S32),))
    ev, history = make_eval(p=(point, {"x": 9}))
    ctype, raw = ev.eval_text("p")
    history.record(ctype, raw)
    assert ev.eval_text("$1.x")[1] == 9
    assert ev.eval_text("$1")[1] == {"x": 9}
    with pytest.raises(EvalError):
        ev.eval_text("$7")


def test_unknown_symbol_message():
    ev, _ = make_eval()
    with pytest.raises(EvalError) as e:
        ev.eval_text("mystery")
    assert "no symbol 'mystery'" in str(e.value)


def test_format_typed():
    assert format_typed(BOOL, True) == "true"
    assert format_typed(U32, 7) == "7"


def pack_stop_cli():
    """The rle demo stopped at pack.c:7."""
    from repro.serve.builders import build_program_cli

    cli, _sink = build_program_cli("rle")
    for line in ("break pack.c:7", "run", "continue"):
        cli.execute(line)
    return cli


def test_print_shift_by_the_width_computes_what_the_program_computes():
    # both Filter-C tiers compute 0: the shift is not masked to 5 bits
    assert pack_stop_cli().execute("print 1 << 32") == ["$1 = 0"]


def test_print_shift_out_of_range_errors_as_the_program_does():
    assert pack_stop_cli().execute("print 1 << 33") == [
        "error: shift amount 33 out of range"
    ]
