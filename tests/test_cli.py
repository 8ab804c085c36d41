import io
import json
import os
import subprocess
import sys
import time
import warnings

import pytest

import mfhh
from mfhh import cli, engine, poly, symmetry
from mfhh.cli import main
from mfhh.engine import BigradedTable, compute_table, hh2_vanishes
from mfhh.errors import WindowMismatch
from mfhh.poly import parse

LAUFER1 = "x1^3*x2+x2^3*x3+x3^2+x4^2"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_table_json_document():
    code, out, err = run(
        ["table", "--poly", LAUFER1, "--dmin", "-12", "--dmax", "4", "--format", "json"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert doc["poly"] == {"vars": 4, "rows": [[3, 1, 0, 0], [0, 3, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}
    assert doc["transpose"]["rows"] == [[3, 0, 0, 0], [1, 3, 0, 0], [0, 1, 2, 0], [0, 0, 0, 2]]
    assert doc["weights"] == {"d": [5, 3, 9, 9], "h": 18, "d0": -8}
    assert doc["ker_chi_order"] == 36
    assert doc["hh2_vanishes"] is True
    assert doc["window"] == [-12, 4]
    hh3 = sum(c["dim"] for c in doc["cells"] if c["d"] == 3)
    assert hh3 == 11


def test_table_json_byte_identical():
    args = ["table", "--poly", LAUFER1, "--dmin", "-8", "--dmax", "4", "--format", "json"]
    assert run(args) == run(args)


def test_table_csv_format():
    code, out, _ = run(
        ["table", "--poly", "x1^2+x2^2+x3^2+x4^2", "--dmin", "-6", "--dmax", "4", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,weight,dim"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_table_monomials_listing():
    code, out, _ = run(
        ["table", "--poly", LAUFER1, "--dmin", "-4", "--dmax", "4", "--format", "json", "--monomials"]
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["contributions"]
    assert {(r["monomial"], r["type"], r["count"]) for r in rows if r["d"] == 3} == {
        ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "C", 8),
        ("x0^∨*x1^∨*x2^∨*x3^∨*x4^∨", "B", 1),
        ("x0^∨*x1^∨*x2^2*x4^∨", "C", 2),
    }


def test_table_input_errors():
    code, _, err = run(["table", "--poly", "x1^2+x1^2", "--dmin", "-2", "--dmax", "2"])
    assert code == 2 and ("singular" in err or "repeated" in err)
    code, _, err = run(["table", "--poly", "2*x1^2+x2^2", "--dmin", "-2", "--dmax", "2"])
    assert code == 2
    code, _, err = run(["table", "--poly", "x1^2+x2^2", "--dmin", "2", "--dmax", "0"])
    assert code == 2
    code, _, err = run(["table", "--poly", "x1^2+x2^2", "--dmin", "2", "--dmax", "0", "--monomials"])
    assert code == 2 and "empty degree window" in err


@pytest.mark.parametrize("extra", [[], ["--monomials"]])
def test_table_walks_the_fixed_classes_once(monkeypatch, extra):
    # a table is one join, and the degree-2 flag and the --monomials
    # listing reuse the window's
    joins = []
    join = engine.join
    monkeypatch.setattr(engine, "join", lambda *args, **kwargs: joins.append(args) or join(*args, **kwargs))
    compute_table(parse(LAUFER1), (-12, 4))
    assert len(joins) == 1
    joins.clear()
    code, _, err = run(["table", "--poly", LAUFER1, "--dmin", "-12", "--dmax", "4", *extra])
    assert code == 0, err
    assert len(joins) == 1


NONSTANDARD = "x1*x2+x2^2*x3^2+x3^3"  # no atom matching


@pytest.mark.parametrize(
    "argv",
    [
        # a window without degree 2 also takes the degree-2 flag's table
        ["table", "--poly", LAUFER1, "--dmin", "-4", "--dmax", "1"],
        ["table", "--poly", LAUFER1, "--dmin", "-4", "--dmax", "4", "--monomials"],
        ["probe-small-res", "--poly", LAUFER1, "--dmin", "-4"],
        ["table", "--poly", NONSTANDARD, "--dmin", "-4", "--dmax", "1", "--allow-nonstandard"],
        ["table", "--poly", NONSTANDARD, "--dmin", "-4", "--dmax", "4", "--monomials", "--allow-nonstandard"],
        ["probe-small-res", "--poly", NONSTANDARD, "--dmin", "-4", "--allow-nonstandard"],
    ],
)
def test_a_command_reads_the_group_of_a_once(monkeypatch, argv):
    # the weight check, the table, the degree-2 flag and the document's
    # weights and |ker chi| all read the one context's cyclic factors
    calls, factors = [], poly._factors
    counting = lambda rows, walks: calls.append(rows) or factors(rows, walks)
    monkeypatch.setattr(poly, "_factors", counting)
    monkeypatch.setattr(symmetry, "_factors", counting)
    code, out, err = run(argv)
    assert code == 0 and out, err
    assert len(calls) == 1


def _refuse_tables(monkeypatch):
    for name in ("compute_table", "class_contributions"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran"))


@pytest.mark.parametrize("extra", [[], ["--monomials"]])
def test_table_checks_the_weight_system_before_any_table(monkeypatch, extra):
    # the loop x1^3*x2+x2*x1 solves A q = 1 with q = (0, 1)
    _refuse_tables(monkeypatch)
    code, out, err = run(["table", "--poly", "x1^3*x2+x2*x1", "--dmin", "-2", "--dmax", "-1", *extra])
    assert (code, out, err) == (2, "", "error: weight system (0, 1);1 is not positive\n")


def test_probe_checks_the_weight_system_before_any_table(monkeypatch):
    _refuse_tables(monkeypatch)
    code, out, err = run(["probe-small-res", "--poly", "x1^3*x2+x2*x1", "--dmin", "-4"])
    assert (code, out, err) == (2, "", "error: weight system (0, 1);1 is not positive\n")


@pytest.mark.parametrize("text", [LAUFER1, "x1^5+x2^3", "x2^4+x1^2*x2+x3^2"])
@pytest.mark.parametrize("window", [(-12, 4), (2, 2), (3, 8), (-6, 1)])
def test_document_hh2_flag_matches_engine(text, window):
    code, out, err = run(
        ["table", "--poly", text, "--dmin", str(window[0]), "--dmax", str(window[1]), "--format", "json"]
    )
    assert code == 0, err
    assert json.loads(out)["hh2_vanishes"] is hh2_vanishes(parse(text))


def test_table_engine_error_exit_code():
    code, _, err = run(["table", "--poly", "x1^2+x2^2", "--dmin", "0", "--dmax", "0"])
    assert code == 3
    assert "window" in err


def test_running_out_of_memory_is_an_engine_error_not_a_verdict(monkeypatch):
    # uncaught, a MemoryError would exit 1, which reads as "distinguished"
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "compute_table", exhausted)
    code, out, err = run(["table", "--poly", LAUFER1, "--dmin", "-4", "--dmax", "4"])
    assert (code, out, err) == (3, "", "error: out of memory\n")


@pytest.mark.parametrize("command", [["table", "--dmax", "2"], ["probe-small-res"]])
def test_allow_nonstandard_warns_on_err_with_warnings_as_errors(command):
    # one fixed line on the err stream, not a source path, and no traceback under -W error
    argv = command + ["--poly", "x1*x2+x2^2*x3^2+x3^3", "--dmin", "-4", "--allow-nonstandard"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert (code, err) == (0, "warning: polynomial is not a sum of Fermat/chain/loop atoms\n")
    assert out


def test_compare_self_and_distinguished(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _, out, _ = run(["table", "--poly", "x1^2+x2^2+x3^2+x4^4", "--dmin", "-8", "--dmax", "-1", "--format", "json"])
    a.write_text(out)
    _, out2, _ = run(["table", "--poly", LAUFER1, "--dmin", "-8", "--dmax", "-1", "--format", "json"])
    b.write_text(out2)
    code, msg, _ = run(["compare", str(a), str(a)])
    assert code == 0 and "c = 1" in msg
    code, msg, _ = run(["compare", str(a), str(b)])
    assert code == 1 and "distinguished" in msg


def test_compare_disjoint_windows(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _, out, _ = run(["table", "--poly", LAUFER1, "--dmin", "-8", "--dmax", "-4", "--format", "json"])
    a.write_text(out)
    _, out2, _ = run(["table", "--poly", LAUFER1, "--dmin", "-2", "--dmax", "2", "--format", "json"])
    b.write_text(out2)
    code, _, err = run(["compare", str(a), str(b)])
    assert code == 4


def test_compare_reads_only_degrees_with_cells(tmp_path):
    # a window of 10^9 degrees with five cells answers at once
    low = -10**9
    cells = [
        {"d": low, "q": 3, "dim": 1}, {"d": -7, "q": 0, "dim": 1}, {"d": -7, "q": 2, "dim": 2},
        {"d": -1, "q": 4, "dim": 1}, {"d": 5, "q": 1, "dim": 3},
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(json.dumps({"schema": "v1", "window": [low, 8], "cells": cells}))
    code, msg, err = run(["compare", *map(str, paths)])
    assert (code, err) == (0, "")
    assert msg == f"window compared: [{low}, -1]\nequivalent up to scale c = 1\n"


def test_compare_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "v0"}')
    code, _, err = run(["compare", str(bad), str(bad)])
    assert code == 2 and "v1" in err


def test_compare_without_negative_overlap_is_inconclusive(tmp_path):
    a = tmp_path / "a.json"
    _, out, _ = run(["table", "--poly", LAUFER1, "--dmin", "0", "--dmax", "4", "--format", "json"])
    a.write_text(out)
    code, msg, _ = run(["compare", str(a), str(a)])
    assert code == 4
    assert msg.endswith("inconclusive: no negative-degree overlap to compare\n")


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b'{"schema": "v1", "window": [-4, 0], "cells": [{"d": -2, "q": 1' + b"0" * 4999 + b', "dim": 1}]}',
        b"[" * 100000,
    ],
    ids=["not-utf8", "int-past-digit-limit", "nested-past-recursion-limit"],
)
def test_compare_unreadable_document_is_schema_error(tmp_path, content):
    # json.load raises ValueError or RecursionError here, not JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(["compare", str(bad), str(bad)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read table document {bad}: ")


GOOD_CELLS = [{"d": -2, "q": 4, "dim": 1}]


@pytest.mark.parametrize(
    "window, cells, message",
    [
        ([2, -2], [], "empty window [2, -2]"),
        ([-4.0, 0], GOOD_CELLS, "-4.0 is not an integer"),
        ([-4, 0], [{"d": -2, "q": 3.7, "dim": 1}], "3.7 is not an integer"),
        ([-4, 0], [{"d": "-2", "q": 4, "dim": 1}], "'-2' is not an integer"),
        ([-4, 0], [{"d": -2, "q": 4, "dim": True}], "True is not an integer"),
        ([-4, 0], [{"d": -2, "q": 4, "dim": 0}], "cell (-2, 4) has dim 0 <= 0"),
        ([-4, 0], [{"d": -2, "q": 4, "dim": -1}], "cell (-2, 4) has dim -1 <= 0"),
        ([-4, 0], GOOD_CELLS + GOOD_CELLS, "duplicate cell (-2, 4)"),
        ([-4, 0], [{"d": 3, "q": 4, "dim": 1}], "cell (3, 4) lies outside the window"),
    ],
    ids=[
        "dmin-above-dmax", "float-window", "float-weight", "string-degree",
        "bool-dim", "zero-dim", "negative-dim", "duplicate-cell", "cell-outside-window",
    ],
)
def test_compare_rejects_malformed_document(tmp_path, window, cells, message):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema": "v1", "window": [-4, 0], "cells": GOOD_CELLS}))
    assert run(["compare", str(good), str(good)])[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "v1", "window": window, "cells": cells}))
    assert run(["compare", str(good), str(bad)]) == (2, "", f"error: {bad}: {message}\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema": "v1", "window": [-4, 0]}, "missing key 'cells'"),
        ({"schema": "v1", "window": [-4, 0], "cells": [{"d": -2, "dim": 1}]}, "malformed window or cells"),
        ({"schema": "v1", "window": [-4, 0, 2], "cells": GOOD_CELLS}, "malformed window or cells"),
        ({"schema": "v1", "window": -4, "cells": GOOD_CELLS}, "malformed window or cells"),
    ],
    ids=["no-cells", "cell-without-weight", "three-bounds", "window-not-a-list"],
)
def test_compare_rejects_document_of_the_wrong_shape(tmp_path, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["compare", str(bad), str(bad)]) == (2, "", f"error: {bad}: {message}\n")


def test_table_restrict_outside_its_window_is_a_window_mismatch():
    table = compute_table(parse(LAUFER1), (-4, 2))
    assert table.restrict(-4, 2) == table
    for dmin, dmax in ((-5, 2), (-4, 3)):
        with pytest.raises(WindowMismatch, match=rf"^window \({dmin}, {dmax}\) is not inside \(-4, 2\)$"):
            table.restrict(dmin, dmax)


def test_probe_small_res():
    code, out, _ = run(["probe-small-res", "--poly", "x1^3*x2+x2^5*x3+x3^2+x4^2", "--dmin", "-12"])
    assert code == 0 and "constant rank 1" in out
    code, out, _ = run(["probe-small-res", "--poly", "x1^2+x2^2+x3^2+x4^3", "--dmin", "-12"])
    assert code == 1 and "non-constant" in out
    code, out, _ = run(["probe-small-res", "--poly", "x1^2+x2^3+x3^3+x4^6", "--dmin", "-12"])
    assert code == 0 and "constant rank 4" in out


def test_probe_of_a_million_degrees_in_a_child_process():
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    argv = ["probe-small-res", "--poly", "x1^2+x2^2+x3^3+x4^3", "--dmin", "-1000000"]
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "mfhh.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert res.returncode == 0 and b"constant rank 2 in every negative degree" in res.stdout


@pytest.mark.parametrize("poly, rank", [("x1^2+x2^2+x3^3+x4^3", 2), ("x1^2+x2^3+x3^5+x4^30", 8)])
def test_probe_of_a_window_longer_than_sys_maxsize_in_a_child_process(poly, rank):
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    argv = ["probe-small-res", "--poly", poly, "--dmin", "-100000000000000000000"]
    res = subprocess.run([sys.executable, "-m", "mfhh.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, timeout=60)
    assert res.returncode == 0 and res.stderr == b""
    assert res.stdout.startswith(b"window probed: [-100000000000000000000, -1]\n")
    assert f"constant rank {rank} in every negative degree".encode() in res.stdout


def _wide(argv):
    """(seconds, result) of one mfhh.cli child process."""
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "mfhh.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, timeout=60)
    return time.perf_counter() - start, res


def test_table_of_150_variables_is_an_engine_error_in_a_child_process():
    # a table takes no census; its join's larger side, the product of 76
    # atoms' factors of 2 exponents, is refused before any product is built
    poly = "+".join(f"x{i}^2" for i in range(1, 151))
    seconds, res = _wide(["table", "--poly", poly, "--dmin", "-2", "--dmax", "2"])
    assert seconds < 2
    assert res.returncode == 3 and res.stdout == b"" and b"Traceback" not in res.stderr
    assert res.stderr == f"error: a side of the join would hold {2**76} products, more than 2^21\n".encode()


def test_table_of_61_variables_is_an_engine_error_in_a_child_process():
    # the 2^61 fixed sets of the Fermat atoms are no longer listed for a
    # table, but its join's larger side would hold 2^31 products
    poly = "+".join(f"x{i}^2" for i in range(1, 62))
    seconds, res = _wide(["table", "--poly", poly, "--dmin", "0", "--dmax", "0"])
    assert seconds < 2
    assert res.returncode == 3 and res.stdout == b"" and b"Traceback" not in res.stderr
    assert res.stderr == f"error: a side of the join would hold {2**31} products, more than 2^21\n".encode()


def test_listing_of_61_variables_is_refused_by_the_join_in_a_child_process():
    # a listing takes no census either: its join is the table's, and is
    # refused before any of its 2^31 products a side is built
    poly = "+".join(f"x{i}^2" for i in range(1, 62))
    seconds, res = _wide(["table", "--poly", poly, "--dmin", "0", "--dmax", "0", "--monomials"])
    assert seconds < 2
    assert res.returncode == 3 and res.stdout == b"" and b"Traceback" not in res.stderr
    assert res.stderr == f"error: a side of the join would hold {2**31} products, more than 2^21\n".encode()


def test_listing_of_a_22_variable_loop_matches_its_table_in_a_child_process():
    # the loop's ring has dimension 2^22: a listing joins the loop's box as
    # the table does and renames only its hits, with no staircase grown
    poly = "+".join(f"x{i}^2*x{i % 22 + 1}" for i in range(1, 23))
    argv = ["table", "--poly", poly, "--dmin", "-4", "--dmax", "4", "--format", "json"]
    seconds, res = _wide(argv + ["--monomials"])
    assert seconds < 2
    assert res.returncode == 0 and res.stderr == b""
    _, table = _wide(argv)
    assert table.returncode == 0
    cells = json.loads(res.stdout)["cells"]
    assert cells and cells == json.loads(table.stdout)["cells"]


def test_table_of_24_squares_in_a_child_process():
    # 2^24 fixed sets are more than a census lists, but the table counts
    # only the fixed sets its join finds, 2^12 products a side
    poly = "+".join(f"x{i}^2" for i in range(1, 25))
    seconds, res = _wide(["table", "--poly", poly, "--dmin", "-2", "--dmax", "2", "--format", "json"])
    assert seconds < 2
    assert res.returncode == 0 and res.stderr == b""
    doc = json.loads(res.stdout)
    assert doc["ker_chi_order"] == 2**24
    assert doc["cells"] == [{"d": 0, "dim": 1, "q": 0}, {"d": 1, "dim": 1, "q": 0}]


def test_table_of_a_huge_exponent_is_an_engine_error_in_a_child_process():
    # x4's factor would hold 10^8 exponents: refused before it is built
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    argv = ["table", "--poly", "x1^2+x2^3+x3^5+x4^99999999", "--dmin", "-2", "--dmax", "2"]
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "mfhh.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert res.returncode == 3 and res.stdout == b""
    assert res.stderr == b"error: x4^99999999 needs a factor of 99999999 exponents, more than 2^21\n"


def test_table_of_a_huge_disconnected_restriction_is_an_engine_error_in_a_child_process():
    # the block has no atom matching; its closed set x2..x4 restricts to a
    # chain and a Fermat atom, which take their boxes (1561 * 1999 monomials)
    # with no Buchberger run, and the closed set x1 alone has an infinite
    # ring, so the table ends in that error before its join
    argv = ["table", "--poly", "x1^2*x2^2*x4^2+x2^40*x3+x3^40+x4^2000", "--allow-nonstandard",
            "--dmin", "-2", "--dmax", "2"]
    seconds, res = _wide(argv)
    assert seconds < 2
    assert res.returncode == 3 and res.stdout == b""
    assert res.stderr == (b"warning: polynomial is not a sum of Fermat/chain/loop atoms\n"
                          b"error: Jacobian ring of the restriction to (1,) is infinite-dimensional\n")


@pytest.mark.parametrize("k, blocks", [(20, 1), (18, 2)])
def test_table_of_no_atom_chains_ends_in_its_error_in_a_child_process(k, blocks):
    # x1^2*x2^2 + x2^2*x3 + .. + x_(k-1)^2*x_k + x_k^3 per block: every
    # proper closed set is a chain and takes its boxes, the whole block's
    # ring is infinite, and the table stops before its join
    terms = [f"x{o + i}^2*x{o + i + 1}" + "^2" * (i == 1) for o in range(0, k * blocks, k) for i in range(1, k)]
    terms += [f"x{o + k}^3" for o in range(0, k * blocks, k)]
    seconds, res = _wide(["table", "--poly", "+".join(terms), "--allow-nonstandard", "--dmin", "-2", "--dmax", "2"])
    assert seconds < 1
    assert res.returncode == 3 and res.stdout == b""
    assert res.stderr.endswith(f"error: Jacobian ring of the restriction to {tuple(range(1, k * blocks + 1))} "
                               "is infinite-dimensional\n".encode())


def test_probe_empty_window_is_input_error():
    code, _, err = run(["probe-small-res", "--poly", LAUFER1, "--dmin", "0"])
    assert code == 2 and "empty degree window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--poly", LAUFER1, "--dmin", "-2", "--dmax", "2", "--threads", "2"],
        ["probe-small-res", "--poly", LAUFER1, "--dmin", "-2", "--threads", "2"],
    ],
)
def test_threads_option_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_golden_cli():
    code, out, _ = run(["golden", "--family", "bp_cE6", "--k", "1"])
    assert code == 0 and "expected 66, got 66" in out
    code, out, _ = run(["golden", "--family", "can_cA", "--l", "2", "--k", "1"])
    assert code == 1 and "MISMATCH" in out
    code, _, err = run(["golden", "--family", "nosuch", "--k", "1"])
    assert code == 2
    code, _, err = run(["golden", "--family", "bp_cA", "--k", "1"])
    assert code == 2  # missing --l


@pytest.mark.parametrize("family", ["bp_cA", "can_cA", "bp_cD4", "laufer", "bp_cE6", "bp_cE8"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_golden_rejects_k_below_one(family, k):
    # k = 0 would build an unparseable x4^0 (bp_cD4) or drop a factor (laufer)
    code, out, err = run(["golden", "--family", family, "--l", "3", "--k", k])
    assert code == 2 and out == ""
    assert f"family {family!r} needs k >= 1" in err


@pytest.mark.parametrize("l", ["0", "-2"])
def test_golden_rejects_bp_ca_l_below_one(l):
    code, out, err = run(["golden", "--family", "bp_cA", "--l", l, "--k", "1"])
    assert code == 2 and out == ""
    assert "family 'bp_cA' needs l >= 1" in err
    code, out, _ = run(["golden", "--family", "bp_cA", "--l", "1", "--k", "1"])
    assert code == 0 and "MISMATCH" not in out


def test_pretty_output_contains_metadata():
    code, out, _ = run(["table", "--poly", LAUFER1, "--dmin", "-4", "--dmax", "4"])
    assert code == 0
    assert "transpose" in out and "d0=-8" in out and "HH^2 vanishes: True" in out


def test_pretty_table_reads_only_degrees_with_cells(monkeypatch):
    # the pretty writer reads the document's cells, never the table one degree at a time
    monkeypatch.setattr(BigradedTable, "row", lambda self, d: pytest.fail("row read"))
    monkeypatch.setattr(BigradedTable, "weights", lambda self, d: pytest.fail("weights read"))
    quintic = "x1^5+x2^5+x3^5+x4^5"
    code, out, _ = run(["table", "--poly", quintic, "--dmin", "-10000000", "--dmax", "8"])
    assert code == 0
    held = sorted({d for d, _ in compute_table(parse(quintic), (-10**7, 8)).cells}, reverse=True)
    assert [int(line.split("|")[0]) for line in out.splitlines()[6:]] == held


def test_pretty_columns_are_as_wide_as_their_widest_labels():
    # six- and seven-character degrees, and weights that filled their columns
    code, out, _ = run(["table", "--poly", "x1^2+x2^2+x3^3+x4^3", "--dmin", "-100000", "--dmax", "-99998"])
    assert code == 0
    assert out.splitlines()[4:] == [
        "    deg | 74999 75000 75001 | total",
        "-" * 35,
        " -99998 |     2     .     . |     2",
        " -99999 |     .     1     1 |     2",
        "-100000 |     .     1     1 |     2",
    ]
    # labels that fit keep the columns as they were
    code, out, _ = run(["table", "--poly", LAUFER1, "--dmin", "-2", "--dmax", "1"])
    assert code == 0
    assert out.splitlines()[4:] == [
        "deg |    0    4 | total",
        "-" * 23,
        "  1 |    1    . |     1",
        "  0 |    1    . |     1",
        " -1 |    .    1 |     1",
        " -2 |    .    1 |     1",
    ]


def test_pretty_output_of_an_empty_table():
    code, out, _ = run(["table", "--poly", "x1^2+x2^2", "--dmin", "2", "--dmax", "5"])
    assert code == 0
    assert out.endswith("(table is empty on this window)\n")


def test_module_entry_point(tmp_path):
    # `python -m mfhh.cli` runs sys.exit(main()) on the real stdout and exit code
    src = os.path.dirname(os.path.dirname(mfhh.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run_module(argv):
        return subprocess.run([sys.executable, "-m", "mfhh.cli", *argv], env=env, capture_output=True)

    argv = ["table", "--poly", "x1^2+x2^3", "--dmin", "-2", "--dmax", "2", "--format", "csv"]
    res = run_module(argv)
    code, out, _ = run(argv)
    assert code == 0
    assert (res.returncode, res.stdout, res.stderr) == (0, out.encode(), b"")
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "v0"}')
    res = run_module(["compare", str(bad), str(bad)])
    assert res.returncode == 2 and res.stdout == b""
    assert res.stderr == f"error: {bad}: not a v1 table document\n".encode()


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            [],
            "usage: mfhh [-h] [--version] {table,compare,probe-small-res,golden} ...\n"
            "\n"
            "Exact bigraded cohomology dimension tables for invertible polynomials.\n"
            "\n"
            "positional arguments:\n"
            "  {table,compare,probe-small-res,golden}\n"
            "    table               compute a bigraded dimension table\n"
            "    compare             scale-equivalence comparison of two table documents\n"
            "    probe-small-res     constant-rank probe on negative degrees\n"
            "    golden              check a built-in family against its closed forms\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --version             show program's version number and exit\n"
        ),
        (
            ["table"],
            "usage: mfhh table [-h] --poly POLY --dmin DMIN --dmax DMAX\n"
            "                  [--format {pretty,json,csv}] [--monomials]\n"
            "                  [--allow-nonstandard]\n"
            "\n"
            "The table of w is SH of the Milnor fibre of w^T, its Berglund-Huebsch\n"
            "transpose.\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --poly POLY           polynomial, e.g. 'x1^3*x2+x2^3*x3+x3^2+x4^2'\n"
            "  --dmin DMIN\n"
            "  --dmax DMAX\n"
            "  --format {pretty,json,csv}\n"
            "  --monomials           include the contribution listing\n"
            "  --allow-nonstandard   accept non Fermat/chain/loop inputs (warning only)\n"
        ),
        (
            ["compare"],
            "usage: mfhh compare [-h] a b\n"
            "\n"
            "positional arguments:\n"
            "  a\n"
            "  b\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
        ),
        (
            ["probe-small-res"],
            "usage: mfhh probe-small-res [-h] --poly POLY --dmin DMIN [--allow-nonstandard]\n"
            "\n"
            "The table of w is SH of the Milnor fibre of w^T, its Berglund-Huebsch\n"
            "transpose.\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --poly POLY\n"
            "  --dmin DMIN\n"
            "  --allow-nonstandard\n"
        ),
        (
            ["golden"],
            "usage: mfhh golden [-h] --family FAMILY [--l L] [--k K]\n"
            "\n"
            "options:\n"
            "  -h, --help       show this help message and exit\n"
            "  --family FAMILY  one of: bp_cA, bp_cD4, bp_cE6, bp_cE8, can_cA, laufer\n"
            "  --l L\n"
            "  --k K\n"
        ),
    ],
)
def test_help_text_is_pinned(argv, text, monkeypatch, capsys):
    # argparse wraps help to the terminal width, so fix it
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == text
