"""Every function under src/ is entered by a session of the product commands.

A tiny in-process session runs `run`, `norms`, `fit`, `report` and
`selftest` through the CLI under sys.setprofile and threading.setprofile:
a block of three paths, a lone multiplicative path from a curl start with
snapshots, a run whose directory comes from PSTOKESLAB_OUT, and a Wiener
study.  Each def and lambda of src/pstokeslab that the session never
enters fails the test, apart from ALLOWED: code that no product path
calls is wired in or deleted.  A second test applies the same rule to
dataclass fields: each one is read somewhere in src/ or bench/.
"""

import ast
import os
import pathlib
import sys
import threading

import pytest

import pstokeslab
from pstokeslab import cli, potential

SRC = pathlib.Path(pstokeslab.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# (file, qualified name) -> why the session may leave it unentered
ALLOWED = {
    ("runner.py", "_setup_failure_summary"): "runs only when a block's set-up raises",
    ("runner.py", "_remove_path_files"): "runs only when writing a path's files raises",
    ("grid.py", "Grid.__hash__"): "keeps a Grid hashable beside its __eq__",
    ("grid.py", "Grid.__repr__"): "names the grid in a debugger or a failed assertion",
}


def src_functions():
    """(file, qualified name, first line, code name) of each def and lambda.

    The first line is that of the code object: the first decorator's
    line for a decorated function.
    """
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((path.name, prefix + child.name, first, child.name))
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.Lambda):
                out.append((path.name, prefix + "<lambda>", child.lineno, "<lambda>"))
                visit(child, path, prefix + "<lambda>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def _write_config(path, **fields):
    path.write_text("".join(f"{key}={value}\n" for key, value in fields.items()))
    return str(path)


def _session(tmp_path):
    """The product commands on tiny inputs; every exit code must be 0."""
    dt = repr(2.0**-8)
    common = dict(grid_n=8, p=2.5, kappa=0.01, dt=dt, T=repr(32 * 2.0**-8),
                  noise_modes=4, workers=1)
    block = _write_config(tmp_path / "block.cfg", kind="velocity_regularity", paths=3,
                          master_seed=1, **common)
    lone = _write_config(tmp_path / "lone.cfg", kind="pressure_regularity", paths=1,
                         master_seed=2, noise_rho="inv_one_plus_s2", noise_flavor="gradient",
                         u0_kind="curl", store_every=8, **common)
    wiener = _write_config(tmp_path / "wiener.cfg", kind="wiener_dichotomy", paths=2,
                           wiener_coarsest_exp=6, wiener_finest_exp=8, workers=1)
    block_dir = str(tmp_path / "block")
    commands = [
        ["run", "--config", block, "--out", block_dir],
        ["norms", "--dir", block_dir, "--orlicz", "2,phi2,nq:3", "--alpha", "0.25,0.5"],
        ["fit", "--dir", block_dir, "--orlicz", "2,phi2"],
        ["report", "--dir", block_dir],
        # no --out: the directory comes from PSTOKESLAB_OUT
        ["run", "--config", lone],
        ["run", "--config", wiener, "--out", str(tmp_path / "wiener")],
        ["report", "--dir", str(tmp_path / "wiener")],
        ["selftest"],
    ]
    return [(command[0], cli.main(command)) for command in commands]


def test_every_src_function_is_entered_by_the_product_commands(tmp_path, monkeypatch):
    monkeypatch.setenv("PSTOKESLAB_OUT", str(tmp_path / "out_root"))
    potential._series_coeffs.cache_clear()  # earlier tests may have filled it
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    saved = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = _session(tmp_path)
    finally:
        sys.setprofile(saved[0])
        threading.setprofile(saved[1])
    assert all(code == 0 for _, code in codes), codes
    assert os.path.isdir(tmp_path / "out_root" / "pressure_regularity_n8_seed2")

    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    missing = [
        f"{name}:{qualname} (line {line})"
        for name, qualname, line, code_name in src_functions()
        if (os.path.realpath(SRC / name), line, code_name) not in seen
        and (name, qualname) not in ALLOWED
    ]
    assert not missing, "never entered by the product commands: " + ", ".join(missing)


def test_allow_list_names_existing_functions():
    # a stale entry would let a new unreached function of that name pass
    present = {(name, qualname) for name, qualname, _, _ in src_functions()}
    assert set(ALLOWED) <= present, set(ALLOWED) - present


# dataclass -> why its fields may go unread by src/ and bench/
UNREAD_FIELDS_ALLOWED = {
    "RunManifest": "asdict writes it whole to manifest.json for readers outside the program",
}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "attr", getattr(target, "id", None)) == "dataclass"


def dataclass_fields():
    """(file, class, field) of each annotated field of each @dataclass in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                out.extend(
                    (path.name, node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
    return out


def test_every_dataclass_field_is_read():
    """Each dataclass field in src/ is read as an attribute somewhere in
    src/ or bench/, apart from the classes of UNREAD_FIELDS_ALLOWED: a
    value that nothing reads is deleted with the code that fills it.

    The test matches names, not objects: a field passes when any
    attribute of that name is read, so a field whose name another
    object's attribute shares (an `alpha`, a `dt`) can go unread unseen.
    """
    read = {
        node.attr
        for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = dataclass_fields()
    unread = [
        f"{name}:{cls}.{attr}"
        for name, cls, attr in found
        if attr not in read and cls not in UNREAD_FIELDS_ALLOWED
    ]
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)
    # a stale entry would let a new class of that name keep unread fields
    assert set(UNREAD_FIELDS_ALLOWED) <= {cls for _, cls, _ in found}


@pytest.mark.parametrize("qualname", ["Stepper._run_block.record", "<lambda>"])
def test_src_functions_sees_nested_defs_and_lambdas(qualname):
    assert any(q.endswith(qualname) for _, q, _, _ in src_functions())
