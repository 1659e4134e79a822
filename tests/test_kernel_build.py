"""Building and loading the C kernels: the fallback to the Python kernels,
the library cache, and concurrent builders.

Each test imports a copy of the package, with an empty cache, in a fresh
interpreter, so it selects between the C and the Python kernels as a
fresh install does.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from memchua import kernels

PACKAGE = Path(kernels.__file__).parent
CC = kernels._compiler()
needs_cc = pytest.mark.skipif(shutil.which(CC) is None,
                              reason="no C compiler on PATH")

PROBE = """
import json
import memchua
from memchua import kernels
print(json.dumps([memchua.BACKEND, kernels.C_BUILD_ERROR]))
"""
TIMEOUT_S = 300


def copy_package(tmp_path):
    root = tmp_path / "site"
    shutil.copytree(PACKAGE, root / "memchua",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def start_probe(root, **env):
    env = {**os.environ, "PYTHONPATH": str(root),
           "PYTHONDONTWRITEBYTECODE": "1", **env}
    return subprocess.Popen([sys.executable, "-c", PROBE], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            encoding="utf-8")


def finish_probe(proc):
    """(BACKEND, C_BUILD_ERROR) printed by a probe."""
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    backend, reason = json.loads(out)
    return backend, reason


def probe(root, **env):
    return finish_probe(start_probe(root, **env))


def libraries(root):
    return sorted((root / "memchua" / "__pycache__").iterdir())


@needs_cc
def test_source_compiles_with_warnings_as_errors(tmp_path):
    """The flags of CI's strict compile step, so that a warning only that
    step would report (-Wpsabi for a vector returned by value, say) fails
    here too."""
    cmd = [CC, "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-Wall",
           "-Wextra", "-Wshadow", "-Wconversion", "-Wdouble-promotion",
           "-Wcast-qual", "-Wstrict-prototypes", "-Wundef", "-Wvla",
           "-Werror", "-o", str(tmp_path / "k.so"), str(kernels._C_SOURCE),
           "-lm"]
    proc = subprocess.run(cmd, capture_output=True, encoding="utf-8",
                          timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr


def test_missing_compiler_falls_back_to_python(tmp_path):
    if os.path.isabs(CC):
        pytest.skip(f"the compiler {CC} is found without PATH")
    root = copy_package(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    backend, reason = probe(root, PATH=str(empty))
    assert backend == "python"
    assert reason.startswith(f"cannot run {CC}:")


@needs_cc
def test_compile_error_falls_back_to_python(tmp_path):
    root = copy_package(tmp_path)
    with open(root / "memchua" / "_kernels.c", "a", encoding="utf-8") as fh:
        fh.write("\nthis is not C;\n")
    backend, reason = probe(root)
    assert backend == "python"
    assert "exited 1" in reason and "this is not C" in reason
    # the failed build leaves no file behind
    assert libraries(root) == []


@needs_cc
def test_cache_is_built_once_and_reused(tmp_path):
    root = copy_package(tmp_path)
    assert probe(root) == ("c", None)
    [lib] = libraries(root)
    assert lib.name.startswith("_kernels-") and lib.suffix == ".so"
    stat = lib.stat()
    assert probe(root) == ("c", None)
    assert libraries(root) == [lib]
    assert lib.stat().st_ino == stat.st_ino
    assert lib.stat().st_mtime_ns == stat.st_mtime_ns


@needs_cc
def test_unwritable_cache_builds_in_a_private_directory(tmp_path):
    root = copy_package(tmp_path)
    # a file where the cache directory should be: no directory can be made
    # there, whoever runs the test
    (root / "memchua" / "__pycache__").write_text("", encoding="utf-8")
    private = tmp_path / "tmp"
    private.mkdir()
    assert probe(root, TMPDIR=str(private)) == ("c", None)
    assert (root / "memchua" / "__pycache__").is_file()
    assert list(private.iterdir()) == []


@needs_cc
def test_truncated_cache_is_rebuilt(tmp_path):
    root = copy_package(tmp_path)
    assert probe(root) == ("c", None)
    [lib] = libraries(root)
    whole = lib.read_bytes()
    lib.write_bytes(whole[:100])
    assert probe(root) == ("c", None)
    assert libraries(root) == [lib]
    assert lib.stat().st_size == len(whole)


@needs_cc
def test_concurrent_builders_share_one_file(tmp_path):
    root = copy_package(tmp_path)
    procs = [start_probe(root) for _ in range(3)]
    assert [finish_probe(p) for p in procs] == [("c", None)] * 3
    [lib] = libraries(root)
    assert lib.suffix == ".so"


@needs_cc
def test_build_removes_stale_libraries(tmp_path):
    root = copy_package(tmp_path)
    cache = root / "memchua" / "__pycache__"
    cache.mkdir()
    toolchain = kernels._library_path(CC, b"").name.split("-")[1]
    # an earlier build for this toolchain
    stale = [cache / f"_kernels-{toolchain}-0000000000000000.so"]
    # a build for another compiler or machine sharing the tree, and another
    # builder's library, not yet renamed into place
    kept = [cache / "_kernels-ffffffffffffffff-0000000000000000.so",
            cache / "_kernels-1111111111111111.so.x1y2z3.tmp"]
    for path in stale + kept:
        path.write_bytes(path.name.encode())
    assert probe(root) == ("c", None)
    assert not any(path.exists() for path in stale)
    assert all(path.read_bytes() == path.name.encode() for path in kept)
    [lib] = set(libraries(root)) - set(kept)
    assert lib.name.startswith(f"_kernels-{toolchain}-")
    assert lib.suffix == ".so"
    # the published library is the one a later import loads
    assert probe(root) == ("c", None)
    assert set(libraries(root)) == {lib, *kept}
