"""What a process loads: a fit and its predictions import no module that
only reports and few-shot draws use and no thread-pool machinery, ``lftc
eval`` no OpenSSL, and libzstd is found by its soname before the
platform's library search runs.

Each check runs in a fresh interpreter, because pytest and Hypothesis
import ``hashlib`` themselves.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

from lftc import zstd_bindings as zb

from conftest import BUNDLED_DIGESTS, DATA_DIR, REPO_ROOT

TRAIN, TEST = DATA_DIR / "synthetic_train.csv", DATA_DIR / "synthetic_test.csv"

# hashlib loads OpenSSL's libcrypto, statistics loads decimal and fractions,
# and ctypes.util loads subprocess.
REPORT_ONLY_MODULES = ("_hashlib", "hashlib", "ctypes.util", "subprocess", "statistics")

# concurrent.futures loads logging, queue and traceback; the lane pool needs
# only threading and _queue.
THREAD_POOL_MODULES = ("concurrent.futures", "logging", "queue", "traceback")

_FIT_AND_PREDICT = """
import json, sys
import lftc
from lftc.classifier import PipelineConfig, predict_corpus
train, test = lftc.load_csv(sys.argv[1]), lftc.load_csv(sys.argv[2])
predictions, _ = predict_corpus(train, test, PipelineConfig())
assert len(predictions) == len(test)
loaded = [name for name in sys.argv[3:] if name in sys.modules]
print(json.dumps({"loaded": loaded, "digest": train.digest()}))
"""

# Runs argv[2:] as an lftc command line, then prints its exit code and which
# of the comma-separated modules in argv[1] it loaded.
_CLI = """
import json, sys
from lftc.cli import main
code = main(sys.argv[2:])
loaded = [name for name in sys.argv[1].split(",") if name in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}))
"""

# Runs with ctypes.CDLL refusing libzstd's soname and find_library("zstd")
# returning argv[1] (None when empty). With more arguments it runs them as
# an lftc command line; otherwise it prints what _load opened and the size
# of one dictionary score, or the error _load raised.
_LOAD_WITHOUT_SONAME = """
import ctypes, ctypes.util, json, sys
real_cdll, found = ctypes.CDLL, sys.argv[1] or None
opened = []

def cdll(name, *args, **kwargs):
    opened.append(name)
    if name == "libzstd.so.1":
        raise OSError("libzstd.so.1: cannot open shared object file")
    return real_cdll(name, *args, **kwargs)

ctypes.CDLL = cdll
ctypes.util.find_library = lambda name: found if name == "zstd" else None
from lftc import zstd_bindings as zb
if sys.argv[2:]:
    from lftc.cli import main
    sys.exit(main(sys.argv[2:]))
try:
    zb._load()
except zb.CompressionError as exc:
    print(json.dumps({"opened": opened, "error": str(exc)}))
else:
    size = zb.compressed_size_with_cdict(b"a query of the digest " * 8,
                                         zb.CDict(b"the digest of a query " * 8, 3, 10))
    print(json.dumps({"opened": opened, "size": size}))
"""


def _python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def _libzstd_path() -> str:
    """The file this process mapped for libzstd."""
    zb.version()
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "libzstd" in line}
    assert len(paths) == 1, paths
    return paths.pop()


@functools.cache
def _fit_and_predict() -> dict:
    proc = _python(_FIT_AND_PREDICT, TRAIN, TEST, *REPORT_ONLY_MODULES, *THREAD_POOL_MODULES)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_fit_and_its_predictions_load_no_report_only_module():
    out = _fit_and_predict()
    assert not set(out["loaded"]) & set(REPORT_ONLY_MODULES)
    # The digest, made after the predictions, gives the same sha256.
    assert out["digest"] == BUNDLED_DIGESTS[TRAIN.name]


def test_a_fit_and_its_predictions_load_no_thread_pool_module():
    assert not set(_fit_and_predict()["loaded"]) & set(THREAD_POOL_MODULES)


def test_lftc_eval_loads_no_libcrypto(tmp_path):
    # The report's sha256 of each split comes from CPython's own module.
    report = tmp_path / "report.json"
    proc = _python(_CLI, "_hashlib,hashlib", "eval", "--train", TRAIN, "--test", TEST,
                   "--out", report)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
    split = json.loads(report.read_text())["config"]
    assert split["train_sha256"] == BUNDLED_DIGESTS[TRAIN.name]
    assert split["test_sha256"] == BUNDLED_DIGESTS[TEST.name]


def test_libzstd_falls_back_to_find_library():
    path = _libzstd_path()
    proc = _python(_LOAD_WITHOUT_SONAME, path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["opened"] == ["libzstd.so.1", path]
    expect = zb.compressed_size_with_cdict(b"a query of the digest " * 8,
                                           zb.CDict(b"the digest of a query " * 8, 3, 10))
    assert out["size"] == expect


@pytest.mark.parametrize("found", ["", "/nonexistent/libzstd.so.1"])
def test_libzstd_not_found_is_one_compression_error(found):
    proc = _python(_LOAD_WITHOUT_SONAME, found)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["opened"] == (["libzstd.so.1", found] if found else ["libzstd.so.1"])
    assert out["error"].startswith("zstd: cannot load libzstd (")
    assert (found or "libzstd.so.1") in out["error"]

    proc = _python(_LOAD_WITHOUT_SONAME, found, "eval", "--train", TRAIN, "--test", TEST)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("runtime failure: zstd: cannot load libzstd (")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
