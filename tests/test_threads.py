"""vcslab pins numpy's OpenBLAS pool to one thread when it loads numpy first,
and the pinned outputs keep their bytes."""

import hashlib
import json
import subprocess
import sys

import pytest

from child_env import src_env

# sha256 of the default `vcslab report`
DEFAULT_REPORT_SHA256 = "db7de2f07c97f8f2b47dac2a40627f25e14d3c1d404ae5988a2e0b132a7cda3e"
# sha256 of the resolution documents at two rational triples besides the
# default: a moved or lost aliasing pair, or a reprinted ratio, changes them;
# and of one whose aliased entries pass the float range, written as "inf"
RESOLUTION_SHA256 = {
    "verify all --omega 3,1,2.1 --checks resolution":
        "9743ce526b504a5bce97eaf75054325049cd9aa202d285452be2dd5c0b3276aa",
    "verify all --omega 0.01,0.1,1 --checks resolution":
        "30f7e446445db56ad1577b738c7b2c27d71326379c8beeb78629a1a60afa0590",
    "verify 3d.2dof.gamma1-gamma3 --omega 1,2,1e-300 --checks resolution":
        "30b5da30dfc4bfd5e058c1ac9ff769e56a69cc48f683113445a5550116c51fb5",
}
# sha256 of reports at pinned ratios: a pin read differently by the
# compile, the selection rule or the convergence verdict changes them
PINNED_SHA256 = {
    "verify all --kappa 12=0.3":
        "42321c30b12033715e9fd4acab117d34e238318085539cda25ae93545d59fabe",
    "verify all --kappa 32=0":
        "3108e8bfc431d6f16865c520b0fbdd4e56caa4ecd5b7807aa136d5369acf3cea",
    "verify all --kappa 13=0 --kappa 23=0.5":
        "cbce526d81be92fff49af79a88611644000cd1019ce918255daaff4b1466967b",
    "verify all --omega 0.01,0.1,1 --kappa 12=0.25 --checks resolution":
        "8f7b243040837bf189c190ec1b4b5f1d9be34bb3f627d4ecdd9903efb87d54c4",
}
# sha256 of the catalog listings and deformation graphs: a reordered or
# relabeled class, or a moved edge, changes them
CATALOG_SHA256 = {
    "list --format json": "b5499e76927e42fa0cac75702d72422ec2fc3762337297d654fdf6d9f4bd4a74",
    "list": "d1ed744a8f5f25d512b7870bfe479570157fa54fda30cd48fa8fa1aadbb33e66",
    "taxonomy --dim 2 --dof 1 --format json --level subclass":
        "271d5dcd689fd490a02f6d6df312ac032fbf0509b9d4e2814d3471fb24ea1142",
    "taxonomy --dim 2 --dof 2 --format json --level subclass":
        "23615ccd0d6c4bc317134088178818ef30a09233dddb5b67272e658433bb418d",
    "taxonomy --dim 3 --dof 2 --format json --level subclass":
        "35588de71252ed041938b55227308102ac22c9fd699233e54adc197fed38567c",
}

PROBE = (
    "import json, os, sys\n"
    "{imports}\n"
    "task = '/proc/self/task'\n"
    "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
)


def blas_env(openblas_threads=None):
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def probe(imports, openblas_threads=None):
    """(OPENBLAS_NUM_THREADS, thread count or None) in a child after `imports`."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports)],
        capture_output=True, text=True, env=blas_env(openblas_threads),
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


class TestOpenBlasPin:
    def test_import_vcslab_pins_one_thread(self):
        value, threads = probe("import vcslab")
        assert value == "1"
        assert threads in (None, 1)

    def test_a_preset_value_wins(self):
        value, _ = probe("import vcslab", openblas_threads="2")
        assert value == "2"

    def test_numpy_loaded_first_leaves_the_variable_unset(self):
        # the pool already exists, so setting the variable would change
        # nothing here and only leak into child processes
        value, _ = probe("import numpy\nimport vcslab")
        assert value is None


@pytest.mark.parametrize("openblas_threads", ["2", None])
def test_blas_threads_move_no_number(tmp_path, openblas_threads):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "vcslab.cli", "report", "--out", str(out)],
        capture_output=True, text=True, env=blas_env(openblas_threads),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_REPORT_SHA256


def stdout_sha256(command):
    """sha256 of the stdout of `vcslab <command>`, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "vcslab.cli", *command.split()],
        capture_output=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("command", sorted(CATALOG_SHA256))
def test_catalog_bytes_are_pinned(command):
    assert stdout_sha256(command) == CATALOG_SHA256[command]


@pytest.mark.parametrize("command", sorted(RESOLUTION_SHA256))
def test_resolution_bytes_are_pinned(command):
    assert stdout_sha256(command) == RESOLUTION_SHA256[command]


@pytest.mark.parametrize("command", sorted(PINNED_SHA256))
def test_pinned_ratio_bytes_are_pinned(command):
    assert stdout_sha256(command) == PINNED_SHA256[command]
