"""The names the package exports, and the README's library quick start."""

import os
import subprocess
import sys
from pathlib import Path

import cmzv

# public names deleted because nothing but their tests called them
DELETED = (
    "qsum_half_numeric",
    "evaluate_colored_row",
    "reversal_relations_colored",
    "linear_shuffle_relations",
    "exact_relation_rank",
    "store_records",
)


def test_every_exported_name_resolves():
    assert len(cmzv.__all__) == len(set(cmzv.__all__))
    for name in cmzv.__all__:
        assert hasattr(cmzv, name), name
    assert not set(DELETED) & set(cmzv.__all__)
    assert not any(hasattr(cmzv, name) for name in DELETED)


def test_readme_library_quick_start_runs(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    readme = (repo / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, CMZV_CACHE_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1, 2, 4, 8]\n"
    assert any(tmp_path.iterdir())  # the residue cache went where the variable says


def test_importing_the_package_loads_no_process_pool():
    # only residue tables built with jobs > 1 need concurrent.futures
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    code = "import sys, cmzv; print(*{m.split('.')[0] for m in sys.modules})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "concurrent" not in loaded and "multiprocessing" not in loaded
