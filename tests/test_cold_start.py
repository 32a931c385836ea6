"""A cold ``repro search`` at the default scoring system imports no scipy.

Each test runs a fresh interpreter, because the test process itself has
long since imported ``scipy``.  scipy stays a dependency: the synthetic
database profiles load ``scipy.stats`` when they first draw lengths, and
other scoring systems load ``scipy.optimize`` to solve lambda.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from repro.sequence import random_protein, write_fasta

SRC = Path(__file__).resolve().parents[1] / "src"

#: Appended to every child: the scipy modules it ended up importing.
_REPORT = textwrap.dedent(
    """
    import json as _json, sys as _sys
    print(_json.dumps(sorted(
        m for m in _sys.modules if m == "scipy" or m.startswith("scipy.")
    )))
    """
)


def _scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a fresh interpreter; the scipy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import repro.cli", tmp_path) == []


def test_default_fasta_search_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(3)
    write_fasta([random_protein(60, rng, id="Q")], tmp_path / "q.fasta")
    write_fasta(
        [random_protein(int(n), rng, id=f"D{i}")
         for i, n in enumerate(rng.integers(20, 300, size=12))],
        tmp_path / "db.fasta",
    )
    loaded = _scipy_modules_after(
        """
        import sys
        from repro.cli import main
        status = main(
            ["search", "q.fasta", "db.fasta", "--scores-out", "s.tsv"],
            out=sys.stderr,
        )
        assert status == 0, status
        """,
        tmp_path,
    )
    assert loaded == []
    rows = (tmp_path / "s.tsv").read_text().splitlines()
    assert len([r for r in rows if not r.startswith("#")]) == 12


def test_predict_profile_loads_scipy_stats_on_first_use(tmp_path):
    loaded = _scipy_modules_after(
        """
        import sys
        from repro.cli import main
        assert "scipy.stats" not in sys.modules
        status = main(
            ["predict", "--profile", "swissprot", "--scale", "0.01"],
            out=sys.stderr,
        )
        assert status == 0, status
        """,
        tmp_path,
    )
    assert "scipy.stats" in loaded
