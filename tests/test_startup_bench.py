"""``scripts/startup_bench.py`` compares checkouts on equal work."""

import json
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_checkout_solves_on_a_checkpoint_in_its_own_format(tmp_path, monkeypatch):
    """A checkout that writes and reads another checkpoint format still
    solves in the ``solve --heuristic rl`` row, rather than exiting on a
    checkpoint that it refuses."""
    older = tmp_path / "older"
    shutil.copytree(ROOT / "src", older / "src", ignore=shutil.ignore_patterns("__pycache__"))
    config = older / "src" / "satkit" / "config.py"
    text = config.read_text(encoding="utf-8")
    patched = re.sub(r"^POLICY_FORMAT_VERSION = \d+$", "POLICY_FORMAT_VERSION = 99", text, flags=re.M)
    assert patched != text
    config.write_text(patched, encoding="utf-8")

    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import startup_bench

    out = tmp_path / "record.json"
    argv = ["--checkout", f"change={ROOT}", "--checkout", f"older={older}", "--runs", "1"]
    assert startup_bench.main(argv + ["--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["commands"]["solve --heuristic rl --policy"]["same_output_and_exit_code"] is True
