"""Environment for the benchmark's child interpreters."""

import os
from pathlib import Path
from typing import Dict


def clean_env(root: Path) -> Dict[str, str]:
    """The checkout's src/ on the path, and no NILWKB_THREADS, so the thread pool stays off."""
    env = {k: v for k, v in os.environ.items() if k not in ("NILWKB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    return env
