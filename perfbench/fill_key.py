"""Generate one paper-profile issuer key into the benchmark's key cache.

    python3 perfbench/fill_key.py KEY_DIR SCENARIO_SEED LABEL SLOTS

run.py starts one of these per issuer key before anything is timed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fcguard.keycache import issuer_keys  # noqa: E402
from fcguard.params import PAPER  # noqa: E402

if __name__ == "__main__":
    key_dir, seed, label, slots = sys.argv[1:]
    issuer_keys(PAPER, int(seed), label, int(slots), Path(key_dir))
