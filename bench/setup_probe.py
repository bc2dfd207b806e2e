"""Time what a first use of plancode pays: import the package, then build one
class table cold into an empty cache directory.

Run as ``python3 bench/setup_probe.py <class> <empty cache dir>`` in a fresh
process; it prints the seconds taken.  ``run.py`` calls ``cold_setup`` in its
own process too, before anything else imports plancode.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_source() -> None:
    """Import plancode only from this checkout's ``src``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "plancode", "__init__.py")):
        raise SystemExit(f"plancode sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def cold_setup(class_name: str, cache_dir: str) -> float:
    """Seconds to import plancode and build the class table into
    ``cache_dir``, which must be empty."""
    if os.listdir(cache_dir):
        raise ValueError(f"cache directory {cache_dir} is not empty")
    t0 = time.perf_counter()
    import plancode  # noqa: F401
    from plancode.table import build_table

    build_table(class_name, cache_dir=cache_dir)
    return time.perf_counter() - t0


if __name__ == "__main__":
    require_source()
    print(repr(cold_setup(sys.argv[1], sys.argv[2])))
