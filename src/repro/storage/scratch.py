"""Signal-safe scratch directories for examples, CLIs, and benchmarks.

Long-running demonstration workloads (``repro obs``) write WAL segments
and snapshot files into a temporary directory.  A bare
``tempfile.mkdtemp`` leaks that directory on *every* exit path, and even
``TemporaryDirectory`` leaks it when the process dies to SIGTERM — the
default handler kills the interpreter without unwinding context
managers.

:func:`scratch_dir` closes both holes: the directory is removed on
normal exit, on exceptions (including ``KeyboardInterrupt``), and on
SIGTERM, which is converted to ``SystemExit`` for the duration of the
context so the ``finally`` unwind runs.  The previous SIGTERM handler
is restored on exit; when not running on the main thread (where signal
handlers cannot be installed) the conversion is skipped and the manager
degrades to plain cleanup-on-unwind.
"""

from __future__ import annotations

import shutil
import signal
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


def _raise_system_exit(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


@contextmanager
def scratch_dir(prefix: str = "repro-") -> Iterator[Path]:
    """A temporary directory that is removed on *every* exit path.

    >>> with scratch_dir(prefix="doctest-") as workdir:
    ...     _ = (workdir / "x.wal").write_text("record")
    ...     workdir.is_dir()
    True
    >>> workdir.exists()
    False
    """
    previous_handler = None
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous_handler = signal.signal(signal.SIGTERM, _raise_system_exit)
    path = Path(tempfile.mkdtemp(prefix=prefix))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous_handler)
