"""The one writer of output files.

An output that already exists as a regular file is replaced by a new
file: it is unlinked and created again, not truncated.  On an ext4 root
mounted with ``discard``, truncating a file whose data the kernel had not
yet written back took 33-80 ms, and unlinking and creating it under
0.1 ms, so a rerun into the same outputs paid the truncation once per
file.  A hard link to the old file keeps the old bytes, and the new file
takes its mode from the umask.  Any other path (a symlink, a FIFO or a
device) is opened for writing as it is, so a symlink is written through.
Nothing is synced: a crash mid-write leaves a short file, as a truncating
open would.
"""

from __future__ import annotations

import json
import os
import stat


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, in one call.  A file that
    cannot be unlinked (say, in a read-only directory) is truncated
    instead; ``open`` raises ``OSError`` for a path it cannot write."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
