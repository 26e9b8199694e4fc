"""Shared helpers for the tools/validate_*.py checkers (stdlib only).

Each validator re-implements its artifact format independently of the
Rust code; this module holds only the plumbing they share: failure
reporting, the u64 range check, a bounds-checked little-endian cursor
and FNV-1a. Validators import it as a sibling module (`import dmno`),
which works when they are run as scripts from any directory.
"""

import struct
import sys
from pathlib import Path

U64_MAX = 2**64 - 1
FNV_BASIS = 0xCBF2_9CE4_8422_2325
FNV_PRIME = 0x0000_0100_0000_01B3


def fail(path, msg):
    """Exits non-zero with `<tool>: <path>: <msg>`, where the tool is the
    running validator's script name."""
    sys.exit(f"{Path(sys.argv[0]).stem}: {path}: {msg}")


def is_u64(v):
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= U64_MAX


def fnv1a(data, h=FNV_BASIS):
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & U64_MAX
    return h


class Cursor:
    """Little-endian reader over `data`; any overrun, invalid UTF-8 string
    or leftover byte fails the file at `path`."""

    def __init__(self, path, data):
        self.path = path
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            fail(
                self.path,
                f"truncated: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}",
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        """Takes one struct of little-endian format `fmt` (no prefix)."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return self.unpack("I")[0]

    def u64(self):
        return self.unpack("Q")[0]

    def string(self):
        """A u32 byte length followed by that many UTF-8 bytes."""
        offset = self.pos
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            fail(self.path, f"invalid UTF-8 string at offset {offset}")

    def remaining(self):
        return len(self.data) - self.pos

    def done(self):
        """The end-of-buffer check: nothing may follow the last field."""
        if self.remaining():
            fail(self.path, f"{self.remaining()} trailing bytes")
