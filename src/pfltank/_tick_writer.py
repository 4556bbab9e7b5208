"""The tick log's CSV formatter, and the helper process that runs it.

format_block turns one block of a tick log, given as the bytes of its CSV
columns, into CSV rows exactly as csv.writer's default dialect would write
them: floats by repr, k by str, commas between fields and "\\r\\n" after each
row.  write_ticks_csv calls it in-process.  run() given a path hands each
block of a run to a Stream, which writes it to this module run as a script,
so the rows are formatted while the loop goes on.

The module imports only the standard library and nothing of the package, so
a Stream can start it under ``python -I -S``: no site-packages, no
environment variables, no script directory on sys.path, and a start in a
fraction of a plain interpreter's time.

    python -I -S _tick_writer.py HEADER < frames > ticks.csv

HEADER is the CSV header line without its "\\r\\n"; a row holds one 8-byte
cell per column it names.  Each frame on standard input is FRAME (a block's
row count and the byte length of the region names it adds), those names
joined by "\\n" in UTF-8, then the block's bytes as format_block reads them.
The helper ends by os._exit(0) once its rows are flushed, and a failure to
write exits 1 with the error's text as the one line on standard error.
"""

import os
import struct
import sys

#: a frame's head: the block's row count and the byte length of its new names
FRAME = struct.Struct("=qq")


def format_block(body, n: int, names: list) -> str:
    """The CSV rows of an n-row block, each ended by "\\r\\n".

    body holds the block's CSV columns one after the other, each n cells in
    native byte order: k as int64, t as float64, active_region as int64
    codes into names, then every other column as float64.  Each distinct bit
    pattern among those last columns is formatted once (bits, not ==, so 0.0
    and -0.0 stay apart).
    """
    ints, floats = memoryview(body).cast("q"), memoryview(body).cast("d")
    columns = [map(str, ints[:n].tolist()), map(repr, floats[n:2 * n].tolist()),
               map(names.__getitem__, ints[2 * n:3 * n].tolist())]
    bits = ints[3 * n:].tolist()
    distinct = dict(zip(bits, floats[3 * n:].tolist()))
    text = dict(zip(distinct, map(repr, distinct.values())))
    cells = list(map(text.__getitem__, bits))
    columns += [cells[start:start + n] for start in range(0, len(cells), n)]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


class Stream:
    """This module run as a helper process that writes a log to path while
    the caller goes on: the helper writes a temporary file next to path,
    which close() renames onto it.  send() appends each block to a buffer
    and writes as much of it as the helper's pipe takes without blocking, so
    the caller never waits on the pipe while the helper starts or formats,
    and no thread runs; close() writes the rest, waiting.  kill() stops the
    helper and removes its file, and does nothing once close() is done."""

    def __init__(self, path, header: str):
        import subprocess  # here, so that no other caller pays for its import
        from pathlib import Path

        self.path = Path(path)
        # unique while this Stream lives, so two runs to one path never share it
        self.tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}-{id(self):x}.tmp")
        try:
            with open(self.tmp, "wb") as out:
                self.helper = subprocess.Popen([sys.executable, "-I", "-S", __file__, header],
                                               stdin=subprocess.PIPE, stdout=out,
                                               stderr=subprocess.PIPE)
        except BaseException:
            self.tmp.unlink(missing_ok=True)
            raise
        self.pipe = self.helper.stdin.fileno()  # None once the helper has ended
        os.set_blocking(self.pipe, False)
        self.pending = bytearray()  # the bytes sent that the pipe has not taken
        self.named = 0  # the region names sent so far

    def send(self, columns: list, names):
        """Send one block, given as one array per field in CSV order, each
        holding the bytes format_block reads; names are the region names
        numbered so far, of which the helper is sent those it lacks."""
        added = "\n".join(list(names)[self.named:]).encode()
        self.named = len(names)
        if self.pipe is not None:
            self.pending += b"".join([FRAME.pack(len(columns[0]), len(added)), added,
                                      *columns])
            self._write()

    def _write(self):  # until the pipe is full, or, blocking, all of it
        try:
            while self.pending:
                del self.pending[:os.write(self.pipe, self.pending)]
        except BlockingIOError:  # the rest goes with a later send, or close()
            pass
        except OSError:  # the helper has ended; its exit status tells why
            self.pipe = None

    def close(self, keep: bool):
        """Wait for the helper to write every block sent; then rename its
        file onto path where keep, or remove any file at path."""
        if self.pipe is not None:
            os.set_blocking(self.pipe, True)
            self._write()
        self.helper.stdin.close()
        error = self.helper.stderr.read().decode(errors="replace").splitlines()
        if self.helper.wait():
            raise OSError(error[-1] if error else
                          f"the tick-log writer exited with {self.helper.returncode}")
        if keep:
            os.replace(self.tmp, self.path)
        else:
            self.path.unlink(missing_ok=True)

    def kill(self):
        """Stop the helper if it still runs, reap it and remove its file."""
        self.helper.kill()  # a no-op once it has exited
        self.helper.stdin.close()
        self.helper.stderr.close()
        self.helper.wait()
        self.tmp.unlink(missing_ok=True)


def main(header: str):
    row_bytes = 8 * len(header.split(","))
    read, out = sys.stdin.buffer.read, sys.stdout.buffer
    out.write(f"{header}\r\n".encode())
    names = []
    while frame := read(FRAME.size):
        n, size = FRAME.unpack(frame)
        if size:
            names += read(size).decode().split("\n")
        out.write(format_block(read(n * row_bytes), n, names).encode())
    out.flush()
    os._exit(0)  # every row is written: the interpreter's teardown only delays run()


if __name__ == "__main__":
    try:
        main(*sys.argv[1:])
    except OSError as exc:  # the text run() reports, as open() would give it
        sys.stderr.write(f"{exc.strerror or exc}\n")
        sys.stderr.flush()
        os._exit(1)  # not flushing the unwritten rows again on the way out
