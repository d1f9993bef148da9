"""Command-line entry point: `python -m circulant_qft` and the
`circulant-qft` script both call run(), the one place in the package
that handles the standard streams.

BLAS threads.  When none of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS is set, all three are set to 1 before numpy loads.  The
program's matrix products are small, and OpenBLAS splitting them across
threads makes them slower, not faster.  Setting any one of the three
leaves all three to the user.

Exit.  run() calls main() with stdout and stderr held in memory, so
argparse's help, version and usage text lands there too, and then
writes each once: stderr's text, then stdout's, also when main() raises
an exception it does not map, ahead of the traceback.  It exits with
main()'s exit code, or argparse's, unless stdout cannot take its text:
then it exits 1, quietly for a closed pipe (`... | head -c 20`), as
Python's signal documentation advises, and with one `output error: ...`
line on stderr otherwise (`> /dev/full`).  A stderr that cannot take
its text loses it, never the exit code.  A stream that fails is pointed
at the null device, so the interpreter's shutdown flush succeeds.  A
standard stream whose descriptor is closed when the process starts
(`>&-`, `2>&-`) fails as a closed pipe does.

Collector.  Importing this module disables the cyclic garbage collector
before numpy loads, so the imports, the command and the exit run without
a collection: the process is short, and the garbage a command leaves
does not grow with its size.  Before exiting, run() freezes every live
object, as the interpreter's shutdown collection runs even with the
collector disabled, and would traverse objects the OS is about to free.
atexit handlers and the flushes of the standard streams still run.
main() itself, which tests and the benchmark call in process, keeps its
collector.
"""

import gc
import io
import os
import sys

gc.disable()  # before numpy loads; see Collector above

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

# loads numpy, so it comes after the thread count
from .cli import EXIT_OUTPUT, main  # noqa: E402


def _closed_pipe(fd):
    """A text stream on descriptor fd, which was closed at start: the write
    end of a pipe with no reader, where a write fails with EPIPE."""
    read, write = os.pipe()
    os.dup2(write, fd)
    for end in {read, write} - {fd}:
        os.close(end)
    return open(fd, "w")


def _write(stream, text):
    """Write text to stream and flush it, unless text is empty (even an
    empty write and flush fail on a full device); return the OSError that
    stops it, or None.  A failed stream is pointed at the null device,
    where the shutdown flush of the bytes still buffered succeeds (a
    failed one exits 120)."""
    try:
        if text:
            stream.write(text)
            stream.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        return exc
    return None


def run():
    # Python leaves a stream None when its descriptor is closed at start
    if sys.stdout is None:
        sys.stdout = _closed_pipe(1)
    if sys.stderr is None:
        sys.stderr = _closed_pipe(2)
    streams = sys.stdout, sys.stderr
    out, err = sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help, --version, usage error
            code = exc.code
    finally:
        sys.stdout, sys.stderr = streams
        _write(sys.stderr, err.getvalue())
        failure = _write(sys.stdout, out.getvalue())
        if failure is not None and not isinstance(failure, BrokenPipeError):
            _write(sys.stderr, f"output error: {failure}\n")
    gc.freeze()
    sys.exit(EXIT_OUTPUT if failure is not None else code)


if __name__ == "__main__":
    run()
