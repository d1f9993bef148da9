"""Command-line entry point: `python -m circulant_qft` and the
`circulant-qft` script both call run().

BLAS threads.  When none of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS is set, all three are set to 1 before numpy loads.  The
program's matrix products are small, and OpenBLAS splitting them across
threads makes them slower, not faster.  Setting any one of the three
leaves all three to the user.

Exit.  run() exits with main()'s exit code, or argparse's after --help,
--version or a usage error, or with 1 when stdout cannot take the
output: quietly when it is closed before the output is written
(`circulant-qft models ... | head -c 20`), as Python's signal
documentation advises for a broken pipe, and with one `output error:
...` line on stderr when a write fails for any other reason (`>
/dev/full`), as main() reports an output file that cannot be written.
Neither prints a traceback, and output files already written stay.  A
stderr that cannot take a message loses it, never the exit code.  Before
exiting it disables the garbage collector and freezes every live object,
so the interpreter's shutdown collections do not traverse objects the OS
is about to free.  atexit handlers and the flushes of the standard
streams still run.  main() itself, which tests and the benchmark call in
process, keeps its collector.
"""

import gc
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

# loads numpy, so it comes after the thread count
from .cli import EXIT_OUTPUT, _report, main  # noqa: E402


def run():
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help, --version, usage error
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:
        # main() lets through a closed stdout and a failed write of
        # argparse's help or version text.
        # The shutdown flush would raise again: send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _report(f"output error: {exc}")
        code = EXIT_OUTPUT
    gc.disable()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
