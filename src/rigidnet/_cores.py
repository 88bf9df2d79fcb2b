"""The cores, the threads and the processes the library runs on.

Every dense solve of the library, the hop table's frontier products
(graphs.GeodesicTable) and the counting rule's, runs under
one_blas_thread, which sets every loaded OpenBLAS to one thread for its
duration: its threads, woken for each solve between stretches of Python
work, cost more than they give, and one thread gives the same bits
whatever the process's setting.
A batch (rigidity._spectra, which rigidity_spectrum calls with one S, the
extent search's _rigid_balls with its Cholesky certificates,
rigidity_report with its SVD) enters it once and solves each S by
rigidity._solve, its one LAPACK call, which does not enter it again; one
pass over the batch's eigenvalues then judges them all.
numpy's eigh releases the GIL, but its eigvalsh keeps it unless (stack
count x side) exceeds 500, so two threads calling it take turns on every S
the library solves.  So the caller and one worker thread take a state
build's batch from one queue (threaded_map), the free thread the next S,
only where the process may use two cores and has _gil_free_eigvalsh,
numpy's own LAPACK dsyevd called through ctypes without the GIL and with
numpy's bits: there every eigh is numpy's and every eigenvalue-only solve
the kernel's.  The kernel serves only once it has solved a few fixed S to
np.linalg.eigvalsh's bits, so a numpy whose eigvalsh calls another LAPACK
routine leaves every batch on the caller.  Elsewhere the caller solves the
batch in turn with numpy, whose eigvalsh wrapper costs less.
Work whose results do not depend on the order it runs in, such as the
ensemble's networks, each drawn from its own child seed, can run on every
core the process may use, one forked process per further core
(forked_map): each process computes a first index of its own and then
claims the next uncomputed one whenever it is free, so no process waits on
a fixed share.  If any process fails, the caller computes every index in
turn once every child is joined, so results and errors are a one-core run's.
"""

import collections
import ctypes
import fcntl
import functools
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def usable_cores():
    """How many cores the process may run on, read at each call; 1 where
    the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


@functools.cache
def _loaded_openblas():
    """(path, CDLL) of every OpenBLAS the process has loaded, found once in
    its memory map: numpy's libscipy_openblas64_, scipy's libscipy_openblas,
    or a plain libopenblas.  Empty where the map cannot be read or names
    none."""
    try:
        with open("/proc/self/maps") as fp:
            paths = sorted({line.split()[-1] for line in fp
                            if "openblas" in line.split()[-1].lower()})
    except OSError:
        return ()
    return tuple((path, ctypes.CDLL(path)) for path in paths)


@functools.cache
def _openblas_thread_counts():
    """(get, set) of the thread count of every loaded OpenBLAS."""
    found = []
    for _, lib in _loaded_openblas():
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return tuple(found)


class one_blas_thread:
    """Run a with block, or each call of a function it decorates, with
    every loaded OpenBLAS on one thread, and give each back its previous
    thread count on exit, also when the block raises; nested blocks
    restore in turn.  Where no OpenBLAS is found this does nothing.

    The count is the process's.  A block entered where every count is
    already one only reads them, so threads started inside an outer block
    may enter their own; outside one, enter it from one thread at a time.
    """

    def __init__(self):
        self._saved = []

    def __enter__(self):
        changed = [(set_, n) for get, set_ in _openblas_thread_counts()
                   if (n := get()) != 1]
        for set_, _ in changed:
            set_(1)
        self._saved.append(changed)
        return self

    def __exit__(self, *exc):
        for set_, n in self._saved.pop():
            set_(n)

    def __call__(self, fn):
        @functools.wraps(fn)
        def on_one_thread(*args, **kwargs):
            with one_blas_thread():
                return fn(*args, **kwargs)
        return on_one_thread


@functools.cache
def _gil_free_eigvalsh():
    """numpy.linalg.eigvalsh's own solve, called through ctypes so that it
    releases the GIL, or None where numpy's OpenBLAS is not loaded or the
    kernel fails its self-check (_gives_numpys_bits).

    numpy's eigvalsh keeps the GIL unless (stack count x side) exceeds 500,
    and every S the loops solve is smaller, so two threads calling it take
    turns.  This calls the LAPACK that numpy's wrapper calls, dsyevd of
    numpy's ILP64 OpenBLAS (numpy.libs/libscipy_openblas64_*), in the same
    way: eigenvalues only (jobz N) from the lower triangle (uplo L) of a
    Fortran-order copy, with the workspace sizes of LAPACK's own query,
    since dsytrd's blocking depends on them.  So its bits are numpy's.
    scipy's OpenBLAS is never used: its dsyevd gives other bits.
    """
    for path, lib in _loaded_openblas():
        dsyevd = getattr(lib, "scipy_dsyevd_64_", None)
        if dsyevd is not None and os.path.basename(
                os.path.dirname(path)) == "numpy.libs":
            kernel = _eigvalsh_by(dsyevd)
            return kernel if _gives_numpys_bits(kernel) else None
    return None


# the sides of the self-check's S: below and above the side (32) at which
# dsytrd starts to reduce by blocks, the largest over several blocks
_CHECK_SIDES = (6, 48, 100)


def _gives_numpys_bits(kernel):
    """Whether kernel solves a few fixed symmetric S to the bits of
    np.linalg.eigvalsh, both on one BLAS thread; a kernel that fails to
    converge on one of them does not."""
    rng = np.random.default_rng(0)
    with one_blas_thread():
        for side in _CHECK_SIDES:
            a = rng.standard_normal((side, side))
            S = a + a.T
            try:
                if kernel(S).tobytes() != np.linalg.eigvalsh(S).tobytes():
                    return False
            except np.linalg.LinAlgError:
                return False
    return True


# dsyevd's integer arguments: n, lda, lwork, liwork, info, and the
# queried liwork, in ILP64 LAPACK's 64-bit integers
_DsyevdInts = ctypes.c_int64 * 6


def _address(a):
    """The address of a C-contiguous array's first element."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _eigvalsh_by(dsyevd):
    """An eigvalsh of S by the ILP64 LAPACK routine dsyevd; a
    np.linalg.LinAlgError when it does not converge.  Every buffer is an
    array of the call's own, so threads may call it at once."""
    dsyevd.restype = None
    dsyevd.argtypes = (ctypes.c_char_p,) * 2 + (ctypes.c_void_p,) * 9

    def eigvalsh(S):
        a = np.array(S, dtype=float, order="F")
        n = len(a)
        # dsyevd reads n x n doubles from a: anything else is out of bounds
        if a.shape != (n, n):
            raise ValueError(f"S must be a square matrix, got {a.shape}")
        ints = _DsyevdInts(n, max(n, 1), -1, -1)
        i = ctypes.addressof(ints)
        # the eigenvalues, then the queried lwork
        w = np.empty(n + 1)
        pa, pw = _address(a.T), _address(w)
        dsyevd(b"N", b"L", i, pa, i + 8, pw, pw + 8 * n, i + 16, i + 40,
               i + 24, i + 32)
        lwork = int(w[n])
        ints[2], ints[3] = lwork, ints[5]
        # the work array, then iwork
        work = np.empty(lwork + ints[3])
        pk = _address(work)
        dsyevd(b"N", b"L", i, pa, i + 8, pw, pk, i + 16, pk + 8 * lwork,
               i + 24, i + 32)
        if ints[4]:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return w[:n].copy()

    return eigvalsh


@functools.cache
def _eigh_worker():
    """The one worker thread that shares a batch's jobs with the caller,
    started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="rigidnet-eigh")


# a forked child has no worker thread, only its parent's record of one
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_eigh_worker.cache_clear)


def threaded_map(fn, costs):
    """[fn(j) for j in range(len(costs))], two jobs or more, computed by
    the caller and the worker thread.

    The threads pop the jobs from one queue ordered by cost: the caller
    from the costly end, the worker from the cheap end, its first job
    handed over before it starts.  So the free thread takes the next job,
    and small jobs, mostly Python that holds the GIL, run beside large
    ones, mostly LAPACK that does not.  A failure empties the queue; the
    caller's error surfaces once the worker has returned.
    """
    results = [None] * len(costs)
    queue = collections.deque(sorted(range(len(costs)),
                                     key=lambda j: -costs[j]))

    def run(j, take):
        try:
            while True:
                results[j] = fn(j)
                try:
                    j = take()
                except IndexError:
                    return
        except BaseException:
            queue.clear()
            raise

    first = queue.popleft()
    worker = _eigh_worker().submit(run, queue.pop(), queue.pop)
    try:
        run(first, queue.popleft)
    finally:
        # the worker's jobs end before the caller's BLAS setting is restored
        worker.result()
    return results


def _claims(counter, first, count):
    """The indices one process computes: first, then, each time the last
    is computed, the next unclaimed index below count.

    counter is a file that the forked processes share, its first 8 bytes
    the next unclaimed index.  A claim reads and advances it under a lockf
    lock, which the kernel frees when its holder exits, so a process that
    dies while it holds the counter blocks no other: its share fails like
    any other.
    """
    fd = counter.fileno()
    index = first
    while index < count:
        yield index
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            index = int.from_bytes(os.pread(fd, 8, 0), "little")
            os.pwrite(fd, (index + 1).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)


def _send_share(conn, fn, indices):
    """A forked child's work: send {i: fn(i)} over its indices or, on any
    failure, send and print nothing, so the caller computes every index
    itself.  An interrupt does the same: Ctrl-C reaches the whole process
    group, and the caller stops on its own interrupt."""
    try:
        conn.send({i: fn(i) for i in indices})
    except BaseException:
        pass
    finally:
        conn.close()


def _fork_context(k):
    """The fork context for k processes, or None where the indices are
    computed in turn: k below two, no fork start method, or a daemonic
    caller (a Pool worker), which may start no child.  multiprocessing is
    imported here, not at the top, so that importing rigidnet stays cheap."""
    if k < 2:
        return None
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


@one_blas_thread()
def forked_map(fn, count):
    """[fn(i) for i in range(count)] over one process per core the process
    may use, up to count, each on one BLAS thread since they share the
    cores.  The caller computes every index in turn instead where there is
    no fork context (see _fork_context), and once every child is joined
    where a share fails to come back clean (an error in the caller's
    share, a child that sends nothing, among them one that dies while it
    holds the counter, a failed fork, pipe or counter file).

    Process j computes index j first, the caller being process 0, and then
    claims (_claims); the results are merged by index.  Every child is
    joined before this returns or raises, and terminated first if it still
    runs when the caller fails or is stopped.
    """
    k = min(usable_cores(), count)
    context = _fork_context(k)
    if context is None:
        return [fn(i) for i in range(count)]
    # join the worker thread, as a fork needs (Python 3.12 warns of a live
    # thread); the next two-thread batch starts another
    _eigh_worker().shutdown()
    _eigh_worker.cache_clear()
    children, readers = [], []
    merged = counter = None
    try:
        counter = tempfile.TemporaryFile()
        os.pwrite(counter.fileno(), k.to_bytes(8, "little"), 0)
        for j in range(1, k):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            child = context.Process(
                target=_send_share,
                args=(writer, fn, _claims(counter, j, count)))
            try:
                child.start()
            finally:
                # with the caller's write end closed, a child that exits
                # without sending gives the reader EOFError, not a wait
                writer.close()
            children.append(child)
        done = {i: fn(i) for i in _claims(counter, 0, count)}
        for reader in readers:
            done.update(reader.recv())
        merged = [done[i] for i in range(count)]
    except Exception:
        # a share failed: every index is computed in turn below
        pass
    finally:
        for child in children:
            if merged is None and child.is_alive():
                child.terminate()
            child.join()
        for reader in readers:
            reader.close()
        if counter is not None:
            counter.close()
    return [fn(i) for i in range(count)] if merged is None else merged
