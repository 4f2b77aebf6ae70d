"""Host facts recorded with every result, and the BLAS-pinning gate.

With BLAS threads unpinned a 2-worker loopback run swings 3–5× from run
to run on 2 cores (the workers' GEMM threads fight the server's), so the
benchmark refuses to measure unless the thread count *in effect* is 1.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import statistics
import subprocess
import time
from pathlib import Path

PIN_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


class BlasNotPinned(RuntimeError):
    """BLAS would run more than one thread; timings would not be comparable."""


def pinned_environment() -> dict[str, str]:
    """``os.environ`` with every BLAS thread variable forced to 1."""
    return {**os.environ, **{name: "1" for name in PIN_VARIABLES}}


def blas_threads_in_effect() -> int | None:
    """Thread count of the OpenBLAS NumPy loaded, or None when it has none.

    Asks the library itself, so a variable exported too late (after NumPy
    was imported) or overridden by the build is caught.
    """
    import numpy  # noqa: F401  (maps the BLAS library into the process)

    with open("/proc/self/maps", encoding="utf-8") as stream:
        libraries = set(re.findall(r"(/\S*openblas\S*\.so\S*)", stream.read()))
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for getter in _OPENBLAS_GETTERS:
            if hasattr(library, getter):
                return int(getattr(library, getter)())
    return None


def require_pinned_blas() -> dict:
    """The pinning facts; raises :class:`BlasNotPinned` unless BLAS runs 1 thread."""
    variables = {name: os.environ.get(name) for name in PIN_VARIABLES}
    in_effect = blas_threads_in_effect()
    if any(value != "1" for value in variables.values()) or in_effect not in (None, 1):
        raise BlasNotPinned(
            f"BLAS threads are not pinned to 1 (environment {variables}, in effect {in_effect}); "
            "export " + " ".join(f"{name}=1" for name in PIN_VARIABLES)
        )
    return {"environment": variables, "openblas_threads_in_effect": in_effect}


#: wall-clock metrics are reported as on a host whose 384² float32 GEMM runs at
#: this rate: the sandbox's speed drifts by 1.5x within minutes (other tenants),
#: and a probe interleaved with the rounds follows that drift
REFERENCE_GFLOPS = 100.0


class SpeedProbe:
    """Times one 384² float32 GEMM per call — the calibration ``bench_hotpaths`` uses.

    Independent of the program (pure NumPy), so a change to the repo
    cannot move it; single-threaded like everything else here.
    """

    def __init__(self, size: int = 384):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((size, size), dtype=np.float32)
        self._b = rng.random((size, size), dtype=np.float32)
        self._out = np.empty_like(self._a)
        self._matmul = np.matmul
        self._flops = 2 * size**3
        self()

    def __call__(self) -> float:
        """Seconds one GEMM took just now."""
        start = time.perf_counter()
        self._matmul(self._a, self._b, out=self._out)
        return time.perf_counter() - start

    def speed(self, seconds: list[float]) -> float:
        """Host speed over the probes taken, relative to the reference host."""
        return self._flops / statistics.median(seconds) / 1e9 / REFERENCE_GFLOPS


def filesystem_type(path: str | Path) -> str:
    """Filesystem type of the mount holding ``path`` (longest mount-point prefix)."""
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as stream:
        for line in stream:
            _, mount, kind = line.split()[:3]
            prefix = mount.rstrip("/") + "/"
            if (target + "/").startswith(prefix) and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def describe(root: Path, store_dir: str | Path, probe: SpeedProbe) -> dict:
    """Everything a reader needs to compare this result with one from another day."""
    import numpy

    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gemm_384_f32_gflops": probe.speed([probe() for _ in range(20)]) * REFERENCE_GFLOPS,
        "blas": require_pinned_blas(),
        "store_filesystem": filesystem_type(store_dir),
    }
