"""Host-speed calibration: a fixed kernel timed next to every op.

The host this benchmark runs on drifts in speed by up to ~1.7x over tens of
seconds to minutes, even for a pure-Python loop, so raw host times of two runs
minutes apart differ by more than any useful regression bound. The kernel
below does a fixed mix of the work the workloads do (interpreter-heavy dict
and list churn, many small numpy reshapes and 4x4 products, one-qubit maps on
a 6-qubit density matrix) and uses nothing from qdotsim, so a change to the
simulator cannot change its time. An op's host time is rescaled as if the
kernel, timed right after the op, had taken `REF_KERNEL_S`.

Start-up work (loading numpy's shared libraries, unmarshalling and running
module code in a fresh process) drifts differently from warm work: numpy's
import time alone was seen to halve within a minute while the kernel sped
up by a fifth. So a set-up sample is rescaled by a reference start-up timed
in a fresh process just before it: import numpy, then run the kernel a
fixed number of times (`setup_probe.py --reference`), as if that had taken
`REF_STARTUP_S`.
"""
from __future__ import annotations

import time

import numpy as np

REF_KERNEL_S = 0.005
"""Kernel time that fixes the scale of rescaled op times (about its median
on the 2-CPU Intel Xeon virtual machine where the benchmark was built)."""

REF_STARTUP_S = 0.2
"""Reference start-up time that fixes the scale of rescaled set-up times
(about its median on the same machine)."""

_U = np.linalg.qr(np.arange(16.0).reshape(4, 4) + 1j)[0]
_PSI = np.ones(256, dtype=complex) / 16.0
_RHO = np.eye(64, dtype=complex) / 64.0
_K = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)


def _kernel() -> float:
    table = {}
    for i in range(2500):
        table[(i, i & 7)] = [i, float(i) * 0.5]
    total = sum(v[1] for v in table.values())
    psi = _PSI
    for _ in range(110):
        x = np.moveaxis(psi.reshape([2] * 8), [1, 3], [0, 1]).reshape(4, -1)
        psi = np.moveaxis((_U @ x).reshape([2] * 8), [0, 1], [1, 3]).reshape(-1)
    rho = _RHO.reshape([2] * 12)
    for q in range(6):
        rho = np.moveaxis(np.tensordot(_K, np.moveaxis(rho, q, 0), axes=([1], [0])), 0, q)
    return total + float(abs(psi[0])) + float(abs(rho.reshape(64, 64)[0, 0]))


def kernel_time() -> float:
    """Host seconds of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def rescale(seconds: float, measured_s: float, reference_s: float) -> float:
    """Host time at the reference speed, given the calibration time measured
    alongside it and that calibration's time at the reference speed."""
    return seconds * reference_s / measured_s
