"""A fixed pure-Python workload that tracks the speed of the machine.

The benchmark's virtual machine shares its host, and its speed drifts by
up to 1.7x over minutes and by a third from one second to the next.  Each
pass times this kernel in its own process: SETUP_ROUNDS before importing
hypersym, and VERDICT_ROUNDS before every verdict and after the last one.
run.py scales each verdict's time by the kernel's nominal time over its
measured time around that verdict, so a slow moment of the host does not
read as a slow program.  The kernel is the same kind of work as the
package (sparse products of dict polynomials with packed integer
monomials) but shares no code with it, so a change to hypersym cannot
change the kernel's time.
"""

import gc
import time

ROUND_S = 0.0006  # one round on a quiet host (2.0 GHz Xeon vCPU)
SETUP_ROUNDS = 160
VERDICT_ROUNDS = 30


def _kernel(rounds):
    # 40 x 40 terms keep the kernel's own memory near 100 kB, so it does
    # not show in the pass's peak resident memory
    a = {(i * 37) % 1009 * 65536 + i % 7: i - 20 for i in range(40)}
    b = {(i * 53) % 997 * 65536 + i % 5: 3 * i + 1 for i in range(40)}
    total = 0
    for _ in range(rounds):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                v = out.get(m, 0) + ca * cb
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        total += len(sorted(out.items()))
    return total


def scale(rounds, seconds):
    """Factor that brings times measured next to a `rounds`-round kernel
    that took `seconds` to the nominal speed."""
    return rounds * ROUND_S / seconds


def timed(rounds):
    """Seconds the kernel takes, with the cyclic collector paused so the
    size of the caller's heap does not enter the time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel(rounds)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
