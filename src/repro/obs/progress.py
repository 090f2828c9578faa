"""Live campaign heartbeat.

One throttled stderr line per interval::

    [dampi] runs 37 done / 12 queued | frontier 12 | 8.2s elapsed | eta ~3.1s

The reporter only formats and writes when the interval has elapsed
(checked against an injectable monotonic clock so tests don't sleep), so
an aggressive caller can invoke :meth:`tick` every loop iteration.

Output adapts to the stream.  On a TTY each heartbeat *rewrites one
line in place* (carriage return + erase-line), so a long campaign holds
a single status line instead of scrolling hundreds; :meth:`final` (or
:meth:`close`) terminates it with a newline.  On anything that is not a
TTY — a pipe, a CI log, a file — no ANSI escapes are emitted and every
heartbeat is a plain newline-terminated line, so piped output (and
``--progress`` composed with ``--json-out``) never interleaves with
control sequences.

Distributed campaigns have *many* producers — every worker streams its
own progress frames to the coordinator — but interleaving N raw lines
on one terminal is noise.  :meth:`ProgressReporter.merge_tick` is the
aggregation path: the coordinator folds the latest frame per worker into
one line (total runs and throughput, lease queue state, per-worker lag)::

    [dampi dist] workers 3 | runs 57 (12.3/s) | leases 2 active / 4 pending | lag w1 0.1s w2 0.2s w3 2.9s | 8.2s elapsed
"""

from __future__ import annotations

import sys
import time
from typing import Optional, Sequence


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 120:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressReporter:
    """Writes campaign progress lines to ``stream`` at most every
    ``interval`` seconds."""

    def __init__(self, interval: float, stream=None, clock=time.monotonic):
        self.interval = float(interval)
        self._stream = stream
        self._clock = clock
        self._t0 = clock()
        self._last = float("-inf")
        self.lines_written = 0
        #: a TTY gets an in-place rewritten status line; anything else
        #: (pipe, file, test sink) gets plain newline lines, no ANSI
        probe = stream if stream is not None else sys.stderr
        isatty = getattr(probe, "isatty", None)
        try:
            self._tty = bool(isatty()) if callable(isatty) else False
        except (OSError, ValueError):
            self._tty = False
        self._open_line = False

    def _write(self, line: str) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        if self._tty:
            # rewrite the status line in place; newline only at close
            stream.write("\r\x1b[2K" + line)
            self._open_line = True
        else:
            stream.write(line + "\n")
        flush = getattr(stream, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Terminate an in-place TTY status line (no-op otherwise), so
        whatever prints next starts on a fresh line."""
        if self._open_line:
            stream = self._stream if self._stream is not None else sys.stderr
            stream.write("\n")
            flush = getattr(stream, "flush", None)
            if flush is not None:
                flush()
            self._open_line = False

    def tick(self, completed: int, queued: int, frontier_depth: int,
             eta_seconds: Optional[float] = None,
             force: bool = False) -> bool:
        """Emit a heartbeat if due; returns whether a line was written."""
        now = self._clock()
        if not force and now - self._last < self.interval:
            return False
        self._last = now
        parts = [
            f"runs {completed} done / {queued} queued",
            f"frontier {frontier_depth}",
        ]
        parts.append(f"{_fmt_seconds(now - self._t0)} elapsed")
        if eta_seconds is not None:
            parts.append(f"eta ~{_fmt_seconds(eta_seconds)}")
        self._write("[dampi] " + " | ".join(parts))
        self.lines_written += 1
        return True

    def merge_tick(
        self,
        frames: Sequence[dict],
        active_leases: int,
        pending_leases: int,
        force: bool = False,
    ) -> bool:
        """One aggregated heartbeat from many producers.

        ``frames`` is the coordinator's latest progress frame per worker:
        dicts with ``worker`` (id), ``runs`` (replays consumed so far),
        and ``seen`` (the coordinator-clock timestamp of the worker's
        last message, for the lag column).  Throughput is computed from
        the delta in total runs between emitted lines, so it reflects the
        whole fleet, not any single worker."""
        now = self._clock()
        if not force and now - self._last < self.interval:
            return False
        self._last = now
        total = sum(int(f.get("runs") or 0) for f in frames)
        prev_total, prev_at = getattr(self, "_merge_prev", (0, self._t0))
        dt = now - prev_at
        rate = (total - prev_total) / dt if dt > 0 else 0.0
        self._merge_prev = (total, now)
        lags = " ".join(
            f"w{f.get('worker')} {max(0.0, now - f['seen']):.1f}s"
            for f in sorted(frames, key=lambda f: f.get("worker") or 0)
            if f.get("seen") is not None
        )
        parts = [
            f"workers {len(frames)}",
            f"runs {total} ({rate:.1f}/s)",
            f"leases {active_leases} active / {pending_leases} pending",
        ]
        if lags:
            parts.append(f"lag {lags}")
        parts.append(f"{_fmt_seconds(now - self._t0)} elapsed")
        self._write("[dampi dist] " + " | ".join(parts))
        self.lines_written += 1
        return True

    def final(self, completed: int, errors: int, wall_seconds: float) -> None:
        """Closing line, always written (heartbeats may all have been
        throttled on a fast campaign).  Terminates the TTY status line."""
        if self.lines_written == 0 and wall_seconds < self.interval:
            self.close()
            return
        self._write(
            f"[dampi] done: {completed} runs, {errors} error(s), "
            f"{_fmt_seconds(wall_seconds)}"
        )
        self.close()
