"""A shared retry policy for every transient-failure loop in the stack.

Every transient-failure loop (shard reads and opens in
``grid/sharded.py``, current→prev fallback in ``run/checkpoint.py``)
shares one policy.  This module centralizes the knobs — bounded attempts, exponential
backoff with a cap, per-class retryability — so all layers degrade the
same way and chaos tests can reason about one policy.

Backoff jitter is a **deterministic** hash of the attempt number (a
Weyl-style multiplicative mix), not a random draw: the repro-lint rules
ban unseeded randomness (RPL001) and wall-clock reads (RPL002) in
library code, and determinism here keeps chaos-test timings stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..exceptions import ValidationError

__all__ = ["RetryPolicy"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-attempt retry with capped exponential backoff.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    initial attempt plus two retries.  ``backoff`` is the delay before
    the first retry, doubling each retry up to ``backoff_cap``.
    ``jitter`` scales a deterministic per-attempt perturbation (0 → no
    jitter) so co-scheduled retries de-synchronize without randomness.
    ``retryable`` is the exception tuple worth retrying; anything else
    propagates on first failure.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_cap: float = 1.0
    jitter: float = 0.0
    retryable: tuple[type[BaseException], ...] = (OSError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.backoff < 0 or self.backoff_cap < 0 or self.jitter < 0:
            raise ValidationError(
                "backoff, backoff_cap and jitter must be >= 0"
            )

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether *exc* belongs to a class this policy retries."""
        return isinstance(exc, self.retryable)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based), in seconds."""
        if attempt < 1:
            return 0.0
        base = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        if not self.jitter:
            return base
        # Deterministic jitter: Knuth's multiplicative hash of the
        # attempt index, folded to [0, 1).
        frac = ((attempt * 2654435761) & 0xFFF) / 4096.0
        return base * (1.0 + self.jitter * frac)

    def call(
        self,
        fn: Callable[[], T],
        *,
        describe: str = "operation",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, BaseException], None] | None = None,
        on_recover: Callable[[int], None] | None = None,
    ) -> T:
        """Run *fn* under this policy, returning its result.

        ``on_retry(attempt, exc)`` fires before each backoff sleep;
        ``on_recover(retries)`` fires when a call succeeds after at
        least one retry.  The last retryable exception is re-raised
        unchanged once the attempt budget is exhausted — callers wrap
        it in a typed :class:`~repro.exceptions.ReproError` at the API
        boundary.
        """
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = fn()
            except self.retryable as exc:
                last = exc
                if attempt == self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                pause = self.delay(attempt)
                if pause > 0:
                    sleep(pause)
                continue
            if attempt > 1 and on_recover is not None:
                on_recover(attempt - 1)
            return result
        raise last if last is not None else RuntimeError(
            f"{describe}: retry loop exited without result"
        )
