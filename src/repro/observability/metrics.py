"""Dependency-free metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is the process-wide sink every instrumented
module writes into. Metrics are identified by ``(name, labels)`` —
``registry.counter("spc_requests_total", status="shed")`` returns the
same :class:`Counter` on every call — and render into either the
Prometheus text exposition format (:func:`render_prometheus`) or a plain
JSON-able dict (:func:`snapshot`), so bench payloads and dashboards read
the same numbers.

**Zero overhead when disabled.** The process default is a *disabled*
registry: its ``counter``/``gauge``/``histogram`` constructors hand back
one shared no-op metric whose mutators do nothing, so instrumented hot
paths pay one attribute lookup and a no-op call — and the hottest loops
additionally guard their ``perf_counter`` reads behind
``registry.enabled``, making the disabled cost a single branch. Call
:func:`enable_metrics` (or install a registry with
:func:`set_registry`) to start recording; a bit-identity test asserts
labels are unchanged either way, and a CI smoke bounds the overhead.

Thread safety: every metric guards its state with a lock (a histogram
buffers observations in a deque, whose appends are atomic, and folds it
under its lock), and the registry guards its family table, so serving
threads and reload threads can bump concurrently.
"""

import bisect
import collections
import functools
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "scoped_registry",
    "render_prometheus",
    "snapshot",
]

#: Default histogram boundaries (seconds): 100 µs .. ~100 s, roughly
#: geometric — wide enough for query latencies and build pushes alike.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 100.0,
)

#: Buffered histogram observations folded into the buckets at once.
_FOLD_EVERY = 1024

#: Default boundaries for size-like observations (entries, bytes, chunks).
DEFAULT_SIZE_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
    100000, 1000000,
)


class _Scalar:
    """A counter's or gauge's value: its own total plus tracked sources."""

    __slots__ = ("name", "labels", "_value", "_lock", "_sources")

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()
        self._sources = ()

    def track(self, source):
        """Add ``source()``, a live reading kept elsewhere, to :attr:`value`.

        A hot path that already keeps a tally under its own lock publishes
        it this way at no cost per event: the metric reads it when read.
        Several sources (two services sharing one registry) add up.
        """
        with self._lock:
            self._sources += (source,)

    @property
    def value(self):
        """Current value."""
        return self._value + sum(source() for source in self._sources)

    def as_dict(self):
        """JSON-able snapshot of this metric."""
        return {"value": self.value}

    def __repr__(self):
        return f"{type(self).__name__}({self.name}{dict(self.labels)}={self.value})"


class Counter(_Scalar):
    """Monotonically increasing counter (Prometheus ``counter``)."""

    __slots__ = ()

    kind = "counter"

    def inc(self, amount=1):
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """Point-in-time value that can go up and down (Prometheus ``gauge``)."""

    __slots__ = ()

    kind = "gauge"

    def set(self, value):
        """Replace the gauge's own value (tracked sources still add)."""
        with self._lock:
            self._value = value

    def inc(self, amount=1):
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount=1):
        """Subtract ``amount``."""
        self.inc(-amount)


class Histogram:
    """Fixed-boundary histogram with cumulative bucket counts.

    ``buckets`` is an increasing sequence of upper bounds; an implicit
    ``+Inf`` bucket catches everything beyond the last bound (Prometheus
    ``histogram`` semantics: ``bucket[i]`` counts observations ``<=
    buckets[i]``, cumulatively in the rendered output). ``merge`` folds
    another histogram with identical boundaries into this one — how
    worker-process observations aggregate.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_lock",
                 "_pending")

    kind = "histogram"

    def __init__(self, name, buckets=DEFAULT_LATENCY_BUCKETS, labels=()):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must increase: {bounds}")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._lock = threading.Lock()
        self._pending = collections.deque()

    def observe(self, value):
        """Record one observation.

        The call only appends to a buffer (atomic, no lock); the buffer
        folds into the buckets every ``_FOLD_EVERY`` observations and
        before every read, which halves the cost of an observation on a
        hot path such as one served request.
        """
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_EVERY:
            with self._lock:
                self._fold()

    def _fold(self):
        """Move buffered observations into the buckets (lock held)."""
        pending = self._pending
        values = [pending.popleft() for _ in range(len(pending))]
        where = functools.partial(bisect.bisect_left, self.buckets)
        for index, hits in collections.Counter(map(where, values)).items():
            self._counts[index] += hits
        self._sum += sum(values)

    def merge(self, other):
        """Fold ``other`` (identical boundaries) into this histogram."""
        if not isinstance(other, Histogram) or other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {getattr(other, 'name', other)!r} "
                f"into {self.name!r}: bucket boundaries differ"
            )
        with other._lock:
            other._fold()
            counts = list(other._counts)
            total = other._sum
        with self._lock:
            self._fold()
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total

    @property
    def count(self):
        """Total number of observations."""
        return sum(self.bucket_counts())

    @property
    def sum(self):
        """Sum of all observed values."""
        with self._lock:
            self._fold()
            return self._sum

    def bucket_counts(self):
        """Non-cumulative per-bucket counts (last entry is ``+Inf``)."""
        with self._lock:
            self._fold()
            return list(self._counts)

    def cumulative_counts(self):
        """Cumulative counts as rendered by the Prometheus format."""
        total = 0
        out = []
        for c in self.bucket_counts():
            total += c
            out.append(total)
        return out

    def quantile(self, q):
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        Returns 0.0 with no observations and ``inf`` when the quantile
        lands in the ``+Inf`` bucket — a coarse but dependency-free p50/p95
        for operator summaries; exact percentiles belong to the bench
        harness.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        counts = self.bucket_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for i, c in enumerate(counts):
            running += c
            if running >= rank and c:
                return self.buckets[i] if i < len(self.buckets) else float("inf")
        return float("inf")

    def as_dict(self):
        """JSON-able snapshot: boundaries, raw counts, sum and count."""
        with self._lock:
            self._fold()
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": sum(self._counts),
            }

    def __repr__(self):
        return (f"Histogram({self.name}{dict(self.labels)}: "
                f"count={self.count}, sum={self.sum:.6f})")


class _NoopMetric:
    """Shared do-nothing metric handed out by a disabled registry."""

    __slots__ = ()

    kind = "noop"
    name = "<noop>"
    labels = ()
    buckets = ()
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount=1):
        """No-op."""

    def dec(self, amount=1):
        """No-op."""

    def set(self, value):
        """No-op."""

    def track(self, source):
        """No-op."""

    def observe(self, value):
        """No-op."""

    def merge(self, other):
        """No-op."""

    def as_dict(self):
        """Empty snapshot."""
        return {}


_NOOP = _NoopMetric()


def _label_key(labels):
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Process-wide table of named metrics.

    ``counter(name, help=..., **labels)`` (and ``gauge`` / ``histogram``)
    get-or-create the metric for that exact ``(name, labels)`` pair; the
    first call fixes the metric's type, help text and label *names*, and
    later conflicting calls raise ``ValueError`` — a typo never silently
    forks a metric family. A registry constructed with ``enabled=False``
    returns one shared no-op metric from every constructor and records
    nothing.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics = {}   # (name, label_key) -> metric
        self._families = {}  # name -> (kind, help, label_names)

    def _get(self, cls, name, help, labels, **kwargs):
        if not self.enabled:
            return _NOOP
        key = (name, _label_key(labels))
        # Lock-free hit path: dict reads are atomic under the GIL and keys
        # are never removed outside clear(). Taking the lock here puts the
        # busiest line of every instrumented hot path behind one mutex —
        # a preempted holder then convoys every serving thread.
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if metric.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}"
                    )
                return metric
            family = self._families.get(name)
            label_names = tuple(sorted(labels))
            if family is None:
                self._families[name] = (cls.kind, help, label_names)
            else:
                kind, known_help, known_labels = family
                if kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {kind}"
                    )
                if known_labels != label_names:
                    raise ValueError(
                        f"metric {name!r} uses labels {list(known_labels)}, "
                        f"got {list(label_names)}"
                    )
                if help and not known_help:
                    self._families[name] = (kind, help, known_labels)
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name, help="", **labels):
        """Get-or-create the :class:`Counter` for ``(name, labels)``."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name, help="", **labels):
        """Get-or-create the :class:`Gauge` for ``(name, labels)``."""
        return self._get(Gauge, name, help, labels)

    def histogram(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS,
                  **labels):
        """Get-or-create the :class:`Histogram` for ``(name, labels)``."""
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def describe(self, name, help):
        """Attach ``help`` text to an existing family missing one.

        No-op when the family is unknown or already documented; lets the
        metric catalog backfill help text onto registries populated by
        hot-path call sites (which skip ``help=`` to stay lean).
        """
        with self._lock:
            family = self._families.get(name)
            if family is not None and help and not family[1]:
                self._families[name] = (family[0], help, family[2])

    def families(self):
        """``{name: (kind, help, label_names)}`` for every known family."""
        with self._lock:
            return dict(self._families)

    def collect(self):
        """Metrics sorted by ``(name, labels)``, stable for rendering."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [metric for _, metric in items]

    def get(self, name, **labels):
        """The existing metric for ``(name, labels)``, or ``None``."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def sum_values(self, name):
        """Sum of a counter/gauge family's values across all label sets."""
        with self._lock:
            return sum(
                metric.value for (key_name, _), metric in self._metrics.items()
                if key_name == name and metric.kind in ("counter", "gauge")
            )

    def clear(self):
        """Drop every metric and family (tests and fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()
            self._families.clear()

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, families={len(self._families)})"


def _format_label_set(labels):
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def render_prometheus(registry=None):
    """Render every metric in the Prometheus text exposition format."""
    registry = registry if registry is not None else get_registry()
    lines = []
    seen_families = set()
    families = registry.families()
    for metric in registry.collect():
        name = metric.name
        if name not in seen_families:
            seen_families.add(name)
            kind, help_text, _ = families.get(name, (metric.kind, "", ()))
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
        labels = _format_label_set(metric.labels)
        if metric.kind == "histogram":
            cumulative = metric.cumulative_counts()
            for bound, total in zip(metric.buckets, cumulative):
                le = list(metric.labels) + [("le", format(bound, "g"))]
                lines.append(f"{name}_bucket{_format_label_set(le)} {total}")
            le = list(metric.labels) + [("le", "+Inf")]
            lines.append(f"{name}_bucket{_format_label_set(le)} {cumulative[-1]}")
            lines.append(f"{name}_sum{labels} {format(metric.sum, 'g')}")
            lines.append(f"{name}_count{labels} {metric.count}")
        else:
            lines.append(f"{name}{labels} {format(metric.value, 'g')}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry=None):
    """JSON-able dump: ``{name: [{labels, type, ...metric fields}]}``.

    This is the form bench payloads embed (``BENCH_*.json["metrics"]``),
    so recorded runs carry the same numbers an operator would scrape.
    """
    registry = registry if registry is not None else get_registry()
    out = {}
    for metric in registry.collect():
        entry = {"labels": dict(metric.labels), "type": metric.kind}
        entry.update(metric.as_dict())
        out.setdefault(metric.name, []).append(entry)
    return out


# -- process-global registry ----------------------------------------------

_registry = MetricsRegistry(enabled=False)
_registry_lock = threading.Lock()


def get_registry():
    """The process-global registry (a disabled no-op one by default)."""
    return _registry


def set_registry(registry):
    """Install ``registry`` as the process-global sink; returns the old one."""
    global _registry
    with _registry_lock:
        previous = _registry
        _registry = registry
    return previous


def enable_metrics():
    """Install and return a fresh enabled registry (idempotent-ish).

    If the current global registry is already enabled it is returned
    unchanged, so library entry points can call this defensively.
    """
    current = get_registry()
    if current.enabled:
        return current
    registry = MetricsRegistry(enabled=True)
    set_registry(registry)
    return registry


def disable_metrics():
    """Restore the disabled no-op default; returns the previous registry."""
    return set_registry(MetricsRegistry(enabled=False))


class scoped_registry:
    """Context manager installing ``registry`` for the ``with`` body.

    >>> with scoped_registry(MetricsRegistry()) as reg:
    ...     reg.counter("example_total").inc()
    """

    def __init__(self, registry):
        self._registry = registry
        self._previous = None

    def __enter__(self):
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb):
        set_registry(self._previous)
        return False
