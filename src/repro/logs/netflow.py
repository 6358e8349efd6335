"""NetFlow substrate: flow records and passive-DNS domain attribution.

Section II-C claims the detection patterns are "common in various types
of network data (e.g., NetFlow, DNS logs, web proxies logs, full packet
capture)".  DNS and proxy logs are evaluated in the paper; this module
supplies the NetFlow leg so the same pipeline runs on flow exports.

A flow record carries no domain name, only a destination address, so
flows must be joined against a passive-DNS view -- the set of
(domain -> address) bindings observed in the site's own DNS traffic.
That is exactly what enterprise deployments do, and the join preserves
the paper's domain-centric analysis: flows to an address resolve to the
folded domain that most recently mapped there.

Line format (space separated, ``-`` for empty)::

    <epoch> <src_ip> <dst_ip> <dst_port> <proto> <bytes> <packets>
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import isfinite

from .records import Connection, DnsRecord

#: Ports the paper's HTTP/HTTPS focus keeps (Section II-A: backdoors
#: speak HTTP/HTTPS because enterprise firewalls allow them).
WEB_PORTS = frozenset({80, 443, 8080, 8443})


class NetflowFormatError(ValueError):
    """Raised when a flow log line cannot be parsed."""


@dataclass(frozen=True, slots=True)
class NetflowRecord:
    """One unidirectional flow export."""

    timestamp: float
    source_ip: str
    destination_ip: str
    destination_port: int
    protocol: str = "TCP"
    byte_count: int = 0
    packet_count: int = 0

    @property
    def is_web(self) -> bool:
        return self.destination_port in WEB_PORTS


def format_netflow_line(record: NetflowRecord) -> str:
    """Serialize a :class:`NetflowRecord` to one log line."""
    return (
        f"{record.timestamp:.3f} {record.source_ip} {record.destination_ip} "
        f"{record.destination_port} {record.protocol} "
        f"{record.byte_count} {record.packet_count}"
    )


def parse_netflow_line(line: str) -> NetflowRecord:
    """Parse one flow log line.

    Raises :class:`NetflowFormatError` on malformed input, including a
    non-finite (``nan``/``inf``) timestamp.
    """
    parts = line.split()
    if len(parts) != 7:
        raise NetflowFormatError(f"expected 7 fields, got {len(parts)}: {line!r}")
    raw_ts, src, dst, raw_port, proto, raw_bytes, raw_packets = parts
    try:
        record = NetflowRecord(
            timestamp=float(raw_ts),
            source_ip=src,
            destination_ip=dst,
            destination_port=int(raw_port),
            protocol=proto,
            byte_count=int(raw_bytes),
            packet_count=int(raw_packets),
        )
    except ValueError as exc:
        raise NetflowFormatError(f"bad numeric field in {line!r}") from exc
    if not isfinite(record.timestamp):
        raise NetflowFormatError(f"non-finite timestamp {raw_ts!r}")
    return record


def parse_netflow_log(
    lines: Iterable[str], *, skip_malformed: bool = True
) -> Iterator[NetflowRecord]:
    """Stream-parse an iterable of flow log lines."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            yield parse_netflow_line(line)
        except NetflowFormatError:
            if not skip_malformed:
                raise


class PassiveDnsMap:
    """Time-aware (address -> domain) view built from DNS answers.

    Each successful A-record answer binds the answered address to the
    (folded) queried domain from the answer's timestamp onward, until a
    different domain is observed for the same address.  Lookups return
    the binding in force at the flow's timestamp -- bindings never look
    into the future, so the join is causally sound for streaming use.
    """

    def __init__(self, *, fold_level: int = 2) -> None:
        self.fold_level = fold_level
        self._bindings: dict[str, list[tuple[float, str]]] = {}

    def observe(self, record: DnsRecord) -> None:
        """Fold one DNS answer into the map (must arrive time-ordered
        per address; out-of-order inserts are handled but cost O(n))."""
        if not record.resolved_ip or not record.is_a_record:
            return
        from .domains import fold_domain

        domain = fold_domain(record.domain, self.fold_level)
        history = self._bindings.setdefault(record.resolved_ip, [])
        if history and history[-1][0] <= record.timestamp:
            if history[-1][1] != domain:
                history.append((record.timestamp, domain))
            return
        timestamps = [t for t, _ in history]
        index = bisect_right(timestamps, record.timestamp)
        history.insert(index, (record.timestamp, domain))

    def observe_all(self, records: Iterable[DnsRecord]) -> None:
        for record in records:
            self.observe(record)

    def lookup(self, ip: str, timestamp: float) -> str | None:
        """Domain bound to ``ip`` at ``timestamp``, or ``None``."""
        history = self._bindings.get(ip)
        if not history:
            return None
        timestamps = [t for t, _ in history]
        index = bisect_right(timestamps, timestamp) - 1
        if index < 0:
            return None
        return history[index][1]

    def __len__(self) -> int:
        return len(self._bindings)


def normalize_netflow_records(
    records: Iterable[NetflowRecord],
    pdns: PassiveDnsMap,
    *,
    web_only: bool = True,
    host_of_ip=None,
) -> Iterator[Connection]:
    """Join flows against passive DNS into :class:`Connection` events.

    Flows to addresses with no DNS binding are dropped -- they are the
    direct-to-IP connections the paper excludes.  ``host_of_ip`` maps a
    source address to a stable host identifier (e.g. an
    :class:`~repro.logs.normalize.IpResolver` resolve method); identity
    by default, which suits statically addressed networks.
    """
    for record in records:
        if web_only and not record.is_web:
            continue
        domain = pdns.lookup(record.destination_ip, record.timestamp)
        if domain is None:
            continue
        if host_of_ip is not None:
            host = host_of_ip(record.source_ip, record.timestamp)
        else:
            host = record.source_ip
        yield Connection(
            timestamp=record.timestamp,
            host=host,
            domain=domain,
            resolved_ip=record.destination_ip,
            user_agent=None,
            referer=None,
        )
