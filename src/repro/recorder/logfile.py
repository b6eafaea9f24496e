"""The log-file format ("recorded information", fig. 1 (d)).

A versioned, line-oriented text format close to the listing in the paper's
fig. 2.  One record per line::

    0.000113 T1 ret thr_create target=T4 arg=0 status=ok src=ex.c|12|main

* column 1 — timestamp in seconds with µs resolution (``format_us``),
* column 2 — thread id (``T`` + integer),
* column 3 — phase (``call`` / ``ret``),
* column 4 — primitive name,
* remaining columns — ``key=value`` attributes: ``obj`` / ``obj2``
  (``kind:name``), ``target`` (``T`` + id), ``arg`` (int), ``status``,
  and ``src`` (``file|line|function``, percent-encoded).

Header lines start with ``#`` and carry the metadata: format version,
program name, probe overhead and the ``thr_create`` function-name table
resolved by the debugger in the real tool (§3.1).

§4 reports log sizes (Ocean: 1.4 MB) and notes they can reach 15 MB for
long fine-grained runs; :func:`dumps`/:func:`loads` are the size and
round-trip surface those experiments measure.
"""

from __future__ import annotations

import io
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.errors import LogFormatError
from repro.core.events import EventRecord, Phase, SourceLocation, Status
from repro.recorder.posix import primitive_for_name, to_posix_name
from repro.core.ids import SyncObjectId, ThreadId
from repro.core.timebase import US_PER_SECOND, format_us
from repro.core.trace import Trace, TraceMeta

__all__ = ["FORMAT_VERSION", "dump", "dumps", "load", "loads"]

FORMAT_VERSION = 1

#: Callback a lenient parse uses to report a tolerated problem instead of
#: raising: ``on_repair(kind, detail)``.
RepairHook = Callable[[str, str], None]

_PHASES_BY_NAME = {p.value: p for p in Phase}
_STATUS_BY_NAME = {s.value: s for s in Status}


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _encode_source(src: SourceLocation) -> str:
    quote = urllib.parse.quote
    return f"{quote(src.file, safe='/.')}|{src.line}|{quote(src.function, safe='')}"


def _decode_source(text: str, lineno: int, line: str = "") -> SourceLocation:
    parts = text.split("|")
    if len(parts) != 3:
        raise _fail(f"bad src field {text!r}", lineno, line, text)
    unquote = urllib.parse.unquote
    try:
        src_line = int(parts[1])
    except ValueError as exc:
        raise _fail(f"bad src line number {parts[1]!r}", lineno, line, parts[1]) from exc
    return SourceLocation(file=unquote(parts[0]), line=src_line, function=unquote(parts[2]))


def _record_line(
    rec: EventRecord, sources: Dict[SourceLocation, str], *, posix_names: bool = False
) -> str:
    """One record's log line; *sources* memoises encoded ``src=`` texts
    across the lines of one serialisation."""
    name = to_posix_name(rec.primitive) if posix_names else rec.primitive.value
    fields = [
        format_us(rec.time_us),
        f"T{int(rec.tid)}",
        rec.phase.value,
        name,
    ]
    if rec.obj is not None:
        fields.append(f"obj={rec.obj.kind}:{rec.obj.name}")
    if rec.obj2 is not None:
        fields.append(f"obj2={rec.obj2.kind}:{rec.obj2.name}")
    if rec.target is not None:
        fields.append(f"target=T{int(rec.target)}")
    if rec.arg is not None:
        fields.append(f"arg={rec.arg}")
    if rec.status is not None:
        fields.append(f"status={rec.status.value}")
    source = rec.source
    if source is not None:
        text = sources.get(source)
        if text is None:
            text = sources[source] = _encode_source(source)
        fields.append(f"src={text}")
    return " ".join(fields)


def dumps(trace: Trace, *, posix_names: bool = False) -> str:
    """Serialise a trace to log-file text.

    ``posix_names=True`` renders primitives under their POSIX spellings
    (``pthread_mutex_lock`` ...) — the §6 portability hook; the parser
    accepts both conventions either way.
    """
    out = io.StringIO()
    out.write(f"# vppb-log {FORMAT_VERSION}\n")
    out.write(f"# program: {trace.meta.program}\n")
    out.write(f"# probe-overhead-us: {trace.meta.probe_overhead_us}\n")
    for tid, func in sorted(trace.meta.thread_functions.items()):
        out.write(f"# thread-function: {tid} {urllib.parse.quote(func, safe='')}\n")
    if trace.meta.comment:
        out.write(f"# comment: {trace.meta.comment}\n")
    # a log names a few dozen call sites; quote each once per dump
    sources: Dict[SourceLocation, str] = {}
    for rec in trace:
        out.write(_record_line(rec, sources, posix_names=posix_names))
        out.write("\n")
    return out.getvalue()


def dump(trace: Trace, path: Union[str, Path]) -> int:
    """Write the log file; returns its size in bytes (§4 statistic)."""
    text = dumps(trace)
    data = text.encode()
    Path(path).write_bytes(data)
    return len(data)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _fail(message: str, lineno: int, line: str, token: Optional[str] = None) -> LogFormatError:
    """Build a LogFormatError carrying the line text and a caret column."""
    column = None
    if token:
        pos = line.find(token)
        if pos >= 0:
            column = pos
    return LogFormatError(message, lineno=lineno, line=line, column=column)


def _parse_time(text: str, lineno: int, line: str) -> int:
    try:
        if "." in text:
            whole, frac = text.split(".", 1)
            frac = (frac + "000000")[:6]
            value = int(whole) * US_PER_SECOND
            value += -int(frac) if whole.startswith("-") else int(frac)
            return value
        return int(text) * US_PER_SECOND
    except ValueError as exc:
        raise _fail(f"bad timestamp {text!r}", lineno, line, text) from exc


def _parse_tid(text: str, lineno: int, line: str) -> ThreadId:
    if not text.startswith("T"):
        raise _fail(f"bad thread id {text!r}", lineno, line, text)
    try:
        return ThreadId(int(text[1:]))
    except ValueError as exc:
        raise _fail(f"bad thread id {text!r}", lineno, line, text) from exc


def _parse_obj(text: str, lineno: int, line: str) -> SyncObjectId:
    kind, sep, name = text.partition(":")
    if not sep or not kind:
        raise _fail(f"bad object id {text!r}", lineno, line, text)
    return SyncObjectId(kind, name)


#: EventRecord's optional fields in constructor order, by log attribute key
_ATTR_SLOTS = {"obj": 0, "obj2": 1, "target": 2, "arg": 3, "status": 4, "src": 5}

#: Per-parse memo: raw attribute token (``obj=mutex:buf``) -> (slot in
#: ``_ATTR_SLOTS`` order, decoded value).  Owned by one parse, never shared.
AttrMemo = Dict[str, Tuple[int, object]]


def _parse_attr(token: str, lineno: int, line: str) -> Tuple[int, object]:
    """Decode one ``key=value`` attribute token into (slot, value)."""
    key, sep, value = token.partition("=")
    if not sep:
        raise _fail(f"bad attribute {token!r}", lineno, line, token)
    slot = _ATTR_SLOTS.get(key)
    if slot is None:
        raise _fail(f"unknown attribute key {key!r}", lineno, line, key)
    if slot <= 1:
        return slot, _parse_obj(value, lineno, line)
    if slot == 2:
        return slot, _parse_tid(value, lineno, line)
    if slot == 3:
        try:
            return slot, int(value)
        except ValueError as exc:
            raise _fail(f"bad arg {value!r}", lineno, line, value) from exc
    if slot == 4:
        status = _STATUS_BY_NAME.get(value)
        if status is None:
            raise _fail(f"unknown status {value!r}", lineno, line, value)
        return slot, status
    return slot, _decode_source(value, lineno, line)


def _parse_record(
    line: str,
    lineno: int,
    memo: AttrMemo,
    *,
    on_repair: Optional[RepairHook] = None,
) -> EventRecord:
    """Parse one record line.

    Attribute tokens repeat heavily (a log names a few dozen objects and
    call sites), so each distinct token is decoded once per parse through
    *memo*; records then share the frozen decoded values.  Only successful
    decodes are memoised, so every damaged token is still reported.

    With ``on_repair`` set (lenient mode), attribute-level damage —
    unknown attribute keys, unparsable attribute values, a negative
    timestamp — is reported through the hook and skipped/clamped instead
    of raising; only damage to the four mandatory columns still raises.
    """
    fields = line.split()
    if len(fields) < 4:
        raise LogFormatError("record needs at least 4 fields", lineno=lineno, line=line)
    time_us = _parse_time(fields[0], lineno, line)
    if time_us < 0:
        if on_repair is None:
            raise _fail(f"negative timestamp {fields[0]!r}", lineno, line, fields[0])
        on_repair("clamped-negative-timestamp", f"{fields[0]} -> 0.000000")
        time_us = 0
    tid = _parse_tid(fields[1], lineno, line)
    phase = _PHASES_BY_NAME.get(fields[2])
    if phase is None:
        raise _fail(f"unknown phase {fields[2]!r}", lineno, line, fields[2])
    primitive = primitive_for_name(fields[3])
    if primitive is None:
        raise _fail(f"unknown primitive {fields[3]!r}", lineno, line, fields[3])

    attrs: List[object] = [None] * len(_ATTR_SLOTS)
    for token in fields[4:]:
        decoded = memo.get(token)
        if decoded is None:
            try:
                decoded = _parse_attr(token, lineno, line)
            except LogFormatError as exc:
                if on_repair is None:
                    raise
                on_repair("skipped-attribute", exc.message)
                continue
            memo[token] = decoded
        attrs[decoded[0]] = decoded[1]
    return EventRecord(time_us, tid, phase, primitive, *attrs)  # type: ignore[arg-type]


@dataclass
class _HeaderAcc:
    """Metadata accumulated from ``#`` header lines during a parse."""

    program: str = "a.out"
    overhead: int = 0
    comment: str = ""
    functions: Dict[int, str] = field(default_factory=dict)
    saw_version: bool = False

    def meta(self) -> TraceMeta:
        return TraceMeta(
            program=self.program,
            thread_functions=self.functions,
            probe_overhead_us=self.overhead,
            comment=self.comment,
        )


def _parse_header_line(
    acc: _HeaderAcc, line: str, lineno: int, *, on_repair: Optional[RepairHook] = None
) -> None:
    """Apply one ``#`` line to *acc* (lenient mode reports and ignores damage)."""
    body = line[1:].strip()
    try:
        if body.startswith("vppb-log"):
            try:
                version = int(body.split()[1])
            except (IndexError, ValueError) as exc:
                raise _fail("bad version header", lineno, line) from exc
            if version != FORMAT_VERSION:
                raise _fail(f"unsupported log version {version}", lineno, line, str(version))
            if acc.saw_version and on_repair is not None:
                on_repair("duplicate-header", "repeated '# vppb-log' line")
            acc.saw_version = True
        elif body.startswith("program:"):
            acc.program = body.split(":", 1)[1].strip()
        elif body.startswith("probe-overhead-us:"):
            try:
                acc.overhead = int(body.split(":", 1)[1].strip())
            except ValueError as exc:
                raise _fail("bad probe overhead", lineno, line) from exc
        elif body.startswith("thread-function:"):
            rest = body.split(":", 1)[1].split()
            if len(rest) != 2:
                raise _fail("bad thread-function header", lineno, line)
            try:
                acc.functions[int(rest[0])] = urllib.parse.unquote(rest[1])
            except ValueError as exc:
                raise _fail("bad thread-function id", lineno, line, rest[0]) from exc
        elif body.startswith("comment:"):
            acc.comment = body.split(":", 1)[1].strip()
        # unknown comment lines are tolerated (forward compatibility)
    except LogFormatError as exc:
        if on_repair is None:
            raise
        on_repair("ignored-bad-header", exc.message)


def loads(
    text: str,
    *,
    validate: bool = True,
    mode: str = "strict",
    source: Optional[str] = None,
) -> Trace:
    """Parse log-file text back into a :class:`Trace`.

    ``mode="strict"`` (default) raises :class:`LogFormatError` on the
    first problem; ``mode="lenient"`` runs the salvage pipeline
    (:mod:`repro.recorder.salvage`) and returns the best-effort trace —
    use :func:`repro.recorder.salvage.salvage_loads` to also get the
    :class:`~repro.recorder.salvage.SalvageReport`.  ``source`` (a file
    path or label) is attached to error messages.
    """
    if mode == "lenient":
        from repro.recorder.salvage import salvage_loads

        return salvage_loads(text, source=source, validate=validate).trace
    if mode != "strict":
        raise ValueError(f"unknown mode {mode!r} (expected 'strict' or 'lenient')")

    acc = _HeaderAcc()
    records: List[EventRecord] = []
    memo: AttrMemo = {}
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                _parse_header_line(acc, line, lineno)
                continue
            records.append(_parse_record(line, lineno, memo))
        if not acc.saw_version:
            raise LogFormatError("missing '# vppb-log <version>' header", lineno=1)
    except LogFormatError as exc:
        exc.source = source
        raise
    return Trace(records, acc.meta(), validate=validate)


def load(
    path: Union[str, Path],
    *,
    validate: bool = True,
    mode: str = "strict",
) -> Trace:
    """Read a log file from disk.

    Accepts the same ``mode``/``validate`` keywords as :func:`loads` and
    propagates the file path into any error message.
    """
    return loads(
        Path(path).read_text(), validate=validate, mode=mode, source=str(path)
    )
