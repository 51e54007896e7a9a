"""Thin HTTP/1.1 façade over the job service (stdlib asyncio only).

A convenience surface for ``curl``-style introspection and one-shot
submission next to the primary NDJSON socket protocol:

- ``GET /healthz`` — health probe: 200 ``{"ok": true}``, or 503 with a
  ``reason`` once the process pool is broken;
- ``GET /stats`` — scheduler/cache/dedup counters;
- ``POST /jobs`` — submit (JSON body: ``client``, ``kind``, ``spec``,
  ``priority``, ``name``); returns the ``accepted`` event;
- ``GET /jobs/<id>`` — job status;
- ``GET /jobs/<id>/stream`` — the job's event stream as
  ``application/x-ndjson`` with ``Connection: close`` (the close marks the
  end of the body, so plain HTTP/1.1 clients need no chunked decoding).

Handlers only await :class:`JobService` coroutines — no blocking runtime
calls on the event loop (REPRO008).
"""

from __future__ import annotations

import asyncio
import json

from repro.service.engine import JobService

MAX_BODY_BYTES = 32 * 1024 * 1024


def _response(status: str, payload: dict) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request into ``(method, path, body)`` or ``None`` on EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("ascii", errors="replace").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("ascii", errors="replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = 0
    if content_length > MAX_BODY_BYTES:
        return method, path, None
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body


async def handle_http(
    service: JobService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve exactly one HTTP exchange, then close."""
    try:
        request = await _read_request(reader)
        if request is None:
            return
        method, path, body = request
        if body is None:
            writer.write(_response("413 Payload Too Large", {"error": "body too large"}))
        elif method == "GET" and path == "/healthz":
            health = service.health()
            status = "200 OK" if health["ok"] else "503 Service Unavailable"
            writer.write(_response(status, health))
        elif method == "GET" and path == "/stats":
            writer.write(_response("200 OK", service.stats()))
        elif method == "POST" and path == "/jobs":
            await _submit(service, body, writer)
        elif method == "GET" and path.startswith("/jobs/") and path.endswith("/stream"):
            await _stream(service, path[len("/jobs/") : -len("/stream")], writer)
        elif method == "GET" and path.startswith("/jobs/"):
            job_id = path[len("/jobs/") :]
            if job_id in service.jobs:
                writer.write(_response("200 OK", service.status(job_id)))
            else:
                writer.write(_response("404 Not Found", {"error": f"unknown job {job_id!r}"}))
        else:
            writer.write(_response("404 Not Found", {"error": f"no route {method} {path}"}))
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    except Exception as exc:  # noqa: BLE001 - surface as a 500, never crash
        try:
            writer.write(_response("500 Internal Server Error", {"error": str(exc)}))
            await writer.drain()
        except ConnectionError:
            pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def _submit(service: JobService, body: bytes, writer: asyncio.StreamWriter) -> None:
    try:
        payload = json.loads(body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
    except (ValueError, UnicodeDecodeError) as exc:
        writer.write(_response("400 Bad Request", {"error": str(exc)}))
        return
    try:
        accepted = await service.submit(
            client=str(payload.get("client", "anonymous")),
            kind=str(payload.get("kind", "experiment")),
            payload=payload.get("spec") or {},
            priority=payload.get("priority", 1),
            name=str(payload.get("name", "")),
        )
    except (ValueError, RuntimeError) as exc:
        writer.write(_response("400 Bad Request", {"error": str(exc)}))
        return
    writer.write(_response("202 Accepted", accepted))


async def _stream(service: JobService, job_id: str, writer: asyncio.StreamWriter) -> None:
    if job_id not in service.jobs:
        writer.write(_response("404 Not Found", {"error": f"unknown job {job_id!r}"}))
        return
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )
    async for event in service.stream(job_id):
        writer.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
        await writer.drain()
