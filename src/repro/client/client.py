"""The Python client library.

Typical use::

    proxy = ServiceProxy("http://host:9000/services/invert")
    print(proxy.describe().inputs)

    job = proxy.submit(n=200, method="block")
    result = job.result(timeout=600)       # waits, raises on failure

    quick = proxy(n=10)                     # submit + wait in one round trip

Waiting rides on the requests themselves (``?wait=<seconds>``): a waited
submit (``POST …?wait=``) is answered when the job has settled, so a job
shorter than :data:`LONG_POLL_CHUNK` costs one request, and a longer one
continues with long-poll ``GET`` requests. A handle that already holds a
terminal representation — from a waited submit, a synchronous service or
a cache hit — never asks again. Whether the server honours ``wait`` is
observed, not assumed: one that ignores it on the submit answers
``WAITING`` at once and the handle simply goes on to ``GET``; one that
ignores it there too is detected and polled the paper's plain way.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.core.description import ServiceDescription
from repro.core.filerefs import file_uri, is_file_ref
from repro.core.jobs import JobState
from repro.http.client import IDEMPOTENCY_KEY_HEADER, RestClient, new_idempotency_key
from repro.http.registry import TransportRegistry


class JobFailedError(Exception):
    """The job ended FAILED or CANCELLED; carries the service's error."""

    def __init__(self, state: str, error: str, job_uri: str):
        super().__init__(f"job {job_uri} ended {state}: {error}")
        self.state = state
        self.error = error
        self.job_uri = job_uri


#: One long-poll block per request. Kept under the transports' socket
#: timeout; waits longer than this chain requests.
LONG_POLL_CHUNK = 10.0


class JobHandle:
    """A client-side view of one job resource."""

    def __init__(self, uri: str, client: RestClient):
        self.uri = uri
        self._client = client
        #: The latest representation seen (seeded by the submit's 201).
        self._last: dict[str, Any] = {}
        #: The validator of the cached representation; polls send it as
        #: ``If-None-Match`` so an unchanged job answers 304, body-free.
        self._etag: str | None = None
        #: Whether the server honours ``?wait=``: None until observed,
        #: False once a long-poll GET provably returned early.
        self._long_poll: bool | None = None

    def _get(self, query: "Mapping[str, Any] | None" = None) -> dict[str, Any]:
        etag = self._etag if self._last else None
        representation, self._etag, not_modified = self._client.get_conditional(
            self.uri, etag=etag, query=query
        )
        if not not_modified:
            self._last = representation
        return self._last

    def refresh(self) -> dict[str, Any]:
        """``GET`` the job resource and cache its representation
        (conditionally: an unchanged job costs a 304, not a body)."""
        return self._get()

    def poll(self, wait: float = 0.0) -> dict[str, Any]:
        """One GET, long-polling up to ``wait`` seconds when supported.

        A conforming server blocks the full ``wait`` unless the job turns
        terminal; a server that ignores the parameter answers immediately,
        which is detected here and remembered so callers can fall back to
        plain polling.
        """
        if wait <= 0 or self._long_poll is False:
            return self.refresh()
        started = time.monotonic()
        self._get(query={"wait": f"{wait:g}"})
        elapsed = time.monotonic() - started
        if not JobState(self._last["state"]).terminal:
            if wait >= 0.1 and elapsed < wait / 2:
                self._long_poll = False
            elif self._long_poll is None and elapsed >= wait / 2:
                self._long_poll = True
        return self._last

    @property
    def long_poll_supported(self) -> "bool | None":
        return self._long_poll

    @property
    def representation(self) -> dict[str, Any]:
        return self._last or self.refresh()

    @property
    def state(self) -> JobState:
        return JobState(self.representation["state"])

    @property
    def done(self) -> bool:
        return JobState(self.refresh()["state"]).terminal

    def wait(self, timeout: float | None = None, poll: float = 0.05) -> "JobHandle":
        """Block until the job is terminal.

        The primary path long-polls (``GET ...?wait=``), so completion is
        answered by the server's own transition signal with no poll
        latency. Against servers that ignore ``wait`` the handle degrades
        to the paper's plain polling with gentle backoff.
        """
        if self._last and JobState(self._last["state"]).terminal:
            # terminal is final: the submit's own reply (a waited submit, a
            # synchronous service, a cache hit) already settled it
            return self
        deadline = None if timeout is None else time.monotonic() + timeout
        interval = poll
        while True:
            if self._long_poll is False:
                representation = self.refresh()
            else:
                chunk = LONG_POLL_CHUNK
                if deadline is not None:
                    chunk = min(chunk, max(deadline - time.monotonic(), 0.001))
                representation = self.poll(wait=chunk)
            if JobState(representation["state"]).terminal:
                return self
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {self.uri} still {self._last['state']} after {timeout}s")
            if self._long_poll is False:  # explicit fallback: backoff polling
                time.sleep(interval)
                interval = min(interval * 1.5, 1.0)

    def result(self, timeout: float | None = None, poll: float = 0.05) -> dict[str, Any]:
        """Wait for completion and return the outputs (or raise)."""
        self.wait(timeout=timeout, poll=poll)
        state = self._last["state"]
        if state != JobState.DONE.value:
            raise JobFailedError(state, self._last.get("error", ""), self.uri)
        return self._last.get("results", {})

    def cancel(self) -> None:
        """``DELETE`` the job resource (cancel or clean up)."""
        self._client.delete(self.uri)

    def fetch(self, output: str | Mapping[str, Any]) -> bytes:
        """Download an output file, by output name or reference envelope."""
        if isinstance(output, str):
            reference = self.result().get(output)
            if not is_file_ref(reference):
                raise ValueError(f"output {output!r} is not a file reference")
        else:
            reference = dict(output)
        return self._client.get_bytes(file_uri(reference))

    def __repr__(self) -> str:
        state = self._last.get("state", "?")
        return f"JobHandle({self.uri!r}, state={state})"


class ServiceProxy:
    """A client-side view of one computational web service."""

    def __init__(
        self,
        uri: str,
        registry: TransportRegistry | None = None,
        headers: Mapping[str, str] | None = None,
        idempotent_submits: bool = False,
        retry_after_cap: float = 5.0,
    ):
        self.uri = uri.rstrip("/")
        self._client = RestClient(
            registry, base=self.uri, headers=headers, retry_after_cap=retry_after_cap
        )
        #: When True every submit carries a fresh ``Idempotency-Key``, so a
        #: gateway in front of the service may safely replay the POST after
        #: a connection-level failure (and dedupe accidental duplicates).
        self.idempotent_submits = idempotent_submits

    def with_headers(self, headers: Mapping[str, str]) -> "ServiceProxy":
        """A copy sending extra headers (credentials, delegation)."""
        proxy = ServiceProxy.__new__(ServiceProxy)
        proxy.uri = self.uri
        proxy._client = self._client.with_headers(headers)
        proxy.idempotent_submits = self.idempotent_submits
        return proxy

    def describe(self) -> ServiceDescription:
        """Introspect the service (``GET`` on the service resource)."""
        return ServiceDescription.from_json(self._client.get())

    def describe_raw(self) -> dict[str, Any]:
        return self._client.get()

    def submit_dict(
        self, inputs: dict[str, Any], idempotency_key: str | None = None, wait: float = 0.0
    ) -> JobHandle:
        """``POST`` a request; returns the handle of the created job.

        An explicit ``idempotency_key`` (or :attr:`idempotent_submits`)
        marks the POST as replayable for gateways and retry layers.
        ``wait`` seconds (``POST …?wait=``) asks the service to hold the
        ``201`` until the job has settled, so the handle of a quick job
        comes back already terminal and waiting on it costs no request.
        """
        headers: dict[str, str] = {}
        if idempotency_key is None and self.idempotent_submits:
            idempotency_key = new_idempotency_key()
        if idempotency_key is not None:
            headers[IDEMPOTENCY_KEY_HEADER] = idempotency_key
        created = self._client.request_json(
            "POST", "", query={"wait": f"{wait:g}"} if wait > 0 else None,
            payload=inputs, headers=headers,
        )
        handle = JobHandle(created["uri"], self._client)
        handle._last = created
        return handle

    def submit(self, wait: float = 0.0, **inputs: Any) -> JobHandle:
        return self.submit_dict(inputs, wait=wait)

    def __call__(self, timeout: float | None = None, **inputs: Any) -> dict[str, Any]:
        """Submit and wait: the synchronous convenience call (one round
        trip for a job that settles within :data:`LONG_POLL_CHUNK`)."""
        wait = LONG_POLL_CHUNK if timeout is None else min(LONG_POLL_CHUNK, timeout)
        return self.submit_dict(inputs, wait=wait).result(timeout=timeout)

    def __repr__(self) -> str:
        return f"ServiceProxy({self.uri!r})"
