"""``repro.serve`` — the networked federation service.

Turns the engine's in-process executor fan-out into a real
client/server deployment while keeping the training loop — and its
bit-exact results — untouched:

* :mod:`repro.serve.protocol` / :mod:`repro.serve.codec` — the
  length-prefixed wire protocol with one exact-match version
  (``hello`` handshake, ``task_dispatch`` fan-out,
  ``weight_slice`` downloads, ``state_delta`` uploads, heartbeats,
  ``bye``);
* :mod:`repro.serve.coordinator` — asyncio server running one supervised
  :class:`~repro.serve.actors.ClientActor` per connection, with
  straggler requeue, reconnect grace windows and bounded send queues
  for back-pressure;
* :mod:`repro.serve.executor` — ``RemoteExecutor`` slots the coordinator
  into the engine's ``Executor`` contract, configured by
  :class:`~repro.serve.options.ServeOptions`;
* :mod:`repro.serve.client` — ``ClientRunner``, the worker side
  (``repro client``), with deterministic reconnect backoff and
  wire-served state fetching.

The wire format pickles this repository's own dataclasses: use it on
trusted networks (loopback, cluster-internal) only.  Import from the
submodules; the package itself exports nothing.
"""
