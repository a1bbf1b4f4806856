"""Host inventory and worker bootstrap for multi-node sweeps.

A distributed sweep is described by a list of :class:`HostSpec`
entries — host name plus worker count — parsed from the CLI
(``--hosts a:4,b:8``) or a TOML hosts file.  Two launchers turn a spec
into running ``python -m repro.runtime.worker`` processes behind one
:class:`WorkerLauncher` interface:

:class:`LocalLauncher`
    Plain ``subprocess.Popen`` on this machine.  The host names
    ``local`` / ``localhost`` / ``127.0.0.1`` select it, and each such
    entry becomes an independent *pseudo-host* — its own private store
    root, its own sync channel, its own worker fleet — so CI exercises
    the entire multi-node path (launch, artifact sync, re-dispatch,
    merge) on one box.
:class:`SshLauncher`
    The same command line wrapped in ``ssh`` for anything else.
    Workers connect *back* to the parent over TCP, so the only remote
    requirements are a reachable python and the package on
    ``PYTHONPATH`` (``remote_python`` / ``remote_pythonpath`` in the
    hosts file override both).

Launchers only start processes and hand each one the backend's
authentication token on stdin; the protocol the workers then speak —
frames, heartbeats, artifact sync — lives in
:mod:`repro.runtime.remote` and :mod:`repro.runtime.worker`.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence

__all__ = [
    "HostSpec",
    "HostsError",
    "LocalLauncher",
    "SshLauncher",
    "WorkerLauncher",
    "launcher_for",
    "load_hosts_file",
    "parse_hosts",
]

# Host names that mean "spawn on this machine" (a pseudo-host).
_LOCAL_NAMES = frozenset({"local", "localhost", "127.0.0.1"})
_MAX_WORKERS_PER_HOST = 64


class HostsError(ValueError):
    """A malformed ``--hosts`` value or hosts file."""


@dataclass(frozen=True)
class HostSpec:
    """One node of the fleet: where to launch and how many workers."""

    name: str
    workers: int
    # SSH-only knobs (ignored for pseudo-hosts).
    ssh_user: Optional[str] = None
    remote_python: Optional[str] = None
    remote_pythonpath: Optional[str] = None

    @property
    def is_local(self) -> bool:
        # Pseudo-host names carry a disambiguating suffix ("local#0");
        # strip it before the membership test.
        return self.name.split("#", 1)[0] in _LOCAL_NAMES

    def __post_init__(self) -> None:
        if not self.name:
            raise HostsError("host name must be non-empty")
        if self.workers < 1:
            raise HostsError(
                f"host {self.name!r}: workers must be at least 1, "
                f"got {self.workers}")


def _host_entry(name: str, workers: int, **ssh) -> HostSpec:
    """A host written by the user: a :class:`HostSpec` whose worker
    count is also held to the per-host ceiling.  (The one-host fleet
    ``--workers N`` builds is sized by the core count instead.)"""
    if not 1 <= workers <= _MAX_WORKERS_PER_HOST:
        raise HostsError(
            f"host {name!r}: workers must be in "
            f"1..{_MAX_WORKERS_PER_HOST}, got {workers}")
    return HostSpec(name=name, workers=workers, **ssh)


def parse_hosts(text: str) -> List[HostSpec]:
    """Parse ``"a:4,b:8"`` into host specs.

    Each ``local`` entry becomes a distinct pseudo-host (``local#0``,
    ``local#1``, ...); repeating a *remote* name is an error.
    """
    specs: List[HostSpec] = []
    seen: Dict[str, int] = {}
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            continue
        name, sep, count = part.rpartition(":")
        if not sep or not name:
            raise HostsError(
                f"host entry {part!r} must be 'name:workers'")
        try:
            workers = int(count)
        except ValueError:
            raise HostsError(
                f"host entry {part!r}: worker count {count!r} "
                "is not an integer")
        if name in _LOCAL_NAMES:
            idx = seen.get("local", 0)
            seen["local"] = idx + 1
            name = f"local#{idx}"
        elif name in seen:
            raise HostsError(f"duplicate host {name!r}")
        else:
            seen[name] = 1
        specs.append(_host_entry(name, workers))
    if not specs:
        raise HostsError("no hosts given")
    return specs


def load_hosts_file(path: Path) -> List[HostSpec]:
    """Load a TOML hosts file::

        [[hosts]]
        name = "a"
        workers = 4
        ssh_user = "repro"          # optional
        remote_python = "python3"   # optional
        remote_pythonpath = "/opt/repro/src"  # optional
    """
    import tomllib

    try:
        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise HostsError(f"cannot read hosts file {path}: {exc}")
    entries = doc.get("hosts")
    if not isinstance(entries, list) or not entries:
        raise HostsError(
            f"hosts file {path} must define at least one [[hosts]] table")
    specs: List[HostSpec] = []
    seen: Dict[str, int] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise HostsError(f"hosts file {path}: [[hosts]] must be tables")
        unknown = set(entry) - {"name", "workers", "ssh_user",
                                "remote_python", "remote_pythonpath"}
        if unknown:
            raise HostsError(
                f"hosts file {path}: unknown keys {sorted(unknown)}")
        name = entry.get("name")
        workers = entry.get("workers")
        if not isinstance(name, str) or not isinstance(workers, int):
            raise HostsError(
                f"hosts file {path}: each host needs a string 'name' "
                "and integer 'workers'")
        if name in _LOCAL_NAMES:
            idx = seen.get("local", 0)
            seen["local"] = idx + 1
            name = f"local#{idx}"
        elif name in seen:
            raise HostsError(f"hosts file {path}: duplicate host {name!r}")
        else:
            seen[name] = 1
        specs.append(_host_entry(
            name,
            workers,
            ssh_user=entry.get("ssh_user"),
            remote_python=entry.get("remote_python"),
            remote_pythonpath=entry.get("remote_pythonpath"),
        ))
    return specs


# ======================================================================
# Launchers
# ======================================================================
class WorkerLauncher(Protocol):
    """Starts one worker process for a host and hands back its
    :class:`subprocess.Popen`.  The returned process must run
    ``python -m repro.runtime.worker`` with ``argv`` appended and
    ``token`` on its stdin (never in argv, which other local users can
    read); the worker dials the parent back over TCP, so launchers
    never need a return channel of their own."""

    def launch(self, argv: Sequence[str],
               token: bytes) -> subprocess.Popen: ...


def _popen_with_token(cmd: Sequence[str], token: bytes,
                      env: Optional[Dict[str, str]] = None
                      ) -> subprocess.Popen:
    """Start ``cmd`` with ``token`` as its whole stdin."""
    proc = subprocess.Popen(list(cmd), env=env, stdin=subprocess.PIPE)
    try:
        proc.stdin.write(token)
        proc.stdin.close()
    except OSError:
        # The process died before reading; it never connects, and the
        # backend's accept timeout reports that.
        pass
    return proc


def _pkg_root() -> str:
    """The directory that must be on a worker's ``sys.path`` for
    ``import repro`` to resolve to this checkout."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


@dataclass
class LocalLauncher:
    """Spawn a worker on this machine (pseudo-host path)."""

    env_extra: Dict[str, str] = field(default_factory=dict)

    def launch(self, argv: Sequence[str],
               token: bytes) -> subprocess.Popen:
        import os

        env = dict(os.environ)
        root = _pkg_root()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (f"{root}{os.pathsep}{existing}"
                             if existing else root)
        env.update(self.env_extra)
        return _popen_with_token(
            [sys.executable, "-m", "repro.runtime.worker", *argv],
            token, env=env)


@dataclass
class SshLauncher:
    """Spawn a worker on a remote host over ``ssh``.

    BatchMode forbids interactive prompts — an unreachable or
    unauthenticated host fails fast and the backend degrades instead
    of hanging on a password prompt.
    """

    spec: HostSpec
    connect_timeout_s: int = 10

    def launch(self, argv: Sequence[str],
               token: bytes) -> subprocess.Popen:
        python = self.spec.remote_python or "python3"
        target = self.spec.name.split("#", 1)[0]
        if self.spec.ssh_user:
            target = f"{self.spec.ssh_user}@{target}"
        remote_cmd = [python, "-m", "repro.runtime.worker", *argv]
        if self.spec.remote_pythonpath:
            remote_cmd = [
                "env", f"PYTHONPATH={self.spec.remote_pythonpath}",
                *remote_cmd,
            ]
        # ssh forwards its stdin to the remote command's stdin.
        return _popen_with_token(
            ["ssh", "-o", "BatchMode=yes",
             "-o", f"ConnectTimeout={self.connect_timeout_s}",
             target, *remote_cmd],
            token)


def launcher_for(spec: HostSpec) -> WorkerLauncher:
    """The launcher a host spec selects: subprocess for pseudo-hosts,
    SSH for everything else."""
    if spec.is_local:
        return LocalLauncher()
    return SshLauncher(spec=spec)
