"""Wiring: a Manager, agents, and runtimes assembled over one fabric.

The actors only see a small node-bound environment (listen/connect/timers
and `call`), so the same assembly runs over the simulated network and over
loopback TCP. A fabric gives out those environments (`env(addr)`),
adds nodes and kills them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .agent import Agent, AgentConfig, RepositoryEntry, SpawnError
from .graph import AbstractGraph, outgoing_connections
from .manager import Manager, ManagerConfig
from .service_runtime import (InstanceConfig, ServiceRuntime, make_behavior)
from .transport import PortInUse


@dataclass
class NodeDef:
    addr: str
    repo: list[str] = field(default_factory=list)
    behavior: str = "cascade"


class Cluster:
    def __init__(self, fabric, graphs: list[AbstractGraph],
                 manager_addr: str, nodes: list[NodeDef],
                 manager_config: ManagerConfig | None = None,
                 agent_config: AgentConfig | None = None):
        self.fabric = fabric
        self.graphs = graphs
        fabric.add_node(manager_addr)
        self.manager = Manager(fabric.env(manager_addr), graphs,
                               manager_config or ManagerConfig())
        self.agents: dict[str, Agent] = {}
        # Every runtime ever spawned, by (service, instance id): the live
        # ones are those in their agents' tables.
        self.runtimes: dict[tuple[str, int], ServiceRuntime] = {}
        agent_config = agent_config or AgentConfig()
        for node in nodes:
            fabric.add_node(node.addr)
            repo = {name: self._repo_entry(name, node.behavior)
                    for name in node.repo}
            self.agents[node.addr] = Agent(
                fabric.env(node.addr), node.addr, manager_addr, repo,
                self._make_spawn(node.addr, agent_config.agent_port),
                agent_config)

    def _graph_of(self, service: str) -> AbstractGraph:
        for g in self.graphs:
            if g.has_service(service):
                return g
        raise KeyError(service)

    def _repo_entry(self, service: str, behavior: str) -> RepositoryEntry:
        spec = self._graph_of(service).service(service)
        return RepositoryEntry(service, spec.sockets, spec.plugs, behavior)

    def _make_spawn(self, node_addr: str, agent_port: int):
        def spawn(service, instance_id, sockets, plugs, bytecode):
            g = self._graph_of(service)
            plug_sockets = {e.plug: e.socket
                            for e in outgoing_connections(g, service)}
            config = InstanceConfig(
                service_name=service,
                instance_id=instance_id,
                node_addr=node_addr,
                socket_ports=tuple(sockets),
                plug_targets=tuple(plugs),
                plug_sockets=plug_sockets,
                agent_port=agent_port)
            env = self.fabric.env(node_addr)
            rt = ServiceRuntime(env, config, make_behavior(bytecode))
            rt._loop = getattr(env, "loop", None)
            # Bound here, in the agent's exec handler, so that a bind
            # failure reaches the agent as a SpawnError.
            try:
                rt.start()
            except PortInUse as e:
                raise SpawnError(f"bind failed: {e}") from e
            self.runtimes[(service, instance_id)] = rt
            return rt

        return spawn

    def start(self) -> None:
        self.manager.env.call(self.manager.start)
        for agent in self.agents.values():
            agent.env.call(agent.start)

    def kill_node(self, addr: str) -> None:
        self.fabric.kill_node(addr)
        agent = self.agents.get(addr)
        if agent is not None:
            agent.env.call(agent.mark_dead)

    def shutdown(self) -> None:
        """Stop a fabric that owns a thread and sockets (loopback TCP)."""
        self.fabric.shutdown()

    @property
    def manager_loop(self):
        """The manager's ActorLoop, on a fabric that has loops."""
        return self.manager.env.loop

    def runtime(self, service: str, instance_id: int) -> ServiceRuntime:
        return self.runtimes[(service, instance_id)]

    def live_runtimes(self) -> list[ServiceRuntime]:
        """The runtimes that their agents regard as running."""
        return [li.handle for agent in self.agents.values()
                for li in agent.instances.values()]

    def has_pending(self) -> bool:
        """A correlation is outstanding: its timeout is queued."""
        return "timeout" in self.fabric.pending_tags()
