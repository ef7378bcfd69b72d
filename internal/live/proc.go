package live

// Multi-process deployments: one OS process per node slot, wired over the
// real-socket TCP transport (network.TCPBus). This file is the node
// (child) side; orchestrator.go is the parent that spawns one node
// process per slot, injects faults against real processes (SIGKILL,
// SIGSTOP, userspace partitions), and judges the merged actuation stream
// as the plant.
//
// A node process is the same binary re-executed with the BTR_PROC_SPEC
// environment variable set: MaybeRunNodeProc, called at the top of main
// (or TestMain), detects the variable and becomes the node instead of the
// CLI. The control protocol is line-oriented and deliberately tiny:
//
//	child -> parent (stdout, one JSON object per line):
//	  {"ev":"ready","node":i,"addr":"127.0.0.1:..."}   listener is up
//	  {"ev":"up","node":i}                             system built; at "go"
//	                                                   the clock pins with
//	                                                   no construction lag
//	  {"ev":"act","node":i,"sink":"c2","period":7,...} one actuation
//	  {"ev":"event","node":i,"event":{"kind":...}}     one runtime.Event:
//	                                                   evidence, switch,
//	                                                   watchdog, rejection
//	  {"ev":"done","node":i,"connected":3,"links":[...]} horizon reached
//	parent -> child (stdin, plain text lines):
//	  peers <addr0> <addr1> ...   full address vector (when spawned with
//	                              dynamic ports); must precede go
//	  go                          pin t=0 (or t=StartPeriod·period for a
//	                              restarted process) and start executing
//	  part [peer...]              refuse the listed peers (default: all
//	                              neighbors) — a userspace partition
//	  heal                        clear all refusals
//	  quit                        exit now
//
// Every process builds the identical System — same seed, same topology,
// same plan.Build output, same key registry — so plans and signatures
// agree everywhere, but starts only the one slot it hosts
// (runtime.System.StartNodeFrom). Membership epochs are not supported in
// this mode: the epoch operator reaches across node boundaries
// in-process, so specs carry no membership fields (see ROADMAP).

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"btr/internal/adversary"
	"btr/internal/client"
	"btr/internal/cliflag"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/runtime"
	"btr/internal/sig"
	"btr/internal/sim"
)

// ProcSpecEnv is the environment variable carrying a JSON-encoded
// ProcSpec; its presence turns the process into a deployment node.
const ProcSpecEnv = "BTR_PROC_SPEC"

// TopoKinds lists the topology families the deployment builders accept.
var TopoKinds = []string{"full-mesh", "dual-bus", "ring", "grid"}

// BuildTopology constructs a deployment topology by family name, with
// the shared live-mode link parameters.
func BuildTopology(kind string, nodes int) (*network.Topology, error) {
	return buildTopologyLinks(kind, nodes, 20_000_000, 50*sim.Microsecond)
}

// ProcTopology constructs the topology multi-process deployments plan
// against: the same families as BuildTopology, but the link propagation
// term models real cross-process delivery on a contended host. A message
// between node processes pays pipe/socket transit plus OS scheduling
// latency — on a busy single-core machine the sender's write, the
// receiver's read, and the receiver's executor dispatch each wait for a
// CFS timeslice, so end-to-end delivery routinely takes tens of
// milliseconds. Planning against microsecond links would place consumer
// slots immediately after producer slots and every first-period record
// would miss its compute instant (the replica then stays silent and its
// consumers accuse a healthy path). The watchdog margin protects
// detection, but only the planned link model protects slot spacing.
func ProcTopology(kind string, nodes int) (*network.Topology, error) {
	return buildTopologyLinks(kind, nodes, 20_000_000, 25*sim.Millisecond)
}

func buildTopologyLinks(kind string, nodes int, bw int64, prop sim.Time) (*network.Topology, error) {
	if err := cliflag.OneOf("topo", kind, TopoKinds); err != nil {
		return nil, err
	}
	switch kind {
	case "full-mesh":
		return network.FullMesh(nodes, bw, prop), nil
	case "dual-bus":
		return network.DualBus(nodes, bw, prop), nil
	case "ring":
		return network.Ring(nodes, bw, prop), nil
	default: // grid
		return network.Grid(3, 3, bw, prop), nil
	}
}

// FaultKinds lists the in-process behaviors: every adversary.Catalog
// entry a node can install on itself (single-process btrlive installs
// them on the victim directly; a node process self-injects from its
// spec), plus "none". It reads the catalog at each call.
func FaultKinds() []string {
	return append(adversary.Names(func(b adversary.Behavior) bool { return b.Build != nil }), "none")
}

// DefaultWorkload is the control workload every live driver runs: a
// 3-stage chain at the given period (the same construction cmd/btrlive
// has always used, shared so orchestrator and node processes agree on it
// by construction).
func DefaultWorkload(period sim.Time) *flow.Graph {
	return flow.Chain(3, period, sim.Millisecond, 64, flow.CritA)
}

// ProcSpec fully determines one node process. Identical specs modulo the
// Node field must be handed to every process of a deployment: each
// rebuilds the same strategy and keys from them.
type ProcSpec struct {
	Node     int    `json:"node"`
	Topo     string `json:"topo"`
	Nodes    int    `json:"nodes"`
	F        int    `json:"f"`
	Seed     uint64 `json:"seed"`
	PeriodUS int64  `json:"period_us"`
	MarginUS int64  `json:"margin_us"`
	Horizon  uint64 `json:"horizon"`

	// ForgiveUS is the parole clock (runtime.Config.ForgiveAfter) in
	// microseconds; zero keeps classic mode (convictions never expire,
	// no budget verdicts). Must agree across every process of a
	// deployment like the other plan inputs.
	ForgiveUS int64 `json:"forgive_us,omitempty"`

	// Addrs is the full listen-address vector, index = node ID. Empty on
	// first spawn: the process then listens on a dynamic port, reports it
	// in its ready line, and waits for the parent's "peers" line. A
	// restarted process gets the established vector and rebinds its slot.
	Addrs []string `json:"addrs,omitempty"`

	// Fault, when set, is an in-process catalog behavior (FaultKinds)
	// that the node resolves against its strategy (adversary.Script.Resolve)
	// and self-injects, never repaired, if it is the victim; a
	// task-scoped behavior with no task aims at the workload sink.
	Fault *adversary.Fault `json:"fault,omitempty"`

	// StartPeriod aligns a process joining a running cluster: logical
	// t=0 backdates so the process's clock agrees with peers already at
	// period StartPeriod (sim.WallScheduler.StartAt), and its executive
	// begins at that period boundary.
	StartPeriod uint64 `json:"start_period,omitempty"`

	// Standby brings up the transport (listen, dial, heartbeats) without
	// starting the executive: how a killed-and-restarted process rejoins.
	// The cluster has failed over away from it; re-admission into the
	// active schedule is the membership layer's job, which multi-process
	// mode does not support yet, so the repaired node idles connected.
	Standby bool `json:"standby,omitempty"`

	// ServeClients additionally opens the client-facing register service
	// (internal/client.Server) on a second listener; its address rides in
	// the ready event's client_addr. Multi-process mode has no membership
	// epochs, so the service pins epoch 0 with every slot a member.
	ServeClients bool `json:"serve_clients,omitempty"`

	// ClientAddrs is the client-service address vector, index = node ID —
	// the client-side twin of Addrs. Empty on first spawn (dynamic port);
	// a restarted process gets the established vector and rebinds its
	// slot so in-flight load-generator clients can redial it.
	ClientAddrs []string `json:"client_addrs,omitempty"`
}

// ProcLink is one outgoing link's supervision counters in a done event.
type ProcLink struct {
	Peer       int    `json:"peer"`
	Dials      int    `json:"dials"`
	Reconnects int    `json:"reconnects"`
	Connected  bool   `json:"connected"`
	Drops      uint64 `json:"drops"`
	// Shed is the subset of Drops charged to backpressure shedding (queue
	// full), as opposed to disconnected-link or encode-guard drops.
	Shed uint64 `json:"shed,omitempty"`
}

// ProcEvent is one child-to-parent stdout line.
type ProcEvent struct {
	Ev   string `json:"ev"` // ready | up | act | event | done
	Node int    `json:"node"`

	Addr string `json:"addr,omitempty"` // ready
	// ClientAddr is the register service's listen address (ready events
	// of specs with ServeClients set).
	ClientAddr string `json:"client_addr,omitempty"`

	Sink   string `json:"sink,omitempty"` // act
	Period uint64 `json:"period"`
	Value  string `json:"value,omitempty"` // hex
	AtUS   int64  `json:"at_us,omitempty"` // logical actuation time

	Event *runtime.Event `json:"event,omitempty"` // event

	Connected int        `json:"connected,omitempty"` // done
	Links     []ProcLink `json:"links,omitempty"`
}

// MaybeRunNodeProc turns the process into a deployment node when
// BTR_PROC_SPEC is set, and never returns in that case. Call it first
// thing in main (and in TestMain of packages whose tests orchestrate
// multi-process deployments — the test binary re-executes itself).
func MaybeRunNodeProc() {
	raw := os.Getenv(ProcSpecEnv)
	if raw == "" {
		return
	}
	var spec ProcSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "btr node: bad %s: %v\n", ProcSpecEnv, err)
		os.Exit(2)
	}
	if err := RunNodeProc(spec, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "btr node %d: %v\n", spec.Node, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// procEmitter serializes JSON event lines: acts come from scheduler
// callbacks while ready/done come from the control goroutine.
type procEmitter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (e *procEmitter) emit(ev ProcEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.enc.Encode(ev) // a broken pipe means the parent died; exit paths handle it
}

// RunNodeProc runs one node of a multi-process deployment to completion:
// listen, handshake the address vector, build the full system, execute
// this node's slot for the configured horizon while streaming actuations
// and runtime events, and emit a final done event with transport
// supervision counters.
func RunNodeProc(spec ProcSpec, in io.Reader, out io.Writer) error {
	topo, err := ProcTopology(spec.Topo, spec.Nodes)
	if err != nil {
		return err
	}
	if spec.Node < 0 || spec.Node >= topo.N {
		return fmt.Errorf("node %d outside topology of %d slots", spec.Node, topo.N)
	}
	period := sim.Time(spec.PeriodUS)
	if period <= 0 {
		return fmt.Errorf("non-positive period %dus", spec.PeriodUS)
	}
	if spec.Horizon == 0 {
		return fmt.Errorf("zero horizon")
	}
	self := network.NodeID(spec.Node)
	workload := DefaultWorkload(period)
	opts := plan.DefaultOptions(spec.F, 100*period)
	opts.WatchdogMargin = sim.Time(spec.MarginUS)
	strategy, err := plan.Build(workload, topo, opts)
	if err != nil {
		return fmt.Errorf("planning failed: %w", err)
	}
	var fault adversary.Script
	if spec.Fault != nil {
		if fault, err = (adversary.Script{*spec.Fault}).Resolve(topo.N, VictimOf(strategy)); err != nil {
			return err
		}
		if fault[0].Node != self {
			fault = nil
		} else if fault[0].Task == "" {
			fault[0].Task = workload.Sinks()[0]
		}
	}

	listen := "127.0.0.1:0"
	addrs := spec.Addrs
	switch {
	case len(addrs) == 0:
		// dynamic port; vector arrives on stdin
	case len(addrs) == topo.N:
		listen = addrs[self]
	default:
		return fmt.Errorf("address vector has %d entries, topology has %d slots", len(addrs), topo.N)
	}
	lis, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	// The client-facing register service rides a second listener, fully
	// outside the BTR transport: replication is client-driven, so the
	// service is a passive store plus the deployment's (fixed) view.
	var clientSrv *client.Server
	clientAddr := ""
	if spec.ServeClients {
		serveAt := ""
		switch {
		case len(spec.ClientAddrs) == 0:
			// dynamic port, reported in the ready event
		case len(spec.ClientAddrs) == topo.N:
			serveAt = spec.ClientAddrs[spec.Node]
		default:
			lis.Close()
			return fmt.Errorf("client address vector has %d entries, topology has %d slots", len(spec.ClientAddrs), topo.N)
		}
		members := make([]uint32, topo.N)
		for i := range members {
			members[i] = uint32(i)
		}
		clientSrv, err = client.NewServer(serveAt, client.NewRegisterStore(), client.NewViewState(0, members))
		if err != nil {
			lis.Close()
			return fmt.Errorf("client service listen: %w", err)
		}
		clientAddr = clientSrv.Addr()
		defer clientSrv.Close()
	}

	em := &procEmitter{enc: json.NewEncoder(out)}
	em.emit(ProcEvent{Ev: "ready", Node: spec.Node, Addr: lis.Addr().String(), ClientAddr: clientAddr})

	cmds := make(chan string, 8)
	go func() {
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			cmds <- strings.TrimSpace(sc.Text())
		}
		close(cmds)
	}()
	// Same predicate as the listen-address switch above: any empty vector
	// (nil or zero-length) means dynamic ports, so the full vector must
	// arrive on stdin before the transport can be built.
	if len(addrs) == 0 {
		line, ok := <-cmds
		fields := strings.Fields(line)
		if !ok || len(fields) != topo.N+1 || fields[0] != "peers" {
			lis.Close()
			return fmt.Errorf("expected %q line with %d addresses, got %q", "peers", topo.N, line)
		}
		addrs = fields[1:]
	}

	// Distinct scheduler seeds keep per-process PRNG streams independent;
	// everything correctness-relevant (keys, plans) derives from the
	// shared spec.Seed instead.
	w := sim.NewWallScheduler(spec.Seed ^ (uint64(spec.Node+1) * 0x9e3779b97f4a7c15))
	bus := network.NewTCPBus(w, topo, self, addrs, lis, network.DefaultTCPConfig(spec.Seed))
	reg := sig.NewRegistry(spec.Seed, topo.N)

	sys := runtime.New(runtime.Config{
		Kernel: w, Net: bus, Registry: reg, Strategy: strategy,
		ForgiveAfter: sim.Time(spec.ForgiveUS),
		OnActuation: func(node network.NodeID, sink flow.TaskID, p uint64, value []byte, at sim.Time) {
			em.emit(ProcEvent{Ev: "act", Node: spec.Node, Sink: string(sink), Period: p,
				Value: hex.EncodeToString(value), AtUS: int64(at)})
		},
		Observer: func(ev runtime.Event) {
			em.emit(ProcEvent{Ev: "event", Node: spec.Node, Event: &ev})
		},
	})

	if fault != nil {
		fault[0].Heal = 0 // a repair would race the recovery being measured
		if err := fault.Install(nodeInjector{w, sys}, period); err != nil {
			bus.Close()
			return err
		}
	}

	drained := make(chan struct{})
	w.At(sim.Time(spec.Horizon)*period+period, func() { close(drained) })

	// Barrier: everything expensive (key generation, planning, dialing)
	// is behind us, and every outgoing link has established — period 0's
	// messages must not race TCP connection setup, or the first period is
	// judged against a half-connected mesh. When the parent sees every
	// process up and releases the cluster, the logical clocks pin to the
	// same instant modulo pipe latency. The wait is bounded: a peer that
	// never answers (already dead, refusing) must not wedge the barrier.
	for deadline := time.Now().Add(10 * time.Second); bus.ConnectedCount() < bus.LinkCount(); {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	em.emit(ProcEvent{Ev: "up", Node: spec.Node})
	started := false
	for !started {
		line, ok := <-cmds
		switch {
		case !ok:
			bus.Close()
			return fmt.Errorf("stdin closed before %q", "go")
		case line == "go":
			started = true
		case line == "quit":
			bus.Close()
			return nil
		}
	}
	if !spec.Standby {
		sys.StartNodeFrom(self, spec.StartPeriod)
	}
	w.StartAt(sim.Time(spec.StartPeriod) * period)

	running := true
	for running {
		select {
		case <-drained:
			running = false
		case line, ok := <-cmds:
			if !ok {
				// stdin EOF: keep running to the horizon (a flag-driven
				// per-node invocation has no parent driving stdin).
				cmds = nil
				break
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				break
			}
			switch fields[0] {
			case "quit":
				running = false
			case "part":
				for _, peer := range partTargets(topo, self, fields[1:]) {
					bus.SetPeerRefused(peer, true)
				}
			case "heal":
				for _, peer := range topo.Neighbors(self) {
					bus.SetPeerRefused(peer, false)
				}
			}
		}
	}
	w.Close() // joins the executor: the counters below are quiescent

	var links []ProcLink
	for _, st := range bus.LinkStats() {
		links = append(links, ProcLink{
			Peer: int(st.Peer), Dials: st.Dials, Reconnects: st.Reconnects,
			Connected: st.Connected, Drops: st.Drops, Shed: st.Shed,
		})
	}
	em.emit(ProcEvent{Ev: "done", Node: spec.Node, Connected: bus.ConnectedCount(), Links: links})
	bus.Close()
	return nil
}

// nodeInjector installs a node process's own fault on its wall
// scheduler, against its runtime.
type nodeInjector struct {
	w  *sim.WallScheduler
	rt *runtime.System
}

func (n nodeInjector) InjectAt(t sim.Time, f func(*runtime.System)) { n.w.At(t, func() { f(n.rt) }) }
func (n nodeInjector) RepairAt(t sim.Time, f func(*runtime.System)) { n.InjectAt(t, f) }

// partTargets resolves a "part" command's arguments (node IDs, default:
// every neighbor) to peers to refuse.
func partTargets(topo *network.Topology, self network.NodeID, args []string) []network.NodeID {
	if len(args) == 0 {
		return topo.Neighbors(self)
	}
	var out []network.NodeID
	for _, a := range args {
		if v, err := strconv.Atoi(a); err == nil && v >= 0 && v < topo.N {
			out = append(out, network.NodeID(v))
		}
	}
	return out
}
