package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/sim"
	"rbcast/internal/topo"
)

// workload is one named input set.
type workload struct {
	name string
	spec simSpec
}

// simSpec describes a simulated scenario. The same spec drives the
// untraced harness run and the traced run that wires the hosts itself,
// so both execute the same event sequence for a seed.
type simSpec struct {
	clusters, hostsPerCluster int
	// shards is the worker count of the laned engine; 0 keeps the
	// sequential engine.
	shards   int
	messages int
	interval time.Duration
	warmUp   time.Duration
	// cheap and expensive configure the topology's links.
	cheap, expensive netsim.LinkConfig
	// events builds the failure schedule of one run; nil for none.
	events func(seed int64, clusters int) []topoEvent
}

// topoEvent is one scheduled topology change. Schedules are built per
// run because an event may carry state, such as the links a cut took
// down.
type topoEvent struct {
	at time.Duration
	do func(tp *topo.Topology) error
}

// liveSpec describes a live fleet and the stream fed to it.
type liveSpec struct {
	clusters, hostsPerCluster int
	// rate is the open-loop broadcast rate, in messages per second.
	rate int
}

// liveFleet is the fleet every traced run streams to measure the live
// runtime: 9 hosts in 3 clusters on the live transport's default paths,
// fed 1000 broadcasts a second for liveSeconds.
var liveFleet = liveSpec{clusters: 3, hostsPerCluster: 3, rate: 1000}

const liveSeconds = 3 * time.Second

const payloadSize = 32

// The simulated workloads use the simulator's default link delays, 1 ms
// cheap and 30 ms expensive, without jitter; build lengthens each class
// by a seeded share of up to 1%. Per-traversal jitter would make tree
// formation at 512 hosts chaotic from seed to seed: whether one cluster
// joins late decides p99 latency and doubles the data cost, so no
// single run would stand for the workload.
var (
	simCheap     = netsim.LinkConfig{Delay: time.Millisecond}
	simExpensive = netsim.LinkConfig{Delay: 30 * time.Millisecond}
)

func workloads() []workload {
	nproc := runtime.NumCPU()
	return []workload{
		{name: "sim-steady-24", spec: simSpec{
			clusters: 6, hostsPerCluster: 4,
			messages: 3000, interval: 100 * time.Millisecond,
			warmUp: 3 * time.Second,
			cheap:  simCheap, expensive: simExpensive,
		}},
		{name: "sim-formation-512", spec: simSpec{
			clusters: 64, hostsPerCluster: 8, shards: nproc,
			messages: 5, interval: 200 * time.Millisecond,
			warmUp: 3 * time.Second,
			cheap:  simCheap, expensive: simExpensive,
		}},
		{name: "sim-repair-48", spec: simSpec{
			clusters: 12, hostsPerCluster: 4,
			messages: 1200, interval: 100 * time.Millisecond,
			warmUp:    3 * time.Second,
			cheap:     netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.01},
			expensive: netsim.LinkConfig{Delay: 30 * time.Millisecond, LossProb: 0.05},
			events:    rotatingIsolations,
		}},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rotatingIsolations cuts one non-source cluster off the WAN at a time,
// in a seed-chosen order, and heals it before the next cut. Every
// cluster is isolated once per rotation, so the seed changes the order
// of the partitions but not how many there are or how long they last.
func rotatingIsolations(seed int64, clusters int) []topoEvent {
	const (
		start  = 5 * time.Second
		period = 9 * time.Second
		outage = 4 * time.Second
		last   = 110 * time.Second
	)
	order := rand.New(rand.NewSource(seed)).Perm(clusters - 1)
	var evs []topoEvent
	for i, at := 0, start; at+outage <= last; i, at = i+1, at+period {
		c := 1 + order[i%len(order)]
		var cut []netsim.LinkID
		evs = append(evs,
			topoEvent{at: at, do: func(tp *topo.Topology) error {
				links, err := tp.IsolateCluster(c)
				cut = links
				return err
			}},
			topoEvent{at: at + outage, do: func(tp *topo.Topology) error { return tp.RestoreLinks(cut) }},
		)
	}
	return evs
}

// payloads returns the seeded broadcast payloads of one run.
func payloads(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, payloadSize)
		rng.Read(out[i])
	}
	return out
}

// build returns the constructor of the spec's topology for one seed.
func (s simSpec) build(seed int64) func(sim.Loop) (*topo.Topology, error) {
	rng := rand.New(rand.NewSource(seed))
	cheap, expensive := s.cheap, s.expensive
	cheap.Delay += time.Duration(rng.Int63n(int64(cheap.Delay)/100 + 1))
	expensive.Delay += time.Duration(rng.Int63n(int64(expensive.Delay)/100 + 1))
	return func(eng sim.Loop) (*topo.Topology, error) {
		return topo.Clustered(eng, topo.ClusteredConfig{
			Clusters:        s.clusters,
			HostsPerCluster: s.hostsPerCluster,
			Shape:           topo.WANTree,
			Cheap:           cheap,
			Expensive:       expensive,
		})
	}
}

// scenario returns the harness scenario of one run of s. shards
// overrides the spec's engine choice.
func (s simSpec) scenario(seed int64, shards int) harness.Scenario {
	pl := payloads(seed, s.messages)
	sc := harness.Scenario{
		Name:        "benchmark",
		Seed:        seed,
		Shards:      shards,
		Build:       s.build(seed),
		Protocol:    harness.ProtocolTree,
		Messages:    s.messages,
		MsgInterval: s.interval,
		WarmUp:      s.warmUp,
		// A run ends once every host holds every broadcast; the default
		// 30 s drain after the last broadcast is the deadline.
		StopWhenComplete: true,
		PayloadFor:       func(i int) []byte { return pl[i] },
	}
	for _, ev := range s.schedule(seed) {
		ev := ev
		sc.Events = append(sc.Events, harness.TimedEvent{
			At: ev.at,
			Do: func(rt *harness.Runtime) error { return ev.do(rt.Topo) },
		})
	}
	return sc
}

// schedule returns the failure schedule of one run of s.
func (s simSpec) schedule(seed int64) []topoEvent {
	if s.events == nil {
		return nil
	}
	return s.events(seed, s.clusters)
}
