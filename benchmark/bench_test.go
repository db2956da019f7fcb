package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// tiny is a small scenario for tests of the measurement code itself.
var tiny = simSpec{
	clusters: 2, hostsPerCluster: 2,
	messages: 20, interval: 100 * time.Millisecond,
	warmUp: 3 * time.Second,
	cheap:  simCheap, expensive: simExpensive,
}

func TestSimSpeedIsTotalOverTotals(t *testing.T) {
	iters := []simIter{
		{virtual: 10 * time.Second, runWall: 100 * time.Millisecond},
		{virtual: 30 * time.Second, runWall: 100 * time.Millisecond},
	}
	if got := simSpeed(iters); got != 200 {
		t.Errorf("simSpeed = %v, want 40 s / 0.2 s = 200", got)
	}

	// On a real multi-run measurement the ratio must sit among the
	// single runs' ratios; dividing by the run count again would put it
	// at a third of them.
	var runs []simIter
	for i := 0; i < 3; i++ {
		it, err := runSimIter(tiny, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, it)
	}
	lo, hi := simSpeed(runs[:1]), simSpeed(runs[:1])
	for _, it := range runs[1:] {
		s := simSpeed([]simIter{it})
		lo, hi = min(lo, s), max(hi, s)
	}
	if got := simSpeed(runs); got < lo || got > hi {
		t.Errorf("simSpeed over 3 runs = %v, outside the single runs' range [%v, %v]", got, lo, hi)
	}
}

// The reference kernel's timed ops must not allocate, or its speed
// would depend on the heap the simulation left behind.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel(1)
	if n := testing.AllocsPerRun(5, func() { k.run(refChunk) }); n != 0 {
		t.Errorf("refKernel.run allocated %v times per call, want 0", n)
	}
	var g refGauge
	g.measure(20 * time.Millisecond)
	if g.ops < refChunk {
		t.Errorf("gauge ran %d ops, want at least a chunk", g.ops)
	}
	if s := g.slowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown = %v, want a positive finite ratio", s)
	}
}

func TestCheckResultCountsFailures(t *testing.T) {
	it, err := runSimIter(tiny, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := it.res
	if c := checkResult(res); c.failed != 0 || c.attempted != 4*tiny.messages {
		t.Fatalf("clean run: %d failed of %d attempted (%v), want 0 of %d", c.failed, c.attempted, c.reasons, 4*tiny.messages)
	}
	h := res.HostList[1]
	for seq := range res.DeliveredDigest[h] {
		res.DeliveredDigest[h][seq]++
		break
	}
	for seq := range res.DeliveredAt[res.HostList[2]] {
		delete(res.DeliveredAt[res.HostList[2]], seq)
		break
	}
	res.DuplicateDeliveries = 1
	if c := checkResult(res); c.failed != 3 {
		t.Errorf("one wrong digest, one missing and one duplicate delivery: failed = %d (%v), want 3", c.failed, c.reasons)
	}
}

// counts are the deterministic outputs of one run.
type counts struct {
	events, hostSends    uint64
	wireBytesPerMsg      float64
	interClusterDataPerM float64
}

func runCounts(t *testing.T, spec simSpec, seed int64, shards int) counts {
	t.Helper()
	it, err := runSimIter(spec, seed, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := checkResult(it.res); c.failed != 0 {
		t.Fatalf("run failed its delivery gate: %v", c.reasons)
	}
	return counts{
		events:               it.events,
		hostSends:            it.hostSends,
		wireBytesPerMsg:      float64(it.res.WireBytes) / float64(it.res.TotalMessages()),
		interClusterDataPerM: it.res.InterClusterDataPerMessage(),
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range workloads() {
		if testing.Short() && w.spec.clusters*w.spec.hostsPerCluster > 100 {
			continue
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			a := runCounts(t, w.spec, 7, w.spec.shards)
			if b := runCounts(t, w.spec, 7, w.spec.shards); a != b {
				t.Errorf("two runs of seed 7 differ: %+v and %+v", a, b)
			}
		})
	}
}

func TestLanedCountsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sim-formation-512 twice")
	}
	w, err := findWorkload("sim-formation-512")
	if err != nil {
		t.Fatal(err)
	}
	one := runCounts(t, w.spec, 7, 1)
	if all := runCounts(t, w.spec, 7, runtime.NumCPU()); one != all {
		t.Errorf("1 worker %+v, %d workers %+v", one, runtime.NumCPU(), all)
	}
}

func TestTracedPassMatchesHarness(t *testing.T) {
	laned := tiny
	laned.shards = 2
	cases := []workload{{name: "tiny-laned", spec: laned}}
	for _, name := range []string{"sim-steady-24", "sim-repair-48"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, w)
	}
	for _, w := range cases {
		w := w
		t.Run(w.name, func(t *testing.T) {
			want := runCounts(t, w.spec, 3, w.spec.shards)
			for _, timed := range []bool{false, true} {
				p, err := runTracedPass(w.spec, 3, w.spec.shards, timed)
				if err != nil {
					t.Fatal(err)
				}
				if c := p.check(); c.failed != 0 {
					t.Errorf("timed=%v: traced pass failed its gate: %v", timed, c.reasons)
				}
				if w.spec.shards > 0 && len(p.lanes) < 2 {
					t.Errorf("laned spec ran on %d lane", len(p.lanes))
				}
				if p.events != want.events || p.net.HostSends != want.hostSends {
					t.Errorf("timed=%v: traced pass ran %d events and %d sends, harness %d and %d",
						timed, p.events, p.net.HostSends, want.events, want.hostSends)
				}
				var handled uint64
				for i := range p.lanes {
					handled += p.lanes[i].handleCalls
				}
				if handled == 0 {
					t.Errorf("timed=%v: no HandleMessage call was traced", timed)
				}
			}
		})
	}
}

func TestLiveRunDeliversAndTimesEveryBroadcast(t *testing.T) {
	run, err := runLive(liveFleet, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if run.check.failed != 0 {
		t.Fatalf("live run failed its gate: %v", run.check.reasons)
	}
	if got := run.latencies.Count(); got != liveFleet.rate || run.messages != liveFleet.rate {
		t.Errorf("%d latency samples of %d broadcasts, want %d of each", got, run.messages, liveFleet.rate)
	}
	if run.check.attempted != 9*(liveFleet.rate+1) {
		t.Errorf("%d (host, broadcast) pairs checked, want %d", run.check.attempted, 9*(liveFleet.rate+1))
	}
}
