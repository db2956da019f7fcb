package main

import (
	"fmt"
	"sync"
	"time"

	"rbcast"
	"rbcast/internal/metrics"
)

const (
	// settle lets the fleet's tree form before the timed stream starts.
	settle = 300 * time.Millisecond
	// liveDeadline bounds the wait for the last deliveries.
	liveDeadline = 10 * time.Second
)

// liveRecorder checks and times the deliveries of one fleet. OnDeliver
// runs on every node's goroutine, so all fields sit behind mu.
type liveRecorder struct {
	mu    sync.Mutex
	index map[rbcast.HostID]int
	want  []uint64 // payload digest per sequence number
	due   []time.Time
	got   [][]bool // [host index][seq]
	count []int    // hosts that delivered seq
	last  []time.Time

	duplicates, wrongDigest, foreign int
}

func newLiveRecorder(hosts []rbcast.HostID, maxSeq int) *liveRecorder {
	r := &liveRecorder{
		index: make(map[rbcast.HostID]int, len(hosts)),
		want:  make([]uint64, maxSeq+1),
		due:   make([]time.Time, maxSeq+1),
		count: make([]int, maxSeq+1),
		last:  make([]time.Time, maxSeq+1),
	}
	for i, h := range hosts {
		r.index[h] = i
		r.got = append(r.got, make([]bool, maxSeq+1))
	}
	return r
}

// expect registers the next broadcast before it is made.
func (r *liveRecorder) expect(seq rbcast.Seq, payload []byte, due time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.want[seq] = digest(payload)
	r.due[seq] = due
}

func (r *liveRecorder) deliver(host, _ rbcast.HostID, seq rbcast.Seq, payload []byte) {
	now := time.Now()
	d := digest(payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[host]
	if !ok || int(seq) >= len(r.want) || r.want[seq] == 0 {
		r.foreign++
		return
	}
	if r.got[i][seq] {
		r.duplicates++
		return
	}
	r.got[i][seq] = true
	if d != r.want[seq] {
		r.wrongDigest++
	}
	r.count[seq]++
	if now.After(r.last[seq]) {
		r.last[seq] = now
	}
}

// liveRun is one measured live stream.
type liveRun struct {
	setup     time.Duration
	check     deliveryCheck
	latencies metrics.Durations
	late      metrics.Durations
	broadcast time.Duration
	cpu       time.Duration
	messages  int
	frames    uint64
	dropped   uint64
}

// layout numbers the hosts 1..n, cluster by cluster.
func (s liveSpec) layout() (hosts []rbcast.HostID, clusters [][]rbcast.HostID) {
	for c := 0; c < s.clusters; c++ {
		var group []rbcast.HostID
		for i := 0; i < s.hostsPerCluster; i++ {
			h := rbcast.HostID(c*s.hostsPerCluster + i + 1)
			group = append(group, h)
			hosts = append(hosts, h)
		}
		clusters = append(clusters, group)
	}
	return hosts, clusters
}

// runLive starts the fleet through the public API, timing the start
// until a first broadcast reaches every host, and streams rate
// broadcasts a second at it for seconds from one goroutine. The stream
// is open-loop: each broadcast has a due time, a late generator catches
// up without skipping, and latency runs from the due time to the
// delivery at the last host.
func runLive(s liveSpec, seed int64, seconds time.Duration) (liveRun, error) {
	var run liveRun
	n := int(int64(s.rate) * int64(seconds) / int64(time.Second))
	total := n + 1 // the warm-up broadcast is sequence number 1
	pl := payloads(seed, total)
	hosts, clusters := s.layout()

	rec := newLiveRecorder(hosts, total)
	rec.expect(1, pl[0], time.Now())
	t := time.Now()
	fleet, err := rbcast.StartFleet(rbcast.FleetConfig{
		Hosts:     hosts,
		Source:    hosts[0],
		Clusters:  clusters,
		Seed:      seed,
		OnDeliver: rec.deliver,
	})
	if err != nil {
		return run, fmt.Errorf("starting fleet: %w", err)
	}
	defer fleet.Stop()
	if _, err := fleet.Broadcast(pl[0]); err != nil {
		return run, fmt.Errorf("warm-up broadcast: %w", err)
	}
	fleet.WaitDelivered(1, liveDeadline)
	run.setup = time.Since(t)
	time.Sleep(settle)

	sent0, dropped0, lost0, _ := fleet.Transport.Stats()
	cpu0 := processCPU()
	period := time.Second / time.Duration(s.rate)
	start := time.Now()
	for k := 1; k <= n; k++ {
		due := start.Add(time.Duration(k-1) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		run.late.Add(time.Since(due))
		rec.expect(rbcast.Seq(k+1), pl[k], due)
		t := time.Now()
		seq, err := fleet.Broadcast(pl[k])
		run.broadcast += time.Since(t)
		if err != nil {
			return run, fmt.Errorf("broadcast %d: %w", k, err)
		}
		if seq != rbcast.Seq(k+1) {
			run.check.fail(1, "broadcast %d got sequence number %d", k+1, seq)
		}
	}
	fleet.WaitDelivered(rbcast.Seq(total), liveDeadline)
	run.cpu = processCPU() - cpu0
	sent1, dropped1, lost1, _ := fleet.Transport.Stats()
	run.frames = sent1 - sent0
	run.dropped = (dropped1 - dropped0) + (lost1 - lost0)
	run.messages = n

	run.check.attempted = len(hosts) * total
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var missing int
	for seq := 1; seq <= total; seq++ {
		missing += len(hosts) - rec.count[seq]
		if seq > 1 && rec.count[seq] == len(hosts) {
			run.latencies.Add(rec.last[seq].Sub(rec.due[seq]))
		}
	}
	for _, h := range hosts {
		got := fleet.Delivered(h)
		if got.Len() != total || got.Max() != rbcast.Seq(total) {
			run.check.fail(1, "host %d: Fleet.Delivered holds %d of %d", h, got.Len(), total)
		}
	}
	run.check.fail(missing, "%d (host, broadcast) pairs undelivered", missing)
	run.check.fail(rec.wrongDigest, "%d deliveries with a wrong payload digest", rec.wrongDigest)
	run.check.fail(rec.duplicates, "%d duplicate deliveries", rec.duplicates)
	run.check.fail(rec.foreign, "%d deliveries of unknown sequence numbers", rec.foreign)
	if d := fleet.DuplicateDeliveries(); d != rec.duplicates {
		run.check.fail(d, "Fleet.DuplicateDeliveries reports %d", d)
	}
	return run, nil
}

// liveMetrics adds the live runtime's metrics.
func liveMetrics(ms *metricSet, run liveRun) {
	msgs := float64(run.messages)
	ms.add("live.delivery_ms_p50", ms64(run.latencies.Quantile(0.50)), "ms")
	ms.add("live.delivery_ms_p99", ms64(run.latencies.Quantile(0.99)), "ms")
	ms.add("live.cpu_us_per_msg", run.cpu.Seconds()*1e6/msgs, "us/msg")
	ms.add("live.setup_s", run.setup.Seconds(), "s")
	ms.add("live.broadcast_us", run.broadcast.Seconds()*1e6/msgs, "us")
	ms.add("live.frames_per_msg", float64(run.frames)/msgs, "frames/msg")
	ms.add("live.frames_dropped", float64(run.dropped), "count")
	ms.add("live.generator_late_ms", ms64(run.late.Quantile(0.99)), "ms")
}
