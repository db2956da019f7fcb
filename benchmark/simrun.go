package main

import (
	"fmt"
	"runtime"
	"time"

	"rbcast/internal/harness"
)

// simIter is one untraced harness run of a sim workload.
type simIter struct {
	prepare time.Duration
	// runWall and runCPU cover only the engine's Run calls.
	runWall, runCPU time.Duration
	virtual         time.Duration
	events          uint64
	hostSends       uint64
	peakLiveHeap    uint64
	res             *harness.Result
}

// runSimIter prepares and runs one scenario. hook, when set, sees the
// runtime after Prepare and before the first event.
func runSimIter(spec simSpec, seed int64, shards int, hook func(*harness.Runtime)) (simIter, error) {
	var it simIter
	t0 := time.Now()
	rt, err := harness.Prepare(spec.scenario(seed, shards))
	it.prepare = time.Since(t0)
	if err != nil {
		return it, fmt.Errorf("prepare: %w", err)
	}
	if hook != nil {
		hook(rt)
	}
	stopHeap := watchHeap()
	cpu0 := processCPU()
	t := time.Now()
	err = rt.RunUntil(rt.Horizon())
	it.runWall = time.Since(t)
	it.runCPU = processCPU() - cpu0
	it.peakLiveHeap = stopHeap()
	if err != nil {
		return it, fmt.Errorf("run: %w", err)
	}
	it.virtual = rt.Engine.Now()
	it.events = rt.Engine.EventsRun()
	it.res = rt.Finalize()
	it.hostSends = it.res.NetStats.HostSends
	return it, nil
}

// deliveryCheck is the correctness gate of one run: every (host,
// broadcast) pair must be delivered exactly once with the broadcast's
// payload digest.
type deliveryCheck struct {
	attempted, failed int
	reasons           []string
}

func (c *deliveryCheck) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	c.failed += n
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

func (c *deliveryCheck) merge(o deliveryCheck) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, r := range o.reasons {
		if len(c.reasons) < 8 {
			c.reasons = append(c.reasons, r)
		}
	}
}

// checkResult applies the gate to a harness result.
func checkResult(res *harness.Result) deliveryCheck {
	var c deliveryCheck
	c.attempted = len(res.HostList) * len(res.BroadcastAt)
	if len(res.BroadcastAt) != res.Messages {
		c.fail(res.Messages-len(res.BroadcastAt), "%d of %d broadcasts were never sent", res.Messages-len(res.BroadcastAt), res.Messages)
	}
	missing, wrong := 0, 0
	for _, h := range res.HostList {
		for seq, want := range res.BroadcastDigest {
			if _, ok := res.DeliveredAt[h][seq]; !ok {
				missing++
				continue
			}
			if res.DeliveredDigest[h][seq] != want {
				wrong++
			}
		}
	}
	c.fail(missing, "%d (host, broadcast) pairs undelivered", missing)
	c.fail(wrong, "%d deliveries with a wrong payload digest", wrong)
	c.fail(res.DuplicateDeliveries, "%d duplicate deliveries", res.DuplicateDeliveries)
	c.fail(res.ForeignDeliveries, "%d deliveries of unknown sequence numbers", res.ForeignDeliveries)
	c.fail(res.SendErrors, "%d rejected sends", res.SendErrors)
	c.fail(len(res.EventErrors), "scenario event errors: %v", res.EventErrors)
	return c
}

// simMeasure is the untraced measurement of a sim workload: setup
// samples first, then one warm-up run, then timed runs of the same seeded
// scenario until seconds have passed. Every run must reproduce the
// warm-up run's event and send counts, so the warm-up's outputs stand
// for all of them.
type simMeasure struct {
	setup []time.Duration
	// warmUp lets the heap grow and caches fill; it is checked but not
	// timed.
	warmUp simIter
	iters  []simIter
	// gauge ran the reference kernel after each timed run, for a quarter
	// of the run's wall time.
	gauge refGauge
	out   simOutputs
	check deliveryCheck
}

// simOutputs are the deterministic outputs of one run that end-to-end
// metrics report.
type simOutputs struct {
	p50, p99                                time.Duration
	interClusterDataPerMsg, wireBytesPerMsg float64
	messages                                int
}

const setupSamples = 5

func measureSim(spec simSpec, seed int64, seconds time.Duration) (simMeasure, error) {
	var m simMeasure
	// Prepare alone, several times: setup_s is their median together with
	// the Prepare of every measured run.
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		sc := spec.scenario(seed, spec.shards)
		if _, err := harness.Prepare(sc); err != nil {
			return m, fmt.Errorf("prepare: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0))
	}
	warm, err := m.run(spec, seed, true)
	if err != nil {
		return m, err
	}
	m.warmUp = warm
	deadline := time.Now().Add(seconds)
	for len(m.iters) == 0 || time.Now().Before(deadline) {
		it, err := m.run(spec, seed, false)
		if err != nil {
			return m, err
		}
		m.iters = append(m.iters, it)
		m.gauge.measure(it.runWall / 4)
	}
	return m, nil
}

// run makes one run, applies the delivery gate and the determinism
// check, and drops the run's result so that later runs do not carry it
// in their heap. The warm-up run's outputs are kept for the metrics.
func (m *simMeasure) run(spec simSpec, seed int64, warmUp bool) (simIter, error) {
	runtime.GC()
	it, err := runSimIter(spec, seed, spec.shards, nil)
	if err != nil {
		return it, err
	}
	m.setup = append(m.setup, it.prepare)
	c := checkResult(it.res)
	if warmUp {
		res := it.res
		m.out = simOutputs{
			p50:                    res.Delays.Quantile(0.50),
			p99:                    res.Delays.Quantile(0.99),
			interClusterDataPerMsg: res.InterClusterDataPerMessage(),
			wireBytesPerMsg:        float64(res.WireBytes) / float64(res.TotalMessages()),
			messages:               res.TotalMessages(),
		}
	} else if w := m.warmUp; it.events != w.events || it.hostSends != w.hostSends {
		c.fail(1, "run %d is not deterministic: %d events and %d sends, the first run %d and %d",
			len(m.iters)+1, it.events, it.hostSends, w.events, w.hostSends)
	}
	m.check.merge(c)
	it.res = nil
	return it, nil
}

// simSpeed is virtual time simulated per wall second of Run, as a total
// over the totals of every run: each run's virtual time and wall time are
// summed once, so the ratio does not shrink with the number of runs.
func simSpeed(iters []simIter) float64 {
	var virtual, wall time.Duration
	for _, it := range iters {
		virtual += it.virtual
		wall += it.runWall
	}
	return virtual.Seconds() / wall.Seconds()
}

// simMetrics returns the end-to-end metrics of a sim measurement. Its
// timings, sim_speed, setup_s and cpu_us_per_msg, are divided by the
// machine's slowdown over the measurement; their raw values are printed
// as notes.
func simMetrics(m simMeasure) metricSet {
	var cpu time.Duration
	heaps := make([]float64, 0, len(m.iters))
	for _, it := range m.iters {
		cpu += it.runCPU
		heaps = append(heaps, float64(it.peakLiveHeap)/(1<<20))
	}
	timed := float64(m.out.messages * len(m.iters))
	slow := m.gauge.slowdown()
	var ms metricSet
	ms.add("sim_speed", simSpeed(m.iters)*slow, "s/s")
	ms.add("setup_s", median(toSeconds(m.setup))/slow, "s")
	ms.add("peak_heap_mb", median(heaps), "MB")
	ms.add("delivery_ms_p50", ms64(m.out.p50), "ms")
	ms.add("delivery_ms_p99", ms64(m.out.p99), "ms")
	ms.add("intercluster_data_per_msg", m.out.interClusterDataPerMsg, "sends/msg")
	ms.add("wire_bytes_per_msg", m.out.wireBytesPerMsg, "B/msg")
	ms.add("cpu_us_per_msg", cpu.Seconds()*1e6/timed/slow, "us/msg")
	ms.note("sim_speed_raw", simSpeed(m.iters), "s/s")
	ms.note("setup_s_raw", median(toSeconds(m.setup)), "s")
	ms.note("cpu_us_per_msg_raw", cpu.Seconds()*1e6/timed, "us/msg")
	ms.note("machine_slowdown", slow, "x")
	return ms
}
