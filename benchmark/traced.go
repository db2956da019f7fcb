package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rbcast/internal/core"
	"rbcast/internal/harness"
	"rbcast/internal/netsim"
	"rbcast/internal/seqset"
	"rbcast/internal/sim"
	"rbcast/internal/wire"
)

// The traced run times calls into each layer from this file only: the
// program is not instrumented. The harness hides two calls that need a
// span, Host.Tick and Network.Send, inside closures of its own, so the
// traced pass wires the topology, hosts, params and seed itself, in the
// order harness.Prepare does, and checks that it runs the same number of
// events and sends as an untraced harness run of the same seed.

const (
	// runStep and defaultDrain mirror harness.Runtime.RunUntil and the
	// scenario default, so the traced pass stops at the same instant.
	runStep      = 100 * time.Millisecond
	defaultDrain = 30 * time.Second
	// sampleEvery is how many run steps pass between samples of the
	// hosts' INFO sets.
	sampleEvery = 10
	// captureEvery and captureCap pick the sends whose frames feed the
	// wire codec timing: every 16th send of a lane, up to 4096 a lane.
	captureEvery = 16
	captureCap   = 4096
	// microDuration is how long each codec and seqset timing loop runs.
	microDuration = 50 * time.Millisecond
)

// laneTrace holds the spans and counts of one lane. A lane's events run
// on one goroutine, so each lane writes only its own record, and the
// records are read only while the lanes are parked.
type laneTrace struct {
	handleCalls, tickCalls, sendCalls, broadcastCalls uint64
	// *Ns are self times: a span's duration minus the child spans
	// (Network.Send and the delivery record) that ran inside it.
	handleNs, tickNs, sendNs, broadcastNs int64
	// childNs accumulates every child span, so a parent can subtract the
	// children that ran during it.
	childNs int64

	infoSends, dataSends, gapFills, attachReqs, attachAccepts uint64

	delivered, duplicates, wrongDigest, foreign, sendErrors int
	got                                                     map[core.HostID]map[seqset.Seq]bool

	sends  uint64
	frames []wire.Frame

	// Pad so that neighbouring lanes' counters share no cache line.
	_ [64]byte
}

// tracedPass is one self-wired traced run.
type tracedPass struct {
	// clock reads the time for every span. An untimed pass reads a
	// constant instead, so it runs the same wiring without the clock
	// reads and gives the tracing overhead.
	clock   func() time.Time
	lanes   []laneTrace
	hosts   []*core.Host
	digests map[seqset.Seq]uint64

	runWall, runCPU time.Duration
	events          uint64
	pendingPeak     int
	net             netsim.Stats
	messages        int
	eventErrors     int

	infoRuns, infoSamples int
	diffPairs             [][2]seqset.Set
}

// tracedEnv is a host's core.Env in the traced pass.
type tracedEnv struct {
	pass *tracedPass
	lane *laneTrace
	net  *netsim.Network
	id   core.HostID
}

func (e *tracedEnv) Send(to core.HostID, m core.Message) {
	l := e.lane
	switch m.Kind {
	case core.MsgInfo, core.MsgInfoDelta:
		l.infoSends++
	case core.MsgData:
		if m.GapFill {
			l.gapFills++
		} else {
			l.dataSends++
		}
	case core.MsgAttachReq:
		l.attachReqs++
	case core.MsgAttachAccept:
		l.attachAccepts++
	}
	l.sends++
	if l.sends%captureEvery == 0 && len(l.frames) < captureCap {
		l.frames = append(l.frames, wire.Frame{From: e.id, Message: m})
	}
	clock := e.pass.clock
	t := clock()
	err := e.net.Send(netsim.HostID(e.id), netsim.HostID(to), m)
	d := int64(clock().Sub(t))
	l.sendNs += d
	l.childNs += d
	l.sendCalls++
	if err != nil {
		l.sendErrors++
	}
}

func (e *tracedEnv) Deliver(seq seqset.Seq, payload []byte) {
	clock := e.pass.clock
	t := clock()
	l := e.lane
	per := l.got[e.id]
	switch want, known := e.pass.digests[seq]; {
	case !known:
		l.foreign++
	case per[seq]:
		l.duplicates++
	default:
		per[seq] = true
		l.delivered++
		if digest(payload) != want {
			l.wrongDigest++
		}
	}
	l.childNs += int64(clock().Sub(t))
}

func digest(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// runTracedPass wires and runs spec with every layer call timed, or with
// the same wiring untimed.
func runTracedPass(spec simSpec, seed int64, shards int, timed bool) (*tracedPass, error) {
	clock := time.Now
	if !timed {
		clock = func() time.Time { return time.Time{} }
	}
	var eng sim.Loop
	var sharded *sim.Sharded
	if shards > 0 {
		sharded = sim.NewSharded(seed, shards)
		eng = sharded
	} else {
		eng = sim.NewEngine(seed)
	}
	tp, err := spec.build(seed)(eng)
	if err != nil {
		return nil, err
	}
	if sharded != nil {
		plan := tp.Net.ComputeShardPlan()
		sharded.SetLanes(plan.Weights, plan.Lookahead)
		if err := tp.Net.ApplyShardPlan(plan); err != nil {
			return nil, err
		}
	}
	params := core.DefaultParams()
	p := &tracedPass{
		clock:    clock,
		lanes:    make([]laneTrace, tp.Net.Lanes()),
		digests:  make(map[seqset.Seq]uint64),
		messages: spec.messages,
	}
	peers := make([]core.HostID, 0, len(tp.Hosts))
	for _, h := range tp.Hosts {
		peers = append(peers, core.HostID(h))
	}
	for i := range p.lanes {
		p.lanes[i].got = make(map[core.HostID]map[seqset.Seq]bool)
	}
	var source *core.Host
	for _, id := range peers {
		lane := tp.Net.LaneOfHost(netsim.HostID(id))
		l := &p.lanes[lane]
		l.got[id] = make(map[seqset.Seq]bool)
		h, err := core.NewHost(core.Config{
			ID:         id,
			Source:     core.HostID(tp.Source),
			Peers:      peers,
			Params:     params,
			JitterSeed: seed,
		}, &tracedEnv{pass: p, lane: l, net: tp.Net, id: id})
		if err != nil {
			return nil, err
		}
		p.hosts = append(p.hosts, h)
		if id == core.HostID(tp.Source) {
			source = h
		}
		if err := tp.Net.Handle(netsim.HostID(id), func(now time.Duration, env netsim.Envelope) {
			m, ok := env.Payload.(core.Message)
			if !ok {
				return
			}
			c0 := l.childNs
			t := clock()
			h.HandleMessage(now, core.HostID(env.From), env.CostBit, m)
			l.handleNs += int64(clock().Sub(t)) - (l.childNs - c0)
			l.handleCalls++
		}); err != nil {
			return nil, err
		}
		tick := func() {
			c0 := l.childNs
			t := clock()
			h.Tick(eng.NowOf(lane))
			l.tickNs += int64(clock().Sub(t)) - (l.childNs - c0)
			l.tickCalls++
		}
		eng.ScheduleOn(lane, 0, tick)
		eng.EveryOn(lane, params.TickInterval, tick)
	}
	srcLane := &p.lanes[tp.Net.LaneOfHost(tp.Source)]
	pl := payloads(seed, spec.messages)
	for i := 0; i < spec.messages; i++ {
		i := i
		eng.Schedule(spec.warmUp+time.Duration(i)*spec.interval, func() {
			want := seqset.Seq(i + 1)
			p.digests[want] = digest(pl[i])
			c0 := srcLane.childNs
			t := clock()
			seq := source.Broadcast(eng.Now(), pl[i])
			srcLane.broadcastNs += int64(clock().Sub(t)) - (srcLane.childNs - c0)
			srcLane.broadcastCalls++
			if seq != want {
				p.eventErrors++
			}
		})
	}
	horizon := spec.warmUp + time.Duration(spec.messages)*spec.interval + defaultDrain
	for _, ev := range spec.schedule(seed) {
		ev := ev
		eng.Schedule(ev.at, func() {
			if err := ev.do(tp); err != nil {
				p.eventErrors++
			}
		})
		horizon = max(horizon, ev.at+defaultDrain)
	}

	expected := len(peers) * spec.messages
	cpu0 := processCPU()
	for step := 1; eng.Now() < horizon; step++ {
		next := min(eng.Now()+runStep, horizon)
		t := time.Now()
		err := eng.Run(next)
		p.runWall += time.Since(t)
		if err != nil {
			return nil, err
		}
		p.pendingPeak = max(p.pendingPeak, eng.Pending())
		if step%sampleEvery == 0 {
			p.sampleSets()
		}
		delivered := 0
		for i := range p.lanes {
			delivered += p.lanes[i].delivered
		}
		if delivered == expected {
			break
		}
	}
	p.runCPU = processCPU() - cpu0
	p.events = eng.EventsRun()
	p.net = *tp.Net.Stats()
	return p, nil
}

// sampleSets records, for every host, the run count of its INFO set and
// the pair (INFO, its map of its parent's INFO) that gap filling diffs.
func (p *tracedPass) sampleSets() {
	for _, h := range p.hosts {
		info := h.Info()
		p.infoRuns += info.RunCount()
		p.infoSamples++
		if parent := h.Parent(); parent != core.Nil && len(p.diffPairs) < 4096 {
			p.diffPairs = append(p.diffPairs, [2]seqset.Set{h.MapOf(parent), info})
		}
	}
}

// check applies the delivery gate to the traced pass.
func (p *tracedPass) check() deliveryCheck {
	var c deliveryCheck
	c.attempted = len(p.hosts) * p.messages
	var delivered, dups, wrong, foreign, sendErrors int
	for i := range p.lanes {
		l := &p.lanes[i]
		sendErrors += l.sendErrors
		delivered += l.delivered
		dups += l.duplicates
		wrong += l.wrongDigest
		foreign += l.foreign
	}
	c.fail(c.attempted-delivered, "traced run: %d (host, broadcast) pairs undelivered", c.attempted-delivered)
	c.fail(wrong, "traced run: %d deliveries with a wrong payload digest", wrong)
	c.fail(dups, "traced run: %d duplicate deliveries", dups)
	c.fail(foreign, "traced run: %d deliveries of unknown sequence numbers", foreign)
	c.fail(sendErrors, "traced run: %d rejected sends", sendErrors)
	c.fail(p.eventErrors, "traced run: %d failed broadcasts or scenario events", p.eventErrors)
	return c
}

// hookTrace times the harness's three Network hooks, per lane.
type hookTrace struct {
	calls uint64
	ns    int64
	_     [64]byte
}

// wrapHooks replaces the hooks harness.Prepare installed with timed
// wrappers around them.
func wrapHooks(rt *harness.Runtime, lanes []hookTrace) {
	onSend, onLink, onHostLink := rt.Net.OnSend, rt.Net.OnLinkTransmit, rt.Net.OnHostLinkTransmit
	rt.Net.OnSend = func(lane int, env netsim.Envelope, inter bool) {
		t := time.Now()
		onSend(lane, env, inter)
		lanes[lane].ns += int64(time.Since(t))
		lanes[lane].calls++
	}
	rt.Net.OnLinkTransmit = func(lane int, id netsim.LinkID, class netsim.LinkClass, env netsim.Envelope) {
		t := time.Now()
		onLink(lane, id, class, env)
		lanes[lane].ns += int64(time.Since(t))
		lanes[lane].calls++
	}
	rt.Net.OnHostLinkTransmit = func(lane int, h netsim.HostID, env netsim.Envelope) {
		t := time.Now()
		onHostLink(lane, h, env)
		lanes[lane].ns += int64(time.Since(t))
		lanes[lane].calls++
	}
}

// traceSim is the traced run of a sim workload. It makes, in order: an
// untraced harness run under the CPU profiler, whose counts every later
// run must reproduce; a harness run with its hooks timed; rounds of an
// untraced run, an untimed and a timed self-wired pass while time is
// left; and the untraced runs at nproc workers, one worker and on the
// sequential engine that the parallel speedup still lacks.
func traceSim(spec simSpec, seed int64, seconds time.Duration, profPath string) (metricSet, deliveryCheck, error) {
	var ms metricSet
	var c deliveryCheck
	deadline := time.Now().Add(seconds)

	ref, err := profiled(profPath, func() (simIter, error) {
		return runChecked(spec, seed, spec.shards, nil, &c)
	})
	if err != nil {
		return ms, c, err
	}
	var hooks []hookTrace
	hooked, err := runChecked(spec, seed, spec.shards, func(rt *harness.Runtime) {
		hooks = make([]hookTrace, rt.Net.Lanes())
		wrapHooks(rt, hooks)
	}, &c)
	if err != nil {
		return ms, c, err
	}

	// Untraced, untimed and traced runs alternate, so that machine noise
	// reaches every side alike. The untimed pass is the traced wiring
	// without clock reads: the tracing overhead is the traced pass's Run
	// wall over it. The harness runs carry its accounting hooks, which
	// the self-wired passes leave out, so they give the rates instead.
	var plain []simIter
	var passes, untimed []*tracedPass
	for len(passes) == 0 || time.Now().Before(deadline) {
		it, err := runChecked(spec, seed, spec.shards, nil, &c)
		if err != nil {
			return ms, c, err
		}
		plain = append(plain, it)

		runtime.GC()
		u, err := runTracedPass(spec, seed, spec.shards, false)
		if err != nil {
			return ms, c, err
		}
		runtime.GC()
		p, err := runTracedPass(spec, seed, spec.shards, true)
		if err != nil {
			return ms, c, err
		}
		pc := p.check()
		pc.merge(u.check())
		for _, got := range []struct {
			what         string
			events, sent uint64
		}{
			{"untraced", it.events, it.hostSends},
			{"untimed", u.events, u.net.HostSends},
			{"traced", p.events, p.net.HostSends},
		} {
			if got.events != ref.events || got.sent != ref.hostSends {
				pc.fail(1, "%s run ran %d events and %d sends, the first run %d and %d",
					got.what, got.events, got.sent, ref.events, ref.hostSends)
			}
		}
		c.merge(pc)
		passes = append(passes, p)
		untimed = append(untimed, u)
	}

	nproc := runtime.NumCPU()
	speeds := map[int]float64{spec.shards: simSpeed(plain)}
	counts := map[int]uint64{spec.shards: ref.events}
	for _, shards := range []int{nproc, 1, 0} {
		if _, done := speeds[shards]; done {
			continue
		}
		it, err := runChecked(spec, seed, shards, nil, &c)
		if err != nil {
			return ms, c, err
		}
		speeds[shards] = simSpeed([]simIter{it})
		counts[shards] = it.events
	}
	// Every laned run has the same trace whatever its worker count.
	if counts[nproc] != counts[1] {
		c.fail(1, "laned runs differ: %d events at %d workers, %d at 1", counts[nproc], nproc, counts[1])
	}

	layerMetrics(&ms, plain, hooked, hooks, passes, untimed)
	ms.add("sim.parallel_speedup", speeds[nproc]/speeds[1], "x")
	ms.add("sim.parallel_speedup_vs_seq", speeds[nproc]/speeds[0], "x")
	return ms, c, nil
}

// runChecked makes one harness run after a collection, merges its
// delivery gate into c and drops its result.
func runChecked(spec simSpec, seed int64, shards int, hook func(*harness.Runtime), c *deliveryCheck) (simIter, error) {
	runtime.GC()
	it, err := runSimIter(spec, seed, shards, hook)
	if err != nil {
		return it, err
	}
	c.merge(checkResult(it.res))
	it.res = nil
	return it, nil
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func() (simIter, error)) (simIter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return simIter{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return simIter{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return simIter{}, err
	}
	it, runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("writing %s: %w", path, err)
	}
	return it, runErr
}

// layerMetrics adds the sim, netsim, core, seqset, harness and wire
// metrics. Counts and self times come from the traced passes, whose
// counts equal the untraced runs'; rates come from the untraced runs.
func layerMetrics(ms *metricSet, plain []simIter, hooked simIter, hooks []hookTrace, passes, untimed []*tracedPass) {
	var agg laneTrace
	var runCPU time.Duration
	var tracedWall, untimedWall []float64
	for _, u := range untimed {
		untimedWall = append(untimedWall, u.runWall.Seconds())
	}
	for _, p := range passes {
		runCPU += p.runCPU
		tracedWall = append(tracedWall, p.runWall.Seconds())
		for i := range p.lanes {
			l := &p.lanes[i]
			agg.handleCalls += l.handleCalls
			agg.tickCalls += l.tickCalls
			agg.sendCalls += l.sendCalls
			agg.broadcastCalls += l.broadcastCalls
			agg.handleNs += l.handleNs
			agg.tickNs += l.tickNs
			agg.sendNs += l.sendNs
			agg.broadcastNs += l.broadcastNs
			agg.childNs += l.childNs - l.sendNs
		}
	}
	first := passes[0]
	var info, data, gap, req, acc uint64
	for i := range first.lanes {
		l := &first.lanes[i]
		info += l.infoSends
		data += l.dataSends
		gap += l.gapFills
		req += l.attachReqs
		acc += l.attachAccepts
	}
	n := float64(len(passes))
	spans := agg.handleNs + agg.tickNs + agg.sendNs + agg.broadcastNs + agg.childNs
	msgs := float64(first.messages)

	ms.add("sim.events", float64(first.events), "count")
	var events uint64
	var wall, cpu time.Duration
	for _, it := range plain {
		events += it.events
		wall += it.runWall
		cpu += it.runCPU
	}
	ms.add("sim.events_per_s", float64(events)/wall.Seconds(), "1/s")
	ms.add("sim.self_s", (runCPU.Seconds()-float64(spans)/1e9)/n, "s")
	ms.add("sim.pending_peak", float64(first.pendingPeak), "count")
	ms.add("sim.cpu_per_wall", cpu.Seconds()/wall.Seconds(), "ratio")
	ms.add("sim.trace_overhead", median(tracedWall)/median(untimedWall)-1, "ratio")

	st := first.net
	var linkTx uint64
	for _, v := range st.LinkTransmissions {
		linkTx += v
	}
	ms.add("netsim.host_sends", float64(st.HostSends), "count")
	ms.add("netsim.link_tx", float64(linkTx), "count")
	ms.add("netsim.delivered_ratio", float64(st.Delivered)/float64(st.HostSends), "ratio")
	ms.add("netsim.lost", float64(st.Lost), "count")
	ms.add("netsim.dropped", float64(st.DroppedLinkDown+st.DroppedNoRoute), "count")
	ms.add("netsim.send_ns", perCall(agg.sendNs, agg.sendCalls), "ns")

	ms.add("core.handle_calls", float64(agg.handleCalls)/n, "count")
	ms.add("core.handle_ns", perCall(agg.handleNs, agg.handleCalls), "ns")
	ms.add("core.tick_calls", float64(agg.tickCalls)/n, "count")
	ms.add("core.tick_ns", perCall(agg.tickNs, agg.tickCalls), "ns")
	ms.add("core.broadcast_ns", perCall(agg.broadcastNs, agg.broadcastCalls), "ns")
	ms.add("core.info_sends_per_msg", float64(info)/msgs, "sends/msg")
	ms.add("core.gapfill_share", float64(gap)/float64(data+gap), "ratio")
	ms.add("core.attach_accept_ratio", float64(acc)/float64(max(req, 1)), "ratio")

	ms.add("seqset.runs_per_info", float64(first.infoRuns)/float64(max(first.infoSamples, 1)), "runs")
	ms.add("seqset.diff_ns", timeDiffs(first.diffPairs), "ns")

	var hookCalls uint64
	var hookNs int64
	for _, h := range hooks {
		hookCalls += h.calls
		hookNs += h.ns
	}
	prepares := []time.Duration{hooked.prepare}
	for _, it := range plain {
		prepares = append(prepares, it.prepare)
	}
	ms.add("harness.prepare_s", median(toSeconds(prepares)), "s")
	ms.add("harness.hook_calls", float64(hookCalls), "count")
	ms.add("harness.hook_ns", perCall(hookNs, hookCalls), "ns")
	ms.add("harness.hook_share", float64(hookNs)/float64(hooked.runCPU), "ratio")

	var frames []wire.Frame
	for i := range first.lanes {
		frames = append(frames, first.lanes[i].frames...)
	}
	enc, dec, size := timeCodec(frames)
	ms.add("wire.encode_ns", enc, "ns")
	ms.add("wire.decode_ns", dec, "ns")
	ms.add("wire.bytes_per_frame", size, "B")
}

func perCall(ns int64, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink int

// timeDiffs times Set.Diff over the sampled (map of parent, INFO) pairs
// and returns the mean time per call.
func timeDiffs(pairs [][2]seqset.Set) float64 {
	if len(pairs) == 0 {
		return 0
	}
	calls := 0
	t := time.Now()
	for time.Since(t) < microDuration {
		for _, p := range pairs {
			sink += p[0].Diff(p[1]).RunCount()
		}
		calls += len(pairs)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(calls)
}

// timeCodec times wire.AppendEncode and Decoder.Decode over the captured
// frames and returns ns per encode, ns per decode and the mean frame
// size. Frames carrying parts take the allocating wire.Decode, as the
// live runtime does.
func timeCodec(frames []wire.Frame) (encNs, decNs, size float64) {
	if len(frames) == 0 {
		return 0, 0, 0
	}
	encoded := make([][]byte, 0, len(frames))
	var total int
	for _, f := range frames {
		b, err := wire.Encode(f)
		if err != nil {
			continue
		}
		encoded = append(encoded, b)
		total += len(b)
	}
	buf := make([]byte, 0, 4096)
	calls := 0
	t := time.Now()
	for time.Since(t) < microDuration {
		for _, f := range frames {
			buf, _ = wire.AppendEncode(buf[:0], f)
		}
		calls += len(frames)
	}
	encNs = float64(time.Since(t).Nanoseconds()) / float64(calls)
	sink += len(buf)

	var d wire.Decoder
	calls = 0
	t = time.Now()
	for time.Since(t) < microDuration {
		for _, b := range encoded {
			f, err := d.Decode(b)
			if errors.Is(err, wire.ErrHasParts) {
				f, _ = wire.Decode(b)
			}
			sink += int(f.Message.Kind)
		}
		calls += len(encoded)
	}
	decNs = float64(time.Since(t).Nanoseconds()) / float64(calls)
	return encNs, decNs, float64(total) / float64(len(encoded))
}
