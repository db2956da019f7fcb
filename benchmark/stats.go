package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for printing.
// Notes are printed after them but left out of the result line.
type metricSet struct {
	names  []string
	values map[string]metric
	notes  []string
}

func (s *metricSet) note(name string, value float64, unit string) {
	s.notes = append(s.notes, fmt.Sprintf("%s %.6g %s", name, value, unit))
}

func (s *metricSet) add(name string, value float64, unit string) {
	if s.values == nil {
		s.values = make(map[string]metric)
	}
	if _, dup := s.values[name]; !dup {
		s.names = append(s.names, name)
	}
	s.values[name] = metric{Value: value, Unit: unit}
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ms64 converts a duration to fractional milliseconds.
func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchHeap samples the live heap, the bytes the last garbage
// collection found reachable, every few milliseconds until the returned
// stop function is called. stop forces one last collection, waits for
// the sampler to exit and returns the largest value seen. The live heap
// is what the program holds, so it does not swing with GC pacing the way
// the allocated heap does.
func watchHeap() (stop func() uint64) {
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > peak {
			peak = v.Uint64()
		}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-exited
		runtime.GC()
		read()
		return peak
	}
}
