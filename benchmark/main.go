// Command benchmark runs the repository's benchmark: three simulated
// workloads, each checked for correct delivery, and in traced runs a
// live fleet.
//
//	go run . --workload sim-steady-24 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a traced run instead and writes a CPU
// profile. Every metric is printed by name with its unit, and the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 72000, "failed": 0, "metrics": {...}}
//
// attempted counts the (host, broadcast) pairs checked and failed those
// not delivered exactly once with the broadcast's payload. The command
// exits 1 when any pair fails, and 2 on a usage or setup error. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	secs := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	profDir := flag.String("pprof", filepath.Join(".bench_build", "profiles"), "directory for the traced run's CPU profiles")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var list []workload
	if *name == "all" {
		list = workloads()
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		list = []workload{w}
	}
	exit := 0
	for _, w := range list {
		ms, check, err := runWorkload(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, *profDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		for _, r := range check.reasons {
			fmt.Printf("%s FAILED: %s\n", w.name, r)
		}
		for _, n := range ms.names {
			fmt.Printf("%s %s %.6g %s\n", w.name, n, ms.values[n].Value, ms.values[n].Unit)
		}
		for _, n := range ms.notes {
			fmt.Printf("%s %s\n", w.name, n)
		}
		out, err := json.Marshal(result{
			Correct:   check.failed == 0,
			Attempted: check.attempted,
			Failed:    check.failed,
			Metrics:   ms.values,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
		if check.failed > 0 || check.attempted == 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}

// runWorkload measures one workload, untraced or traced. A traced run
// also streams the live fleet, the only measurement of the live runtime.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, profDir string) (metricSet, deliveryCheck, error) {
	if !traced {
		m, err := measureSim(w.spec, seed, seconds)
		if err != nil {
			return metricSet{}, deliveryCheck{}, err
		}
		return simMetrics(m), m.check, nil
	}
	ms, c, err := traceSim(w.spec, seed, seconds, filepath.Join(profDir, w.name+".pprof"))
	if err != nil {
		return ms, c, err
	}
	run, err := runLive(liveFleet, seed, liveSeconds)
	if err != nil {
		return ms, c, fmt.Errorf("live fleet: %w", err)
	}
	c.merge(run.check)
	liveMetrics(&ms, run)
	return ms, c, nil
}
