package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric declares one reported metric. BENCHMARK.json declares the same
// names, units, directions and bounds; names_test.go keeps the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run; every workload reports each
// of them. wall_s is what a user waits for, and messages and bits are the
// cost the paper bounds: a change that sends more messages, even cheap
// ones, shows in them. They stay steady across seeds because the seed does
// not choose the graph (graphSeed).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.20},
	{"messages", "count", "lower", 0.15},
	{"bits", "count", "lower", 0.20},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of a traced run. A workload that bypasses a
// layer reports 0 for it.
var perLayer = func() []metric {
	ms := []metric{
		{"bench.pass_s", "s", "lower", 0},
		{"graph.generate_s", "s", "lower", 0},
		{"graph.edges", "count", "lower", 0},
		{"congest.new_network_s", "s", "lower", 0},
		{"congest.messages", "count", "lower", 0},
		{"congest.bits", "count", "lower", 0},
		{"congest.sim_time", "count", "lower", 0},
		{"congest.rounds", "count", "lower", 0},
		{"congest.round_p50_us", "us", "lower", 0},
		{"congest.round_p99_us", "us", "lower", 0},
		{"congest.msgs_per_round", "count", "higher", 0},
		{"congest.sessions", "count", "lower", 0},
		{"congest.async_conflicts", "count", "lower", 0},
		{"congest.peak_tasks", "count", "lower", 0},
		{"tree.msgs.down", "count", "lower", 0},
		{"tree.msgs.up", "count", "lower", 0},
		{"tree.msgs.token", "count", "lower", 0},
		{"tree.msgs.markx", "count", "lower", 0},
		{"tree.bcast_echo", "count", "lower", 0},
		{"tree.elect", "count", "lower", 0},
		{"findmin.found", "count", "higher", 0},
		{"findmin.empty-cut", "count", "lower", 0},
		{"findmin.gave-up", "count", "lower", 0},
		{"mst.build_s", "s", "lower", 0},
		{"ghs.build_s", "s", "lower", 0},
		{"mst.phases", "count", "lower", 0},
		{"ghs.phases", "count", "lower", 0},
	}
	for k := 1; k <= phaseSlots; k++ {
		ms = append(ms, metric{fmt.Sprintf("mst.phase_s.%d", k), "s", "lower", 0})
	}
	return append(ms, []metric{
		{"mst.phase_s.rest", "s", "lower", 0},
		{"mst.merge_ratio", "ratio", "higher", 0},
		{"mst.gaveups", "count", "lower", 0},
		{"ghs.msgs.test", "count", "lower", 0},
		{"spanning.validate_s", "s", "lower", 0},
		{"faultplan.compile_s", "s", "lower", 0},
		{"admit.waves", "count", "lower", 0},
		{"admit.repairs", "count", "lower", 0},
		{"admit.retries", "count", "lower", 0},
		{"admit.inline", "count", "lower", 0},
		{"admit.repairs_per_wave", "ratio", "higher", 0},
		{"admit.wave_p50_ms", "ms", "lower", 0},
		{"admit.wave_p99_ms", "ms", "lower", 0},
		{"serve.update_p50_ms", "ms", "lower", 0},
		{"serve.update_p99_ms", "ms", "lower", 0},
		{"serve.epoch_p50_ms", "ms", "lower", 0},
		{"serve.rebuild_s", "s", "lower", 0},
		{"serve.repair_rounds_p50", "count", "lower", 0},
		{"serve.repair_rounds_p99", "count", "lower", 0},
		{"serve.msgs_per_repair", "count", "lower", 0},
		{"runtime.alloc_mb", "MiB", "lower", 0},
		{"runtime.mallocs", "count", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
		{"runtime.gc_pause_ms", "ms", "lower", 0},
		{"runtime.alloc_bytes_per_msg", "B", "lower", 0},
		{"mem.rss_bytes_per_node", "B", "lower", 0},
	}...)
}()

// A run performs at least minSetups standalone set-ups besides the one
// inside every pass, and keeps going (up to maxSetups) until they took
// minSetupTime, so that even a 50 ms set-up gives a steady median.
const (
	minSetups    = 2
	maxSetups    = 25
	minSetupTime = time.Second
)

// run is one measured run of a workload: standalone set-ups, then passes
// until the time budget would be exceeded (at least one).
type run struct {
	setups  []float64 // seconds
	passes  []pass
	peakRSS float64 // bytes
	// probes are the host probe's readings (hostprobe.go) before the first
	// set-up and after every pass.
	probes []float64
}

func measure(w workload, budget time.Duration, traced bool) run {
	r := run{probes: []float64{probeHost()}}
	nodes := float64(w.nodes())
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < minSetupTime); i++ {
		runtime.GC()
		d := w.setupOnly()
		spent += d
		r.setups = append(r.setups, d.Seconds())
	}
	start := time.Now()
	for {
		runtime.GC()
		p := w.pass(traced)
		p.layers["bench.pass_s"] = p.wall.Seconds()
		p.layers["mem.rss_bytes_per_node"] = peakRSS() / nodes
		r.passes = append(r.passes, p)
		r.setups = append(r.setups, p.setup.Seconds())
		r.probes = append(r.probes, probeHost())
		if time.Since(start)+p.wall > budget {
			break
		}
	}
	r.peakRSS = peakRSS()
	return r
}

// hostFactor scales the run's times to the nominal host speed.
func (r run) hostFactor() float64 { return hostFactor(quantile(r.probes, 0.5)) }

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result reports the end-to-end metrics, or with traced the per-layer
// ones, each the median over the run's passes.
func (r run) result(traced bool) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, p := range r.passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	first := r.passes[0]
	for _, p := range r.passes[1:] {
		// Every pass executes the same inputs, and the program is
		// deterministic: a pass that simulated anything else is wrong.
		if p.messages != first.messages || p.bits != first.bits || p.simTime != first.simTime || p.digest != first.digest {
			fmt.Fprintf(os.Stderr, "bench: passes differ: %d/%d/%d %s, first %d/%d/%d %s\n",
				p.messages, p.bits, p.simTime, p.digest, first.messages, first.bits, first.simTime, first.digest)
			res.Correct = false
		}
	}
	if !traced {
		walls := make([]float64, len(r.passes))
		for i, p := range r.passes {
			walls[i] = p.wall.Seconds()
		}
		f := r.hostFactor()
		res.Metrics["setup_s"] = metricValue{quantile(r.setups, 0.5) * f, "s"}
		res.Metrics["wall_s"] = metricValue{quantile(walls, 0.5) * f, "s"}
		res.Metrics["messages"] = metricValue{float64(first.messages), "count"}
		res.Metrics["bits"] = metricValue{float64(first.bits), "count"}
		res.Metrics["peak_rss_mb"] = metricValue{r.peakRSS / (1 << 20), "MiB"}
		return res
	}
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
		vals := make([]float64, len(r.passes))
		for i, p := range r.passes {
			vals[i] = p.layers[m.Name]
		}
		res.Metrics[m.Name] = metricValue{quantile(vals, 0.5), m.Unit}
	}
	for _, p := range r.passes {
		for name := range p.layers {
			if !declared[name] {
				panic(fmt.Sprintf("bench: metric %q is not declared in perLayer", name))
			}
		}
	}
	return res
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad pointer or "who" argument fails
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// quantile is the p-quantile of xs by the method of Python's
// statistics.quantiles (exclusive: position (n+1)·p, interpolated, clamped
// to the extremes); 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(len(s)+1) * p
	switch {
	case pos <= 1:
		return s[0]
	case pos >= float64(len(s)):
		return s[len(s)-1]
	}
	j := int(pos)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
