// Command bench is the repository's end-to-end benchmark. It runs named
// workloads by calling the public layer functions directly (graph,
// congest, tree, mst/ghs, spanning, serve), times each call from the
// outside, validates every output, and prints every metric by name with
// its unit.
//
// One run of one workload:
//
//	bash bench/run.sh --workload build-mst-100k --seed 1 --seconds 15 --trace 0
//
// prints a detail line (raw samples, host probe readings and simulated
// cost), then as its last line the result {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics of
// untraced passes; --trace 1 attaches the bench's congest.Observer and
// reports the per-layer metrics instead.
//
// Without --workload the command runs the suite: --reps rounds of every
// workload, round-robin, each run in a fresh child process, then with
// --traced one traced run per workload. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload (default: the round-robin suite)")
	seed := fs.Uint64("seed", 1, "seed of the coins, async delays and churn; each workload fixes its graphs")
	seconds := fs.Int("seconds", 15, "time budget of one run; passes stop before exceeding it (at least one)")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from traced passes")
	reps := fs.Int("reps", 5, "suite: runs of every workload")
	traced := fs.Bool("traced", false, "suite: add one traced run per workload")
	out := fs.String("out", "", "suite: also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *reps < 1 {
		fmt.Fprintln(stderr, "bench: want --trace 0|1, --seconds >= 0, --reps >= 1 and no positional arguments")
		return 2
	}
	if *name == "" {
		return runSuite(suiteConfig{reps: *reps, seed: *seed, seconds: *seconds, traced: *traced, out: *out}, stdout, stderr)
	}
	w, err := fullWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	r := measure(w, time.Duration(*seconds)*time.Second, *trace == 1)
	res := r.result(*trace == 1)
	if err := printJSON(stdout, r.detail(*name, *seed, *trace)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// detail is the line a run prints before its result: the raw samples and
// the simulated cost that the suite reports and checks for parity.
type detail struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Trace    int          `json:"trace"`
	SetupS   []float64    `json:"setup_s"`
	Passes   []passRecord `json:"passes"`
	Messages uint64       `json:"messages,omitempty"`
	Bits     uint64       `json:"bits,omitempty"`
	SimTime  int64        `json:"sim_time,omitempty"`
	Digest   string       `json:"digest,omitempty"`
	Repairs  int          `json:"repairs,omitempty"`
	// ProbesS are the host probe's readings (hostprobe.go), before the
	// first set-up and after every pass, and HostFactor the scale they
	// give: setup_s and wall_s are the raw times above times HostFactor.
	ProbesS    []float64 `json:"probes_s"`
	HostFactor float64   `json:"host_factor"`
}

// passRecord is one pass: its raw wall time, and the part of it spent
// inside the protocol calls.
type passRecord struct {
	Start     time.Time `json:"start"`
	WallS     float64   `json:"wall_s"`
	ProtocolS float64   `json:"protocol_s"`
}

func (r run) detail(name string, seed uint64, trace int) detail {
	first := r.passes[0] // every pass of a run executes the same inputs
	d := detail{
		Workload: name, Seed: seed, Trace: trace, SetupS: r.setups,
		Messages: first.messages, Bits: first.bits, SimTime: first.simTime,
		Digest: first.digest, Repairs: first.repairs,
		ProbesS: r.probes, HostFactor: r.hostFactor(),
	}
	for _, p := range r.passes {
		d.Passes = append(d.Passes, passRecord{Start: p.start, WallS: p.wall.Seconds(), ProtocolS: p.protocol.Seconds()})
	}
	return d
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
