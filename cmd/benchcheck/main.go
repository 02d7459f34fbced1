// Command benchcheck turns `go test -bench` output into a JSON perf
// artifact, gates regressions against a committed baseline, and folds
// per-commit suite reports into a perf-trajectory table.
//
//	benchcheck parse [-o out.json]            # stdin: go test -bench output
//	benchcheck compare -baseline a.json -fresh b.json [-ns-tol 0.20] [-allocs-tol 0.02]
//	benchcheck history [-format md|csv] [-metric messages|bits|time] [-o out] BENCH_ci.json...
//	benchcheck scaling [-format md|csv] [-o out] SCALING_ci.json...
//
// compare exits non-zero when a pinned micro-benchmark regresses: an
// allocs/op increase beyond its (small) relative tolerance — which keeps
// zero-alloc baselines strict, since any allocation on a 0 baseline is an
// infinite relative increase — a bytes/op increase beyond bytesTol on a
// benchmark whose baseline allocates, or an ns/op increase beyond the ns
// tolerance. ns/op is only compared when both artifacts were measured on
// the same CPU (the `cpu:` line go test prints): cross-machine wall-clock
// deltas are noise, while allocation counts and sizes are
// near-deterministic (the small tolerances absorb GC timing jitter on
// macro benchmarks) and always enforced.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// bytesTol is the allowed fractional bytes/op regression. Over 5
// `make bench-micro` runs on one 2-vCPU host, bytes/op spread by at most
// 0.83% (BenchmarkRepairStorm1024); 5% leaves room for GC timing on
// another host. A benchmark whose baseline allocates nothing is held by
// its allocs/op instead: its bytes/op are a few one-off allocations
// averaged over the run, too few to reach one per op
// (BenchmarkBroadcastEcho measured 0 and 262 B/op at 0 allocs/op).
const bytesTol = 0.05

// Bench is one benchmark's pinned numbers.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Artifact is the JSON perf artifact: the measuring CPU and the pinned
// benchmark results.
type Artifact struct {
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		os.Exit(cmdParse(os.Args[2:]))
	case "compare":
		os.Exit(cmdCompare(os.Args[2:]))
	case "history":
		os.Exit(cmdHistory(os.Args[2:]))
	case "scaling":
		os.Exit(cmdScaling(os.Args[2:]))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchcheck parse [-o out.json] < bench-output")
	fmt.Fprintln(os.Stderr, "       benchcheck compare -baseline a.json -fresh b.json [-ns-tol 0.20] [-allocs-tol 0.02]")
	fmt.Fprintln(os.Stderr, "       benchcheck history [-format md|csv] [-metric messages|bits|time] [-o out] report.json...")
	fmt.Fprintln(os.Stderr, "       benchcheck scaling [-format md|csv] [-o out] SCALING_report.json...")
	os.Exit(2)
}

func cmdParse(args []string) int {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	art, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 1
	}
	blob, _ := json.MarshalIndent(art, "", "  ")
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return 0
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 1
	}
	return 0
}

// parseBench extracts benchmark result lines (and the cpu line) from go
// test -bench output. Lines it does not recognise are ignored, so make
// recipes can pipe their full transcript in.
func parseBench(r io.Reader) (Artifact, error) {
	art := Artifact{Benchmarks: make(map[string]Bench)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			art.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-P  N  x ns/op  [y B/op  z allocs/op]
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		b := Bench{}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				seen = true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if seen {
			art.Benchmarks[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return art, err
	}
	if len(art.Benchmarks) == 0 {
		return art, fmt.Errorf("no benchmark lines found on stdin")
	}
	return art, nil
}

func cmdCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "", "committed baseline artifact")
	freshPath := fs.String("fresh", "", "freshly measured artifact")
	nsTol := fs.Float64("ns-tol", 0.20, "allowed fractional ns/op regression (same-CPU only)")
	allocsTol := fs.Float64("allocs-tol", 0.02, "allowed fractional allocs/op regression (0-alloc baselines stay strict)")
	_ = fs.Parse(args)
	if *basePath == "" || *freshPath == "" {
		usage()
	}
	base, err := readArtifact(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 1
	}
	fresh, err := readArtifact(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 1
	}

	sameCPU := base.CPU != "" && base.CPU == fresh.CPU
	if !sameCPU {
		fmt.Fprintf(os.Stderr, "benchcheck: cpu differs (baseline %q vs fresh %q): ns/op not compared, allocs/op still enforced\n", base.CPU, fresh.CPU)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		b := base.Benchmarks[name]
		f, ok := fresh.Benchmarks[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %s: missing from fresh run\n", name)
			failed = true
			continue
		}
		bad := false
		if f.AllocsPerOp > b.AllocsPerOp*(1+*allocsTol) {
			fmt.Fprintf(os.Stderr, "FAIL %s: allocs/op %.0f -> %.0f (tolerance %.0f%%; 0-alloc baselines strict)\n",
				name, b.AllocsPerOp, f.AllocsPerOp, 100**allocsTol)
			bad = true
		}
		if b.AllocsPerOp > 0 && f.BytesPerOp > b.BytesPerOp*(1+bytesTol) {
			fmt.Fprintf(os.Stderr, "FAIL %s: bytes/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)\n",
				name, b.BytesPerOp, f.BytesPerOp, 100*(f.BytesPerOp/b.BytesPerOp-1), 100*bytesTol)
			bad = true
		}
		if sameCPU && b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*(1+*nsTol) {
			fmt.Fprintf(os.Stderr, "FAIL %s: ns/op %.1f -> %.1f (+%.1f%%, tolerance %.0f%%)\n",
				name, b.NsPerOp, f.NsPerOp, 100*(f.NsPerOp/b.NsPerOp-1), 100**nsTol)
			bad = true
		}
		if bad {
			failed = true
		} else {
			fmt.Printf("ok   %s: ns/op %.1f -> %.1f, B/op %.0f -> %.0f, allocs/op %.0f -> %.0f\n",
				name, b.NsPerOp, f.NsPerOp, b.BytesPerOp, f.BytesPerOp, b.AllocsPerOp, f.AllocsPerOp)
		}
	}
	// A fresh-only benchmark is not gated at all — surface it loudly so a
	// newly pinned benchmark is not silently ungated until someone
	// remembers to refresh the baseline.
	for name := range fresh.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(os.Stderr, "WARN %s: not in baseline — run `make bench-baseline` to start gating it\n", name)
		}
	}
	if failed {
		return 1
	}
	fmt.Println("benchcheck: no regressions")
	return 0
}

func readArtifact(path string) (Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var art Artifact
	if err := json.Unmarshal(blob, &art); err != nil {
		return Artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return art, nil
}
