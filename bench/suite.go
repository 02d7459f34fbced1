package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suiteConfig configures the round-robin suite.
type suiteConfig struct {
	reps    int
	seed    uint64
	seconds int
	traced  bool
	out     string
}

// suiteReport is the suite's JSON report.
type suiteReport struct {
	Commit     string           `json:"commit"`
	Go         string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	CPU        string           `json:"cpu"`
	Seed       uint64           `json:"seed"`
	Reps       int              `json:"reps"`
	Seconds    int              `json:"seconds"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// The simulated cost, identical in every run of the seed.
	Messages uint64             `json:"messages"`
	Bits     uint64             `json:"bits"`
	SimTime  int64              `json:"sim_time"`
	Digest   string             `json:"digest,omitempty"`
	Metrics  map[string]summary `json:"metrics"`
	// Layers and TraceOverheadPct come from the traced run (--traced); the
	// overhead compares its pass time with the untraced passes' median,
	// both at nominal host speed.
	Layers           map[string]metricValue `json:"layers,omitempty"`
	TraceOverheadPct float64                `json:"trace_overhead_pct,omitempty"`
}

// summary describes one end-to-end metric over the suite's runs. Odd and
// Even are the medians of the two interleaved halves (runs 1, 3, 5, … and
// 2, 4, 6, …); their distance is the run-to-run drift within the suite.
type summary struct {
	Unit    string   `json:"unit"`
	Median  float64  `json:"median"`
	Q1      float64  `json:"q1"`
	Q3      float64  `json:"q3"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	N       int      `json:"n"`
	Odd     float64  `json:"odd_median"`
	Even    float64  `json:"even_median"`
	Samples []sample `json:"samples"`
}

type sample struct {
	Start time.Time `json:"start"`
	Value float64   `json:"value"`
}

// childRun is what one child process reported.
type childRun struct {
	start  time.Time
	detail detail
	result result
}

// runSuite runs every workload cfg.reps times, round-robin (rep 1 of every
// workload, then rep 2, …) so that slow drift of the host's speed spreads
// over all workloads alike; each run is a fresh child process, one at a
// time.
func runSuite(cfg suiteConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	runs := map[string][]childRun{}
	for rep := 1; rep <= cfg.reps; rep++ {
		for _, name := range workloadNames {
			fmt.Fprintf(stderr, "bench: rep %d/%d %s\n", rep, cfg.reps, name)
			cr, err := runChild(self, name, cfg, 0, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			runs[name] = append(runs[name], cr)
		}
	}
	rep := suiteReport{
		Commit: commit(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: cpuModel(),
		Seed: cfg.seed, Reps: cfg.reps, Seconds: cfg.seconds,
	}
	status := 0
	for _, name := range workloadNames {
		wr, err := summarize(name, runs[name])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			status = 1
		}
		if wr.Failed > 0 {
			status = 1
		}
		if cfg.traced {
			fmt.Fprintf(stderr, "bench: traced %s\n", name)
			tr, err := runChild(self, name, cfg, 1, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if err := traceParity(runs[name][0].detail, tr); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				status = 1
			}
			wr.Layers = tr.result.Metrics
			// Pass times at nominal host speed, so that the traced run, made
			// after the others, does not read host drift as overhead.
			var walls []float64
			for _, cr := range runs[name] {
				walls = append(walls, nominalWalls(cr.detail)...)
			}
			traced := quantile(nominalWalls(tr.detail), 0.5)
			wr.TraceOverheadPct = 100 * (traced/quantile(walls, 0.5) - 1)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	printTable(stdout, rep)
	if cfg.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

func nominalWalls(d detail) []float64 {
	var out []float64
	for _, p := range d.Passes {
		out = append(out, p.WallS*d.HostFactor)
	}
	return out
}

// runChild runs one workload in a child process of this binary and parses
// its last two lines. A child that failed validation exits 1 but still
// reports; its result says so.
func runChild(self, name string, cfg suiteConfig, trace int, stderr io.Writer) (childRun, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = stderr
	cr := childRun{start: time.Now()}
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return cr, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &cr.detail); err != nil {
		return cr, fmt.Errorf("%s: detail line: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.result); err != nil {
		return cr, fmt.Errorf("%s: result line: %w", name, err)
	}
	return cr, nil
}

// summarize aggregates a workload's runs; it fails if the runs, which all
// execute the same seed, did not simulate exactly the same thing.
func summarize(name string, runs []childRun) (workloadReport, error) {
	first := runs[0].detail
	wr := workloadReport{Name: name, Messages: first.Messages, Bits: first.Bits, SimTime: first.SimTime,
		Digest: first.Digest, Metrics: map[string]summary{}}
	for i, cr := range runs {
		wr.Attempted += cr.result.Attempted
		wr.Failed += cr.result.Failed
		d := cr.detail
		if d.Messages != first.Messages || d.Bits != first.Bits || d.SimTime != first.SimTime ||
			d.Digest != first.Digest || d.Repairs != first.Repairs {
			return wr, fmt.Errorf("%s: run %d simulated %d/%d/%d %s, run 1 %d/%d/%d %s", name, i+1,
				d.Messages, d.Bits, d.SimTime, d.Digest, first.Messages, first.Bits, first.SimTime, first.Digest)
		}
	}
	for _, m := range endToEnd {
		s := summary{Unit: m.Unit, N: len(runs)}
		var all, odd, even []float64
		for i, cr := range runs {
			v := cr.result.Metrics[m.Name].Value
			s.Samples = append(s.Samples, sample{cr.start, v})
			all = append(all, v)
			if i%2 == 0 {
				odd = append(odd, v)
			} else {
				even = append(even, v)
			}
		}
		s.Median, s.Q1, s.Q3 = quantile(all, 0.5), quantile(all, 0.25), quantile(all, 0.75)
		s.Min, s.Max = quantile(all, 0), quantile(all, 1)
		s.Odd, s.Even = quantile(odd, 0.5), quantile(even, 0.5)
		wr.Metrics[m.Name] = s
	}
	return wr, nil
}

// traceParity checks that the traced run simulated exactly what the
// untraced runs did: the same messages, bits and scheduler time for the
// builds (whose untraced runs know them), the same final digest for serve.
func traceParity(untraced detail, traced childRun) error {
	l := traced.result.Metrics
	if untraced.Messages != 0 {
		got := [3]float64{l["congest.messages"].Value, l["congest.bits"].Value, l["congest.sim_time"].Value}
		want := [3]float64{float64(untraced.Messages), float64(untraced.Bits), float64(untraced.SimTime)}
		if got != want {
			return fmt.Errorf("traced messages/bits/sim_time %v, untraced %v", got, want)
		}
	}
	if untraced.Digest != traced.detail.Digest || untraced.Repairs != traced.detail.Repairs {
		return fmt.Errorf("traced digest %s (%d repairs), untraced %s (%d repairs)",
			traced.detail.Digest, traced.detail.Repairs, untraced.Digest, untraced.Repairs)
	}
	if !traced.result.Correct {
		return fmt.Errorf("traced run failed validation")
	}
	return nil
}

func printTable(w io.Writer, rep suiteReport) {
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS=%d nproc=%d  %s\nseed %d, %d reps round-robin, %d s per run\n\n",
		rep.Commit, rep.Go, rep.GOMAXPROCS, rep.NumCPU, rep.CPU, rep.Seed, rep.Reps, rep.Seconds)
	fmt.Fprintf(w, "%-20s %-14s %-5s %12s %12s %12s %3s %12s %12s %7s %6s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "n", "odd-median", "even-median", "drift", "bound")
	for _, wr := range rep.Workloads {
		for _, m := range endToEnd {
			s := wr.Metrics[m.Name]
			drift := "-"
			if s.N > 1 {
				drift = fmt.Sprintf("%+.1f%%", 100*(s.Even-s.Odd)/s.Odd)
			}
			fmt.Fprintf(w, "%-20s %-14s %-5s %12.6g %12.6g %12.6g %3d %12.6g %12.6g %7s %5.0f%%\n",
				wr.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N, s.Odd, s.Even, drift, 100*m.Bound)
		}
		fmt.Fprintf(w, "%-20s failed %d of %d, messages %d, bits %d, sim time %d",
			wr.Name, wr.Failed, wr.Attempted, wr.Messages, wr.Bits, wr.SimTime)
		if wr.Digest != "" {
			fmt.Fprintf(w, ", digest %s", wr.Digest)
		}
		if wr.Layers != nil {
			fmt.Fprintf(w, ", trace overhead %+.1f%%", wr.TraceOverheadPct)
		}
		fmt.Fprintln(w)
	}
}

// commit names the checked-out revision, when the suite runs in a git
// work tree.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
