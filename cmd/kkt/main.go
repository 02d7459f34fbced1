// Command kkt is the experiment CLI over the CONGEST simulator: list the
// registered scenarios, run one of them, or bench the whole suite into a
// BENCH_*.json report. Thin shell over internal/harness, in the style of
// tooling-first Go repos: all engine logic lives in internal packages.
//
// Usage:
//
//	kkt list [--json]
//	kkt run <scenario> [--trials N] [--seed S] [--workers W] [--shards S] [--json]
//	        [--timeout D] [--obs-listen ADDR] [--obs-hold] [--footprint]
//	kkt bench [--filter SUBSTR] [--exclude SUBSTRS] [--trials N] [--seed S]
//	          [--workers W] [--shards S] [--json] [--out FILE] [--quiet]
//	          [--timeout D] [--obs-listen ADDR] [--obs-hold]
//	kkt scaling [--families LIST] [--algos LIST] [--ladder LO:HI:RUNGS|N,N,...]
//	            [--seeds N] [--seed S] [--density const|sqrt|quad] [--workers W]
//	            [--shards S] [--timeout D] [--json] [--out FILE] [--quiet]
//	kkt serve [graph flags | --trace FILE] [--events N] [--epoch-events N]
//	          [--churn PLAN] [--checkpoint FILE] [--resume] [--obs-listen ADDR]
//	kkt trace [graph flags] --churn PLAN [--events N] [--out FILE]
//	kkt ws URL [--max N] [--timeout D]
//
// --obs-listen serves live observability while trials run: JSON snapshots at
// /timeline, Prometheus text at /metrics, and net/http/pprof at
// /debug/pprof/. Under `kkt serve` it additionally mounts a Server-Sent
// Events push stream at /ws. Observation is passive — reports stay
// byte-identical with it on or off.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"kkt/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it dispatches a full CLI invocation
// against the given streams and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(args[1:], stdout, stderr)
	case "run":
		err = cmdRun(args[1:], stdout, stderr)
	case "bench":
		err = cmdBench(args[1:], stdout, stderr)
	case "scaling":
		err = cmdScaling(args[1:], stdout, stderr)
	case "serve":
		err = cmdServe(args[1:], stdout, stderr)
	case "trace":
		err = cmdTrace(args[1:], stdout, stderr)
	case "ws":
		err = cmdWS(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
	default:
		fmt.Fprintf(stderr, "kkt: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		// -h/--help: the flag set already printed its usage; that is a
		// successful invocation, not an error.
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		// Bad flags are usage errors (exit 2, like unknown commands); the
		// flag set already reported them to stderr.
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "kkt:", err)
		return 1
	}
	return 0
}

// usageError marks a flag-parse failure so run can map it to exit code 2,
// matching the pre-dispatch usage errors.
type usageError struct{ error }

// parseFlags wraps fs.Parse, tagging parse failures (other than -h) as
// usage errors.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `kkt — experiment harness for the KKT'15 CONGEST algorithms

Commands:
  list     show the registered scenarios
  run      run one scenario and print its metrics
  bench    run the suite and write a BENCH_*.json report
  scaling  sweep size ladders and fit cost-vs-m exponents (the o(m) gate)
  serve    run the topology-maintenance daemon over an update stream
  trace    compile a fault plan into a replayable trace file
  ws       subscribe to a serve daemon's push stream (Server-Sent Events)

Run 'kkt <command> -h' for command flags.
`)
}

// runFlags are the flags shared by run and bench.
type runFlags struct {
	trials  int
	seed    uint64
	workers int
	shards  int
	timeout time.Duration
	jsonOut bool
}

func addRunFlags(fs *flag.FlagSet, rf *runFlags) {
	fs.IntVar(&rf.trials, "trials", 4, "seeded trials per scenario")
	fs.Uint64Var(&rf.seed, "seed", 1, "base seed (identical seeds give byte-identical metrics)")
	fs.IntVar(&rf.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&rf.shards, "shards", 1, "shards per trial: multi-core single trials, metrics byte-identical at any value")
	fs.DurationVar(&rf.timeout, "timeout", 0, "wall-clock budget per trial; an over-budget trial is cancelled and reported as failed (0 = none)")
	fs.BoolVar(&rf.jsonOut, "json", false, "emit JSON instead of a table")
}

func (rf runFlags) runConfig() harness.RunConfig {
	return harness.RunConfig{
		Trials: rf.trials, Seed: rf.seed,
		Workers: rf.workers, Shards: rf.shards,
		Timeout: rf.timeout,
	}
}

// newFlagSet builds a flag set that reports errors to stderr instead of
// exiting the process, so command functions stay testable.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func cmdList(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt list", stderr)
	jsonOut := fs.Bool("json", false, "emit JSON instead of a table")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	specs := harness.Builtin().Specs()
	if *jsonOut {
		return writeJSON(stdout, specs)
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tFAMILY\tN\tSCHED\tALGO\tFAULTS\tDESCRIPTION")
	for _, s := range specs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			s.Name, s.Family, s.N, s.Sched, s.Algo, faultsLabel(s), s.Description)
	}
	return tw.Flush()
}

// faultsLabel renders the FAULTS column: 0 without a fault plan, else a
// ~prefixed estimate (the exact event count depends on the seed and the
// graph).
func faultsLabel(s harness.Spec) string {
	if s.Plan == nil {
		return "0"
	}
	return "~" + strconv.Itoa(s.Plan.Approx())
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt run", stderr)
	var rf runFlags
	var of obsFlags
	addRunFlags(fs, &rf)
	addObsFlags(fs, &of)
	footprint := fs.Bool("footprint", false, "print per-trial driver/heap footprint to stderr after the run")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("run takes a scenario name (see 'kkt list')")
	}
	name := fs.Arg(0)
	// accept flags after the scenario name too
	if err := parseFlags(fs, fs.Args()[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("run takes exactly one scenario name (see 'kkt list')")
	}
	if err := of.validate(stderr); err != nil {
		return err
	}
	reg := harness.Builtin()
	if _, ok := reg.Get(name); !ok {
		return unknownScenario(stderr, reg, name)
	}
	cfg := rf.runConfig()
	var stopObs func()
	if of.listen != "" {
		st, stop, err := of.start(stderr, nil)
		if err != nil {
			return err
		}
		stopObs = stop
		cfg.Observe = st.observe
	}
	results, err := harness.RunNamed(reg, []string{name}, cfg)
	if err != nil {
		if stopObs != nil {
			stopObs()
		}
		return err
	}
	if rf.jsonOut {
		if err := writeJSON(stdout, results[0]); err != nil {
			return err
		}
	} else if err := harness.WriteTable(stdout, results); err != nil {
		return err
	}
	if *footprint {
		printFootprint(stderr, results)
	}
	if stopObs != nil {
		if of.hold {
			holdObs(stderr)
		}
		stopObs()
	}
	warnShardFallback(stderr, rf.shards, results)
	return reportTrialErrors(stderr, results)
}

func cmdBench(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt bench", stderr)
	var rf runFlags
	var of obsFlags
	addRunFlags(fs, &rf)
	addObsFlags(fs, &of)
	filter := fs.String("filter", "", "only scenarios whose name contains this substring")
	exclude := fs.String("exclude", "", "skip scenarios whose name contains any of these comma-separated substrings")
	out := fs.String("out", "BENCH_suite.json", "report file path")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := of.validate(stderr); err != nil {
		return err
	}
	reg := harness.Builtin()
	specs := reg.Match(*filter)
	if *exclude != "" {
		kept := specs[:0]
		for _, s := range specs {
			if !nameExcluded(s.Name, *exclude) {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "kkt: no scenario matches filter %q / exclude %q\n", *filter, *exclude)
		printSuggestions(stderr, reg.Suggest(*filter))
		return usageError{fmt.Errorf("no scenario matches")}
	}
	cfg := rf.runConfig().Normalized()
	var stopObs func()
	if of.listen != "" {
		st, stop, err := of.start(stderr, nil)
		if err != nil {
			return err
		}
		stopObs = stop
		cfg.Observe = st.observe
	}
	total := len(specs) * cfg.Trials
	var done atomic.Int64
	if !*quiet {
		cfg.OnTrialDone = func(spec harness.Spec, trial int) {
			fmt.Fprintf(stderr, "\r[%d/%d] %-32s", done.Add(1), total, spec.Name)
		}
	}
	results := harness.RunAll(specs, cfg)
	if !*quiet {
		fmt.Fprintln(stderr)
	}
	if stopObs != nil {
		if of.hold {
			holdObs(stderr)
		}
		stopObs()
	}

	suite := "builtin"
	if *filter != "" {
		suite = fmt.Sprintf("builtin[filter=%s]", *filter)
	}
	if *exclude != "" {
		suite += fmt.Sprintf("[exclude=%s]", *exclude)
	}
	report := harness.NewReport(suite, cfg, results)
	blob, err := report.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	if rf.jsonOut {
		if _, err := stdout.Write(blob); err != nil {
			return err
		}
	} else {
		if err := harness.WriteTable(stdout, results); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nreport written to %s\n", *out)
	}
	warnShardFallback(stderr, rf.shards, results)
	return reportTrialErrors(stderr, results)
}

// unknownScenario reports a scenario name the registry does not know, with
// "did you mean" candidates, and maps it to exit code 2: a mistyped name is
// a usage error, not a runtime failure, so CI scripts can tell the two
// apart.
func unknownScenario(stderr io.Writer, reg *harness.Registry, name string) error {
	fmt.Fprintf(stderr, "kkt: unknown scenario %q (see 'kkt list')\n", name)
	printSuggestions(stderr, reg.Suggest(name))
	return usageError{fmt.Errorf("unknown scenario")}
}

func printSuggestions(stderr io.Writer, names []string) {
	if len(names) == 0 {
		return
	}
	fmt.Fprintln(stderr, "did you mean:")
	for _, n := range names {
		fmt.Fprintf(stderr, "  %s\n", n)
	}
}

// warnShardFallback surfaces on stderr every scenario whose trials ran on
// a different shard count than --shards requested (the engine clamps the
// partition to the node count). Reports stay byte-identical either way —
// the warning is about wall-clock expectations: a user asking for N-way
// parallelism should never silently get less.
func warnShardFallback(stderr io.Writer, requested int, results []harness.Result) {
	if requested <= 1 {
		return
	}
	for _, res := range results {
		for _, t := range res.Trials {
			if t.Error == "" && t.Shards != requested {
				fmt.Fprintf(stderr, "kkt: warning: %s ran on %d shard(s), not the requested %d (shard count is clamped to the node count)\n",
					res.Spec.Name, t.Shards, requested)
				break
			}
		}
	}
}

// nameExcluded reports whether name contains any of the comma-separated
// substrings in excludes (empty fragments are ignored).
func nameExcluded(name, excludes string) bool {
	for _, frag := range strings.Split(excludes, ",") {
		if frag != "" && strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// reportTrialErrors surfaces failed trials on stderr and returns an error
// if any trial errored (so CI catches regressions).
func reportTrialErrors(stderr io.Writer, results []harness.Result) error {
	failed := 0
	for _, res := range results {
		for _, t := range res.Trials {
			if t.Error != "" {
				failed++
				fmt.Fprintf(stderr, "kkt: %s trial %d (seed %d): %s\n", res.Spec.Name, t.Trial, t.Seed, t.Error)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d trial(s) failed", failed)
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
