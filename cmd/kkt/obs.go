package main

// The --obs-listen endpoint: live observability for kkt run / kkt bench.
// One obsv.Recorder is registered per (scenario, trial) as trials start;
// the HTTP server snapshots them on demand, so serving never blocks or
// perturbs the engine (recorders are passive — see internal/obsv). This is
// the substrate the future `kkt serve` UI will attach to.
//
// Endpoints:
//
//	/timeline     JSON snapshots of every trial's live timeline
//	/metrics      Prometheus text format
//	/debug/pprof  net/http/pprof
import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"kkt/internal/congest"
	"kkt/internal/harness"
	"kkt/internal/obsv"
)

// obsFlags are the observability flags shared by run, bench and serve.
type obsFlags struct {
	listen   string
	hold     bool
	addrFile string
}

func addObsFlags(fs *flag.FlagSet, of *obsFlags) {
	fs.StringVar(&of.listen, "obs-listen", "", "serve live observability on this address (JSON /timeline, Prometheus /metrics, pprof /debug/pprof/)")
	fs.BoolVar(&of.hold, "obs-hold", false, "with --obs-listen: keep serving after the run completes, until interrupted")
	fs.StringVar(&of.addrFile, "obs-addr-file", "", "with --obs-listen: write the actually-bound address to this file (lets scripts use ':0' ephemeral ports)")
}

// validate rejects flag combinations that would silently do nothing:
// --obs-hold without --obs-listen serves no endpoints to hold open, so a
// misconfigured CI scrape must fail loudly instead of scraping nothing.
func (of *obsFlags) validate(stderr io.Writer) error {
	if of.hold && of.listen == "" {
		err := errors.New("--obs-hold requires --obs-listen: there is no endpoint to keep serving")
		fmt.Fprintln(stderr, "kkt:", err)
		return usageError{err}
	}
	if of.addrFile != "" && of.listen == "" {
		err := errors.New("--obs-addr-file requires --obs-listen: there is no bound address to write")
		fmt.Fprintln(stderr, "kkt:", err)
		return usageError{err}
	}
	return nil
}

// start binds the observability server and, if requested, publishes the
// actually-bound address to --obs-addr-file — the contract that lets
// smoke gates use ':0' instead of hard-coding ports. extra (optional)
// mounts additional handlers on the mux before serving starts.
func (of *obsFlags) start(stderr io.Writer, extra func(*http.ServeMux)) (*obsState, func(), error) {
	st, bound, stop, err := startObsServer(of.listen, stderr, extra)
	if err != nil {
		return nil, nil, err
	}
	if of.addrFile != "" {
		if werr := os.WriteFile(of.addrFile, []byte(bound+"\n"), 0o644); werr != nil {
			stop()
			return nil, nil, fmt.Errorf("obs-addr-file: %w", werr)
		}
	}
	return st, stop, nil
}

// obsState is the live registry behind the endpoints.
type obsState struct {
	mu   sync.Mutex
	recs []*obsv.Recorder
}

// observe is the harness.RunConfig.Observe hook: one labelled recorder per
// trial.
func (st *obsState) observe(spec harness.Spec, trial int) congest.Observer {
	rec := obsv.NewRecorder(fmt.Sprintf("%s#%d", spec.Name, trial))
	st.mu.Lock()
	st.recs = append(st.recs, rec)
	st.mu.Unlock()
	return rec
}

// snapshots returns a consistent snapshot per registered trial, sorted by
// label so output is stable regardless of worker scheduling.
func (st *obsState) snapshots() []obsv.Snapshot {
	st.mu.Lock()
	recs := append([]*obsv.Recorder(nil), st.recs...)
	st.mu.Unlock()
	snaps := make([]obsv.Snapshot, len(recs))
	for i, r := range recs {
		snaps[i] = r.Snapshot()
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Label < snaps[j].Label })
	return snaps
}

// obsTimeline is the /timeline response shape.
type obsTimeline struct {
	Trials []obsv.Snapshot `json:"trials"`
}

func (st *obsState) handleTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(obsTimeline{Trials: st.snapshots()})
}

// procStart anchors kkt_uptime_seconds.
var procStart = time.Now()

// buildVersion reports the module version baked into the binary, or
// "devel" when built from a working tree.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// promWriter emits Prometheus text format with the exposition-format
// guarantee that each metric family's HELP/TYPE header appears exactly
// once, no matter how many call sites contribute samples to it.
type promWriter struct {
	w    io.Writer
	seen map[string]bool
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, seen: make(map[string]bool)}
}

func (p *promWriter) family(name, help, typ string) {
	if p.seen[name] {
		return
	}
	p.seen[name] = true
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// handleMetrics renders the snapshots in Prometheus text format. Written by
// hand: the repo takes no dependencies beyond the standard library.
func (st *obsState) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snaps := st.snapshots()
	pw := newPromWriter(w)
	writeHelp := pw.family
	writeHelp("kkt_build_info", "Build metadata; the value is always 1.", "gauge")
	fmt.Fprintf(w, "kkt_build_info{version=%q,goversion=%q} 1\n", buildVersion(), runtime.Version())
	writeHelp("kkt_uptime_seconds", "Seconds since the kkt process started.", "gauge")
	fmt.Fprintf(w, "kkt_uptime_seconds %.3f\n", time.Since(procStart).Seconds())
	writeHelp("kkt_trial_messages_total", "Messages sent by the trial so far.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_messages_total{trial=%q} %d\n", s.Label, s.Messages)
	}
	writeHelp("kkt_trial_bits_total", "Bits sent by the trial so far.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_bits_total{trial=%q} %d\n", s.Label, s.Bits)
	}
	writeHelp("kkt_trial_rounds", "Scheduler clock of the trial (rounds or virtual time).", "gauge")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_rounds{trial=%q} %d\n", s.Label, s.Now)
	}
	writeHelp("kkt_trial_phases", "Protocol phases started by the trial.", "gauge")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_phases{trial=%q} %d\n", s.Label, len(s.Phases))
	}
	writeHelp("kkt_trial_sessions_opened_total", "Engine sessions opened.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_sessions_opened_total{trial=%q} %d\n", s.Label, s.Sessions.Opened)
	}
	writeHelp("kkt_trial_sessions_completed_total", "Engine sessions completed.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_sessions_completed_total{trial=%q} %d\n", s.Label, s.Sessions.Completed)
	}
	writeHelp("kkt_trial_repairs_finished_total", "Repair operations finished.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "kkt_trial_repairs_finished_total{trial=%q} %d\n", s.Label, s.Repairs.Finished)
	}
	writeHelp("kkt_trial_repair_rounds", "Repair round-latency percentiles over the recent-repair ring.", "gauge")
	for _, s := range snaps {
		if s.Repairs.Finished == 0 {
			continue
		}
		fmt.Fprintf(w, "kkt_trial_repair_rounds{trial=%q,quantile=\"0.5\"} %d\n", s.Label, s.Repairs.RoundsP50)
		fmt.Fprintf(w, "kkt_trial_repair_rounds{trial=%q,quantile=\"0.9\"} %d\n", s.Label, s.Repairs.RoundsP90)
		fmt.Fprintf(w, "kkt_trial_repair_rounds{trial=%q,quantile=\"0.99\"} %d\n", s.Label, s.Repairs.RoundsP99)
	}
	writeHelp("kkt_kind_messages_total", "Messages sent, by message kind.", "counter")
	for _, s := range snaps {
		for _, kt := range s.ByKind {
			fmt.Fprintf(w, "kkt_kind_messages_total{trial=%q,kind=%q} %d\n", s.Label, kt.Kind, kt.Messages)
		}
	}
}

// startObsServer binds addr and serves the endpoints until stop is called.
// Binding happens synchronously so a bad address fails the command instead
// of racing the run, and the actually-bound address (resolving ':0') is
// returned for --obs-addr-file and printed on stderr.
func startObsServer(addr string, stderr io.Writer, extra func(*http.ServeMux)) (*obsState, string, func(), error) {
	st := &obsState{}
	mux := http.NewServeMux()
	mux.HandleFunc("/timeline", st.handleTimeline)
	mux.HandleFunc("/metrics", st.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if extra != nil {
		extra(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("obs-listen: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	bound := ln.Addr().String()
	fmt.Fprintf(stderr, "kkt: observability on http://%s (/timeline, /metrics, /debug/pprof/)\n", bound)
	return st, bound, func() { _ = srv.Close() }, nil
}

// addRecorder registers an externally-owned recorder (the serve daemon's)
// so /timeline and /metrics cover it alongside harness trials.
func (st *obsState) addRecorder(rec *obsv.Recorder) {
	st.mu.Lock()
	st.recs = append(st.recs, rec)
	st.mu.Unlock()
}

// holdObs blocks until SIGINT/SIGTERM — the --obs-hold behavior that lets
// scrapers inspect a finished run (CI curls the endpoints of a
// milliseconds-long scenario this way).
func holdObs(stderr io.Writer) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Fprintln(stderr, "kkt: --obs-hold: serving until interrupted")
	<-sig
}

// printFootprint surfaces the per-trial driver/heap footprint fields that
// are deliberately excluded from reports (execution knobs, not protocol
// observables) — the kkt run --footprint output.
func printFootprint(stderr io.Writer, results []harness.Result) {
	for _, res := range results {
		for _, t := range res.Trials {
			fmt.Fprintf(stderr, "footprint: %s trial %d: peak_driver_tasks=%d peak_live_drivers=%d heap_sys_mb=%d async_conflicts=%d\n",
				res.Spec.Name, t.Trial, t.PeakDriverTasks, t.PeakLiveDrivers, t.HeapSysMB, t.AsyncConflicts)
		}
	}
}
