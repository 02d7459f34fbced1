package main

// kkt serve / kkt trace / kkt ws: the live topology-maintenance daemon and
// its companions. serve ingests an update stream (seeded churn generator or
// a replayable trace file) through the admission queue against a live
// engine, optionally pushing incremental observability deltas as
// Server-Sent Events at /ws on the --obs-listen mux and checkpointing
// durable state every epoch. trace compiles a fault plan into the
// replayable trace format; ws is a minimal stream subscriber for scripts
// and smoke gates.
import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kkt/internal/faultplan"
	"kkt/internal/obsv"
	"kkt/internal/serve"
	"kkt/internal/spanning"
)

// graphFlags are the seeded-topology flags shared by serve and trace.
type graphFlags struct {
	family    string
	n         int
	m         int
	degree    int
	maxRaw    uint64
	graphSeed uint64
}

func addGraphFlags(fs *flag.FlagSet, gf *graphFlags) {
	fs.StringVar(&gf.family, "family", "gnm", "graph family: gnm | ring | grid | expander | complete | tree")
	fs.IntVar(&gf.n, "n", 1024, "node count")
	fs.IntVar(&gf.m, "m", 0, "gnm edge count (0 = 3n)")
	fs.IntVar(&gf.degree, "degree", 0, "expander degree (0 = 4)")
	fs.Uint64Var(&gf.maxRaw, "max-raw", 0, "max raw edge weight (0 = 1024)")
	fs.Uint64Var(&gf.graphSeed, "graph-seed", 1, "seed of the generated initial topology")
}

func (gf graphFlags) spec() serve.GraphSpec {
	return serve.GraphSpec{
		Family: gf.family, N: gf.n, M: gf.m, Degree: gf.degree,
		MaxRaw: gf.maxRaw, Seed: gf.graphSeed,
	}
}

// parseChurn parses the --churn plan string: a comma-separated k=v list
// whose keys mirror faultplan.Plan ("tree-deletes=3,deletes=2,inserts=2"),
// and validates the result (faultplan.Plan.Validate bounds every count).
func parseChurn(s string) (faultplan.Plan, error) {
	var p faultplan.Plan
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return p, fmt.Errorf("churn: %q is not key=value", kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return p, fmt.Errorf("churn: bad count in %q", kv)
		}
		switch strings.TrimSpace(k) {
		case "partitions":
			p.Partitions = n
		case "partition-size":
			p.PartitionSize = n
		case "bursts":
			p.Bursts = n
		case "burst-radius":
			p.BurstRadius = n
		case "bridge-deletes":
			p.BridgeDeletes = n
		case "tree-deletes":
			p.TreeEdgeDeletes = n
		case "hub-deletes":
			p.HubDeletes = n
		case "deletes":
			p.Deletes = n
		case "inserts":
			p.Inserts = n
		case "weight-changes":
			p.WeightChanges = n
		case "heals":
			p.Heals = n
		default:
			return p, fmt.Errorf("churn: unknown stage %q", k)
		}
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("churn: %w", err)
	}
	return p, nil
}

const defaultChurn = "tree-deletes=3,deletes=2,inserts=2,weight-changes=1"

func shortDigest(d string) string {
	if len(d) > 19 {
		return d[:19] // "sha256:" + 12 hex chars
	}
	return d
}

func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt serve", stderr)
	var gf graphFlags
	addGraphFlags(fs, &gf)
	algo := fs.String("algo", "mst", "maintained structure: mst (weighted) | st (unweighted)")
	seed := fs.Uint64("seed", 1, "daemon seed (drives churn compilation, op seeds, and per-epoch engine seeds)")
	events := fs.Int("events", 0, "total update events to process (0 = 256 with --churn, full file with --trace)")
	epochEvents := fs.Int("epoch-events", 64, "events ingested per epoch (checkpoint granularity)")
	wave := fs.Int("wave", 0, "max concurrent repairs per admission wave (0 = admit default)")
	shards := fs.Int("shards", 1, "engine shard lanes (execution knob; digests are shard-independent)")
	churn := fs.String("churn", defaultChurn, "per-epoch churn plan, recompiled against the live topology (ignored with --trace)")
	tracePath := fs.String("trace", "", "replay this trace file instead of generating churn")
	ckptPath := fs.String("checkpoint", "", "write durable state to this file every --checkpoint-every epochs")
	ckptEvery := fs.Int("checkpoint-every", 1, "checkpoint cadence in epochs")
	resume := fs.Bool("resume", false, "resume from the --checkpoint file instead of starting fresh")
	var of obsFlags
	addObsFlags(fs, &of)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := of.validate(stderr); err != nil {
		return err
	}
	if *resume && *ckptPath == "" {
		err := errors.New("--resume requires --checkpoint")
		fmt.Fprintln(stderr, "kkt:", err)
		return usageError{err}
	}

	cfg := serve.Config{
		Algo: *algo, Seed: *seed, Wave: *wave, Shards: *shards,
		EpochEvents: *epochEvents, Events: *events,
		CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery,
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		hdr, evs, err := serve.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Spec, cfg.Trace, cfg.TraceDigest = hdr.Spec, evs, hdr.Digest
		fmt.Fprintf(stderr, "serve: trace %s: %d events against %s n=%d (%s)\n",
			*tracePath, len(evs), hdr.Spec.Family, hdr.Spec.N, shortDigest(hdr.Digest))
	} else {
		plan, err := parseChurn(*churn)
		if err != nil {
			fmt.Fprintln(stderr, "kkt:", err)
			return usageError{err}
		}
		cfg.Spec = gf.spec()
		cfg.Churn = plan
		if cfg.Events == 0 {
			cfg.Events = 256
		}
	}

	// Observability: the recorder joins /timeline + /metrics, and the push
	// hub mounts at /ws on the same mux. With no --obs-listen the daemon
	// runs with observation fully disabled (nil observer, no publisher).
	var (
		stopObs func()
		pub     *serve.Publisher
	)
	if of.listen != "" {
		rec := obsv.NewRecorder("serve")
		hub := serve.NewHub()
		st, stop, err := of.start(stderr, func(mux *http.ServeMux) { mux.Handle("/ws", hub) })
		if err != nil {
			return err
		}
		st.addRecorder(rec)
		stopObs = stop
		pub = serve.NewPublisher(hub, rec)
		cfg.Observer = rec
	}
	cfg.OnWave = func(wi serve.WaveInfo) {
		if pub == nil {
			return
		}
		resolved := wi.Stats.Repairs + wi.Stats.Inline + wi.Stats.Skipped
		pub.Publish(serve.ServeStats{
			Epoch: wi.Epoch, EventsDone: resolved, EventsTotal: cfg.Events,
			QueueDepth: wi.Pending, IngestLag: cfg.Events - resolved,
			Repairs: wi.Stats.Repairs, Waves: wi.Stats.Waves, Retries: wi.Stats.Retries,
		})
	}
	cfg.OnEpoch = func(ei serve.EpochInfo) {
		mark := ""
		if ei.Checkpointed {
			mark = " ckpt"
		}
		fmt.Fprintf(stderr, "serve: epoch %d: events %d/%d digest %s%s\n",
			ei.Epoch, ei.EventsDone, ei.EventsTotal, shortDigest(ei.Digest), mark)
		if pub != nil {
			pub.Publish(serve.ServeStats{
				Epoch: ei.Epoch, EventsDone: ei.EventsDone, EventsTotal: ei.EventsTotal,
				IngestLag: ei.EventsTotal - ei.EventsDone, Digest: ei.Digest,
			})
		}
	}

	var (
		d   *serve.Daemon
		err error
	)
	if *resume {
		cp, cerr := serve.ReadCheckpoint(*ckptPath)
		if cerr != nil {
			return cerr
		}
		d, err = serve.Resume(cfg, cp)
		if err == nil {
			fmt.Fprintf(stderr, "serve: resumed at epoch %d (%d/%d events)\n", cp.Epoch, cp.EventsDone, cfg.Events)
		}
	} else {
		d, err = serve.New(cfg)
	}
	if err != nil {
		if stopObs != nil {
			stopObs()
		}
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	sum, err := d.Run(ctx)
	// A cancelled context surfaces directly at epoch boundaries and as a
	// watchdog trip mid-epoch; either way, signal arrival means a graceful
	// interruption, not a daemon failure.
	interrupted := err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil)
	if err != nil && !interrupted {
		if stopObs != nil {
			stopObs()
		}
		return err
	}
	if interrupted {
		fmt.Fprintf(stdout, "serve: interrupted epochs=%d events=%d repairs=%d digest=%s\n",
			sum.Epochs, sum.EventsDone, sum.Stats.Repairs, sum.Digest)
		if *ckptPath != "" {
			fmt.Fprintf(stderr, "serve: resume with --checkpoint %s --resume\n", *ckptPath)
		}
	} else {
		fmt.Fprintf(stdout, "serve: done epochs=%d events=%d repairs=%d digest=%s\n",
			sum.Epochs, sum.EventsDone, sum.Stats.Repairs, sum.Digest)
	}
	if stopObs != nil {
		if of.hold && !interrupted {
			holdObs(stderr)
		}
		stopObs()
	}
	return nil
}

func cmdTrace(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt trace", stderr)
	var gf graphFlags
	addGraphFlags(fs, &gf)
	algo := fs.String("algo", "mst", "forest the plan's tree-targeting stages aim at: mst | st")
	seed := fs.Uint64("seed", 1, "compile seed (same spec + plan + seed = byte-identical trace)")
	churn := fs.String("churn", defaultChurn, "fault plan to compile")
	events := fs.Int("events", 0, "truncate the trace to this many events (0 = all)")
	out := fs.String("out", "", "output file (default stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	spec := gf.spec().WithDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	plan, err := parseChurn(*churn)
	if err != nil {
		fmt.Fprintln(stderr, "kkt:", err)
		return usageError{err}
	}
	if plan.Empty() {
		err := errors.New("churn: empty plan compiles to zero events")
		fmt.Fprintln(stderr, "kkt:", err)
		return usageError{err}
	}
	g := spec.Build(0)
	var forest []int
	switch *algo {
	case "mst":
		forest = spanning.Kruskal(g)
	case "st":
		forest = spanning.BFSForest(g)
	default:
		return fmt.Errorf("unknown algo %q (want mst or st)", *algo)
	}
	evs := faultplan.Compile(plan, g, forest, *seed)
	if len(evs) == 0 {
		return errors.New("plan compiled to zero events against this graph")
	}
	if *events > 0 && *events < len(evs) {
		evs = evs[:*events]
	}
	hdr := serve.TraceHeader{Spec: spec, Digest: serve.GraphDigest(g)}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := serve.WriteTrace(w, hdr, evs); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "kkt: trace: %d events, initial graph %s\n", len(evs), shortDigest(hdr.Digest))
	return nil
}

func cmdWS(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt ws", stderr)
	maxMsgs := fs.Int("max", 0, "disconnect after this many messages (0 = until the stream closes)")
	timeout := fs.Duration("timeout", 30*time.Second, "dial + per-message read deadline (0 = none)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		err := errors.New("ws takes the daemon's URL (http://host:port/ws, or just host:port)")
		fmt.Fprintln(stderr, "kkt:", err)
		return usageError{err}
	}
	raw := fs.Arg(0)
	// accept flags after the URL too
	if err := parseFlags(fs, fs.Args()[1:]); err != nil {
		return err
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return err
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/ws"
	}
	s, err := serve.Subscribe(u.String(), *timeout)
	if err != nil {
		return err
	}
	defer s.Close()
	for i := 0; *maxMsgs == 0 || i < *maxMsgs; i++ {
		msg, err := s.Next(*timeout)
		if errors.Is(err, serve.ErrClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", msg)
	}
	return nil
}
