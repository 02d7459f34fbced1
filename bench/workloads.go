package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/ghs"
	"kkt/internal/graph"
	"kkt/internal/harness"
	"kkt/internal/mst"
	"kkt/internal/rng"
	"kkt/internal/serve"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"build-mst-100k", "build-mst-async-50k", "build-dense-ladder", "serve-churn-20k"}

// graphSeed seeds every workload's graphs: the graph is part of a
// workload's definition, and --seed drives everything else, namely the
// engine's and the protocols' coins, the async delays and the churn. On
// gnm(100k, 300k) the graph alone fixes the number of Borůvka phases, 7 to
// 9 over eight graph seeds, and with it the build's cost, 40–58M messages;
// on one graph every protocol seed takes the same phases and messages
// move by a few percent. So a run's numbers describe the code, not the
// luck of the graph.
const graphSeed = 1

// workload is one named set of inputs: either build trials, run in order
// on every pass, or one serve daemon session.
type workload struct {
	trials []buildTrial
	serve  *serveSession
}

// buildTrial is one seeded build, the same pipeline harness.RunTrialShards
// executes at one shard: gnm graph, network, protocol, reference check.
// The harness derives graph and coins from one seed; with graph == seed a
// trial is exactly the harness's.
type buildTrial struct {
	algo  string // harness.AlgoMSTBuildAdaptive or harness.AlgoGHS
	n, m  int
	async bool
	graph uint64 // seeds the gnm graph
	seed  uint64 // seeds the engine and the protocol
}

// serveSession is one daemon run over a generated graph under churn; pin,
// when set, is the final state the run must reach.
type serveSession struct {
	cfg serve.Config
	pin *servePin
}

type servePin struct {
	digest  string
	repairs int
}

const (
	maxRaw   = 1024 // harness default weight bound
	maxDelay = 4    // harness default async delay bound
)

// fullWorkload returns a workload at its benchmark size, its graphs from
// graphSeed and everything else from seed.
func fullWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "build-mst-100k":
		return workload{trials: []buildTrial{{algo: harness.AlgoMSTBuildAdaptive, n: 100_000, m: 300_000, graph: graphSeed, seed: seed}}}, nil
	case "build-mst-async-50k":
		// Build MST, not Build ST: Build ST's cost is heavy-tailed in the
		// protocol's coins, sync or async alike (cycle wipes re-split the
		// forest). On one gnm(20k, 60k) graph, eight seeds took 12 to 64
		// phases and 2.5M to 15.9M messages, a spread no bound of 25% or less
		// could gate. Build MST's phases are fixed by the graph.
		return workload{trials: []buildTrial{{algo: harness.AlgoMSTBuildAdaptive, n: 50_000, m: 150_000, async: true, graph: graphSeed, seed: seed}}}, nil
	case "build-dense-ladder":
		return workload{trials: denseLadder([]int{512, 1024, 2048}, seed)}, nil
	case "serve-churn-20k":
		s := churnSession(20_000, 60_000, 2048, seed)
		if seed == 1 {
			// What `kkt serve --family gnm --n 20000 --m 60000 --graph-seed 1
			// --seed 1 --events 2048 --churn tree-deletes=24,deletes=16,
			// inserts=16,weight-changes=8` prints.
			s.pin = &servePin{digest: "sha256:9e927608227ec2e10f38c75c9c98afd642b2c27a7a07d7878fc08035fcdf4bea", repairs: 1629}
		}
		return workload{serve: s}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// denseLadder is the `kkt scaling` quad-density ladder, m = n²/8: for every
// n, two graphs, each built with MST and with GHS under coins drawn from
// seed.
func denseLadder(ns []int, seed uint64) []buildTrial {
	graphs, coins := rng.New(graphSeed), rng.New(seed)
	var out []buildTrial
	for _, n := range ns {
		for rep := 0; rep < 2; rep++ {
			g, s := graphs.Uint64(), coins.Uint64()
			for _, algo := range []string{harness.AlgoMSTBuildAdaptive, harness.AlgoGHS} {
				out = append(out, buildTrial{algo: algo, n: n, m: n * n / 8, graph: g, seed: s})
			}
		}
	}
	return out
}

// churnSession is the serve workload's shape: an mst daemon with seed over
// gnm(n, m) from graphSeed, default epochs and waves.
func churnSession(n, m, events int, seed uint64) *serveSession {
	return &serveSession{cfg: serve.Config{
		Spec:   serve.GraphSpec{Family: "gnm", N: n, M: m, Seed: graphSeed},
		Algo:   "mst",
		Seed:   seed,
		Events: events,
		Churn:  faultplan.Plan{TreeEdgeDeletes: 24, Deletes: 16, Inserts: 16, WeightChanges: 8},
	}}
}

// nodes is the node count of the workload's largest network.
func (w workload) nodes() int {
	if w.serve != nil {
		return w.serve.cfg.Spec.N
	}
	n := 0
	for _, t := range w.trials {
		n = max(n, t.n)
	}
	return n
}

// pass is one measured execution of a workload.
type pass struct {
	start time.Time
	wall  time.Duration // set-up, protocol and validation
	setup time.Duration
	// protocol is the time inside the protocol calls: the builds, or the
	// daemon's Run.
	protocol  time.Duration
	attempted int // build trials, or update events
	failed    int
	// messages, bits and simTime are the simulated cost.
	messages, bits uint64
	simTime        int64
	digest         string
	repairs        int
	// layers holds every per-layer metric the pass measured.
	layers map[string]float64
}

func (w workload) pass(traced bool) pass {
	if w.serve != nil {
		return w.serve.pass(traced)
	}
	return buildPass(w.trials, traced)
}

// setupOnly performs the workload's set-up and discards it.
func (w workload) setupOnly() time.Duration {
	if w.serve != nil {
		t0 := time.Now()
		if _, err := serve.New(w.serve.cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench: serve set-up:", err)
		}
		return time.Since(t0)
	}
	var total time.Duration
	for _, t := range w.trials {
		// As in buildPass. Without it the previous trial's network could
		// still be uncollected here, and build-dense-ladder's peak_rss_mb
		// read 153 MiB instead of 128 in one run out of three.
		runtime.GC()
		_, gen, net := t.setup(nil)
		total += gen + net
	}
	return total
}

// layerOf names the protocol layer of a build algorithm.
func layerOf(algo string) string {
	if algo == harness.AlgoGHS {
		return "ghs"
	}
	return "mst"
}

// gnm generates a trial's graph exactly as harness.RunTrialShards does at
// one shard, so the bench and `kkt run` execute the same input.
func gnm(seed uint64, n, m int) *graph.Graph {
	r := rng.New(seed).Split()
	w := graph.UniformWeights(r.Split(), maxRaw)
	return graph.GNMWorkers(r, n, m, maxRaw, w, 1)
}

// trialEnv is a set-up trial: the graph, and the network with every
// handler its protocol needs attached.
type trialEnv struct {
	g  *graph.Graph
	nw *congest.Network
	pr *tree.Protocol
	gp *ghs.Protocol
}

// setup generates the graph and builds the network, returning the time
// spent in each. obs may be nil.
func (t buildTrial) setup(obs congest.Observer) (env trialEnv, gen, net time.Duration) {
	t0 := time.Now()
	env.g = gnm(t.graph, t.n, t.m)
	t1 := time.Now()
	opts := []congest.Option{congest.WithSeed(t.seed)}
	if t.async {
		opts = append(opts, congest.WithAsync(maxDelay))
	}
	if obs != nil {
		opts = append(opts, congest.WithObserver(obs))
	}
	env.nw = congest.NewNetwork(env.g, opts...)
	env.pr = tree.Attach(env.nw)
	if t.algo == harness.AlgoGHS {
		env.gp = ghs.Attach(env.nw)
	}
	return env, t1.Sub(t0), time.Since(t1)
}

// trialOutcome is what one build trial produced and what each layer cost.
type trialOutcome struct {
	gen, net, build, validate time.Duration

	messages, bits uint64
	simTime        int64
	forestEdges    int
	valid          bool

	phases, fragments, merges, gaveUps int
	asyncConflicts                     uint64
	peakTasks                          int
}

// run sets up, builds and validates one trial. obs may be nil.
func (t buildTrial) run(obs congest.Observer) (trialOutcome, error) {
	env, gen, net := t.setup(obs)
	o := trialOutcome{gen: gen, net: net}
	t0 := time.Now()
	var forest [][2]congest.NodeID
	switch t.algo {
	case harness.AlgoMSTBuildAdaptive:
		res, err := mst.Build(env.nw, env.pr, mst.DefaultBuild(t.seed))
		if err != nil {
			return o, err
		}
		forest, o.messages, o.bits, o.simTime = res.Forest, res.Messages, res.Bits, res.Rounds
		o.phases = len(res.Phases)
		for _, ph := range res.Phases {
			o.fragments += ph.Fragments
			o.merges += ph.Merges
			o.gaveUps += ph.GaveUps
		}
	case harness.AlgoGHS:
		res, err := ghs.Build(env.nw, env.pr, env.gp)
		if err != nil {
			return o, err
		}
		forest, o.messages, o.bits, o.simTime = res.Forest, res.Messages, res.Bits, res.Rounds
		o.phases = res.Phases
	default:
		return o, fmt.Errorf("unknown build algorithm %q", t.algo)
	}
	o.build = time.Since(t0)
	o.asyncConflicts = env.nw.AsyncConflicts()
	o.peakTasks = env.nw.DriverStats().PeakTasks

	t1 := time.Now()
	idx := make([]int, len(forest))
	for i, e := range forest {
		idx[i] = env.g.EdgeIndex(uint32(e[0]), uint32(e[1]))
	}
	o.valid = spanning.IsMSF(env.g, idx) == nil
	o.validate = time.Since(t1)
	o.forestEdges = len(forest)
	return o, nil
}

// buildPass runs every trial once, in order.
func buildPass(trials []buildTrial, traced bool) pass {
	p := pass{layers: map[string]float64{}}
	var tr *tracer
	var obs congest.Observer
	if traced {
		tr = newTracer()
		obs = tr
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	p.start = time.Now()
	var fragments, merges int
	for _, t := range trials {
		// Every trial starts on a collected heap, as every pass does: the
		// previous trial's garbage neither costs this one GC time nor
		// lifts its memory peak.
		runtime.GC()
		t0 := time.Now()
		o, err := t.run(obs)
		p.wall += time.Since(t0)
		if tr != nil {
			tr.closeNetwork()
		}
		p.attempted++
		if err != nil || !o.valid {
			p.failed++
			fmt.Fprintf(os.Stderr, "bench: %s n=%d graph=%d seed=%d failed: err=%v valid=%v\n", t.algo, t.n, t.graph, t.seed, err, o.valid)
		}
		p.setup += o.gen + o.net
		p.protocol += o.build
		p.messages += o.messages
		p.bits += o.bits
		p.simTime += o.simTime

		layer := layerOf(t.algo)
		p.layers["graph.generate_s"] += o.gen.Seconds()
		p.layers["graph.edges"] += float64(t.m)
		p.layers["congest.new_network_s"] += o.net.Seconds()
		p.layers[layer+".build_s"] += o.build.Seconds()
		p.layers[layer+".phases"] += float64(o.phases)
		p.layers["spanning.validate_s"] += o.validate.Seconds()
		p.layers["congest.async_conflicts"] += float64(o.asyncConflicts)
		p.layers["congest.peak_tasks"] = max(p.layers["congest.peak_tasks"], float64(o.peakTasks))
		if layer == "mst" {
			fragments += o.fragments
			merges += o.merges
			p.layers["mst.gaveups"] += float64(o.gaveUps)
		}
	}
	if fragments > 0 {
		p.layers["mst.merge_ratio"] = float64(merges) / float64(fragments)
	}
	memLayers(p.layers, &mem0, p.messages)
	if tr != nil {
		tr.report(p.layers)
	}
	return p
}

// pass runs the daemon over every event once. The closed loop is the
// daemon's own: each epoch's batch is ingested only after the previous
// epoch completed.
func (s *serveSession) pass(traced bool) pass {
	cfg := s.cfg
	p := pass{layers: map[string]float64{}, attempted: cfg.Events}
	// The daemon exposes its cost ledger only through Config.Observer, so
	// an untraced pass attaches the minimal ledger observer.
	var tr *tracer
	led := &ledger{}
	if traced {
		tr = newTracer()
		led = &tr.ledger
		cfg.Observer = tr
	} else {
		cfg.Observer = led
	}
	var clock updateClock
	cfg.OnWave = func(wi serve.WaveInfo) {
		clock.wave(time.Now(), wi.Pending)
		if tr != nil {
			tr.gap()
		}
	}
	cfg.OnEpoch = func(ei serve.EpochInfo) { clock.epoch(time.Now(), ei.EventsDone) }

	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	p.start = time.Now()
	d, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: serve set-up:", err)
		p.failed = p.attempted
		p.wall = time.Since(p.start)
		return p
	}
	p.setup = time.Since(p.start)
	t0 := time.Now()
	clock.begin(t0)
	sum, runErr := d.Run(context.Background())
	p.protocol = time.Since(t0)

	t1 := time.Now()
	final := d.State()
	g := final.Graph()
	msfErr := spanning.IsMSF(g, final.MarkedIndices(g))
	p.layers["spanning.validate_s"] = time.Since(t1).Seconds()
	p.wall = time.Since(p.start)

	p.messages, p.bits, p.simTime = led.messages, led.bits, led.now
	p.digest, p.repairs = sum.Digest, sum.Stats.Repairs
	pinned := s.pin == nil || (sum.Digest == s.pin.digest && sum.Stats.Repairs == s.pin.repairs)
	if runErr != nil || msfErr != nil || sum.EventsDone != cfg.Events || !pinned {
		p.failed = p.attempted
		fmt.Fprintf(os.Stderr, "bench: serve failed: run=%v msf=%v events=%d/%d digest=%s repairs=%d pinned=%v\n",
			runErr, msfErr, sum.EventsDone, cfg.Events, sum.Digest, sum.Stats.Repairs, pinned)
	}

	stats := sum.Stats
	p.layers["admit.waves"] = float64(stats.Waves)
	p.layers["admit.repairs"] = float64(stats.Repairs)
	p.layers["admit.retries"] = float64(stats.Retries)
	p.layers["admit.inline"] = float64(stats.Inline)
	if stats.Waves > 0 {
		p.layers["admit.repairs_per_wave"] = float64(stats.Repairs) / float64(stats.Waves)
	}
	p.layers["admit.wave_p50_ms"] = quantile(clock.waves, 0.5)
	p.layers["admit.wave_p99_ms"] = quantile(clock.waves, 0.99)
	p.layers["serve.update_p50_ms"] = quantile(clock.updates, 0.5)
	p.layers["serve.update_p99_ms"] = quantile(clock.updates, 0.99)
	p.layers["serve.epoch_p50_ms"] = quantile(clock.epochs, 0.5)

	if tr != nil {
		tr.closeNetwork()
		tr.report(p.layers)
		rebuildLayers(p.layers, cfg, final, g)
	}
	memLayers(p.layers, &mem0, p.messages)
	return p
}

// rebuildLayers times, once each on the final state, the per-epoch work
// the daemon does outside the engine: rebuilding the engine from durable
// state, capturing and digesting it, and compiling the churn plan.
func rebuildLayers(l map[string]float64, cfg serve.Config, final serve.State, g *graph.Graph) {
	t0 := time.Now()
	nw := congest.NewNetwork(final.Graph(), congest.WithSeed(cfg.Seed))
	tree.Attach(nw)
	nw.SetForest(final.MarkedPairs())
	_ = serve.CaptureState(nw).Digest()
	l["serve.rebuild_s"] = time.Since(t0).Seconds()

	t1 := time.Now()
	faultplan.Compile(cfg.Churn, g, final.MarkedIndices(g), cfg.Seed)
	l["faultplan.compile_s"] = time.Since(t1).Seconds()
}

// memLayers records the Go runtime's allocation and GC work since before.
func memLayers(l map[string]float64, before *runtime.MemStats, messages uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	l["runtime.alloc_mb"] = alloc / (1 << 20)
	l["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
	l["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	l["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if messages > 0 {
		l["runtime.alloc_bytes_per_msg"] = alloc / float64(messages)
	}
}

// updateClock turns the daemon's wave and epoch callbacks into update
// latencies. An update is ingested when its epoch starts and resolves at
// the first wave after which fewer of its epoch's events are pending than
// were queued behind it.
type updateClock struct {
	epochStart, lastWave time.Time
	done                 int        // events of completed epochs
	marks                []waveMark // waves of the current epoch

	updates, waves, epochs []float64 // milliseconds
}

type waveMark struct {
	at      time.Time
	pending int
}

func (c *updateClock) begin(t time.Time) { c.epochStart, c.lastWave = t, t }

func (c *updateClock) wave(t time.Time, pending int) {
	c.marks = append(c.marks, waveMark{t, pending})
	c.waves = append(c.waves, ms(t.Sub(c.lastWave)))
	c.lastWave = t
}

func (c *updateClock) epoch(t time.Time, eventsDone int) {
	n := eventsDone - c.done
	resolved := 0
	for _, w := range c.marks {
		for ; resolved < n-w.pending; resolved++ {
			c.updates = append(c.updates, ms(w.at.Sub(c.epochStart)))
		}
	}
	c.epochs = append(c.epochs, ms(t.Sub(c.epochStart)))
	c.done, c.marks = eventsDone, c.marks[:0]
	c.begin(t)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
