package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/growth"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// The pipeline runs of each workload. offline-agnews is Table 1's
// largest corpus with the model-driven sampler, so the evaluation
// engine (interim refresh, featurize, vote matrix, MeTaL, end model)
// does the work. offline-kate runs the costliest prompting variant on
// three small corpora, so the query loop (SEU sampler, KATE retrieval,
// self-consistency parsing, LLM, filters) does the work; spouse adds
// entity-aware LFs and an unlabeled train split. The serving tenants
// are trained with the base variant; imdb and agnews at a tenth of
// their size, which keeps set-up short without changing how long their
// held-out documents are.
var (
	agnewsSpecs = []spec{{"agnews", 1, core.VariantBase, "uncertain"}}
	kateSpecs   = []spec{
		{"youtube", 1, core.VariantKATE, "seu"},
		{"sms", 1, core.VariantKATE, "seu"},
		{"spouse", 1, core.VariantKATE, "seu"},
	}
	tenantSpecs = []spec{
		{"youtube", 1, core.VariantBase, "random"},
		{"sms", 1, core.VariantBase, "random"},
		{"imdb", 0.1, core.VariantBase, "random"},
		{"agnews", 0.1, core.VariantBase, "random"},
	}
)

const (
	// growTenant is the serve-grow tenant whose growth loop runs, and
	// growReadRate the read traffic (req/s) beside it.
	growTenant   = "sms"
	growReadRate = 150
	// shadowAgreement is the registry's promotion gate. It is set low
	// so that grown candidates reach a hot swap (then the growth loop's
	// own verify promotes or rolls back) instead of stopping at the
	// gate: serve-grow exists to measure reads beside swaps.
	shadowAgreement = 0.5
)

func (b *bench) offlineAgnews(ctx context.Context) error { return b.offline(ctx, agnewsSpecs) }
func (b *bench) offlineKATE(ctx context.Context) error   { return b.offline(ctx, kateSpecs) }

// offline sets up (generates the datasets), runs pipeline passes with
// the workload seed, then serves the last pass's bundles in a read
// phase of minWindows windows; the passes take the rest of --seconds,
// and there are at least two. Every pass after the first must
// reproduce the first exactly. A traced run makes three passes, the
// second traced, and reports its gap to the other two as the tracing
// overhead.
func (b *bench) offline(ctx context.Context, specs []spec) error {
	var ds []*dataset.Dataset
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Every set-up, pass and read phase starts from a collected heap,
		// so none pays for the garbage of another.
		ds = nil
		runtime.GC()
		start := time.Now()
		var err error
		if ds, err = b.datasets(ctx, specs); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	b.e2e["setup_s"] = median(setups)

	rt := readRuntime()
	phase := time.Now()
	var passes [][]runOut
	var times []float64
	for {
		traced := b.trace && len(passes) == 1
		runtime.GC()
		outs, d, err := b.pass(ctx, specs, ds, traced)
		if err != nil {
			return err
		}
		passes = append(passes, outs)
		times = append(times, d.Seconds())
		if b.trace && len(passes) == 3 {
			b.layers["trace.overhead_frac"] = times[1]/((times[0]+times[2])/2) - 1
			break
		}
		if !b.trace && len(passes) >= 2 && time.Since(phase).Seconds()+median(times) > b.seconds-offlineReadSeconds {
			break
		}
	}
	for _, p := range passes[1:] {
		b.sameOutputs(specs, fingerprints(passes[0]), fingerprints(p))
	}
	b.e2e["run_s"] = median(times)
	b.e2e["llm_tokens"] = float64(tokens(passes[0]))
	b.e2e["end_metric"] = meanMetric(passes[0])
	b.note("pipeline: %d passes of %d run(s), %.3v s; run_s is the median pass", len(passes), len(specs), times)

	last := passes[len(passes)-1]
	tctx := b.traced(ctx, true)
	tenants, err := b.tenantBundles(tctx, last, b.dir)
	if err != nil {
		return err
	}
	if !b.trace {
		// The read phase serves bundles; what the pipeline needed is
		// garbage now, as it would be in datasculptd.
		last = nil
		forgetRuns(tenants)
	}
	st, err := standUp(tenants, b.o, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	reqs, outs, err := b.readPhase(tctx, st, tenants, refRate, minWindows, 1)
	if err == nil {
		b.verify(tenants, reqs, outs, nil)
		b.runtimeDelta(rt)
		if b.trace {
			err = b.layerReport(tctx, last, st, tenants, reqs)
		}
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	return err
}

// serveEnv is a set-up serving workload: trained tenant bundles behind
// a running stack, and on serve-grow the growth daemon.
type serveEnv struct {
	tenants []tenant
	st      *stack
	daemon  *growth.Daemon
	state   string // the daemon's state dir
}

// serveOpen is read-only open-loop traffic at the reference rate
// through gateway → registry → coalescer for the whole run. A traced
// run also climbs the rate ladder for load.max_rps.
func (b *bench) serveOpen(ctx context.Context) error {
	env, err := b.serveSetups(ctx, false)
	if err != nil {
		return err
	}
	runtime.GC()
	rt := readRuntime()
	tctx := b.traced(ctx, true)
	reqs, outs, err := b.readPhase(tctx, env.st, env.tenants, refRate, windows(refRate, b.seconds), 1)
	if err == nil {
		b.verify(env.tenants, reqs, outs, nil)
		b.runtimeDelta(rt)
		if b.trace {
			if err = b.ladder(tctx, env.st, env.tenants); err == nil {
				err = b.layerReport(tctx, runsOf(env.tenants), env.st, env.tenants, reqs)
			}
		}
	}
	if cerr := env.st.close(); err == nil {
		err = cerr
	}
	return err
}

// serveSetups sets the serving workload up setupRepeats times and keeps
// the last: generate the tenant datasets, train their bundles with one
// pipeline pass, save and load them, boot registry and gateway (and on
// serve-grow the growth daemon). Every repeat trains with the same seed
// and must reproduce the first exactly. end_metric is the trained
// tenants' mean offline metric; on serve-open the training pass is the
// workload's pipeline pass (run_s, llm_tokens). A traced run traces the
// last set-up.
func (b *bench) serveSetups(ctx context.Context, grow bool) (*serveEnv, error) {
	var env *serveEnv
	var setups, trains []float64
	var first []fingerprint
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		e, train, err := b.serveSetup(ctx, i, b.trace && i == setupRepeats-1, grow)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		trains = append(trains, train.Seconds())
		if i == 0 {
			first = fingerprints(runsOf(e.tenants))
			b.e2e["end_metric"] = meanMetric(runsOf(e.tenants))
			if !grow {
				b.e2e["llm_tokens"] = float64(tokens(runsOf(e.tenants)))
			}
		} else {
			b.sameOutputs(tenantSpecs, first, fingerprints(runsOf(e.tenants)))
		}
		env = e
	}
	b.e2e["setup_s"] = median(setups)
	b.note("set-ups: %.3v s, training passes %.3v s", setups, trains)
	if !grow {
		b.e2e["run_s"] = median(trains)
	}
	if b.trace {
		b.layers["trace.overhead_frac"] = trains[setupRepeats-1]/median(trains[:setupRepeats-1]) - 1
	} else {
		// Serving needs the bundles (and the growth daemon its base
		// dataset, which it holds itself); the training runs are garbage.
		forgetRuns(env.tenants)
	}
	return env, nil
}

// forgetRuns drops the tenants' references to the pipeline runs that
// trained them, so the read phase's heap holds what a serving daemon's
// would. Traced runs keep them for the layer replays.
func forgetRuns(tenants []tenant) {
	for i := range tenants {
		tenants[i].run = runOut{}
	}
}

func runsOf(tenants []tenant) []runOut {
	out := make([]runOut, len(tenants))
	for i, t := range tenants {
		out[i] = t.run
	}
	return out
}

// serveSetup is one set-up; it returns the training pass's wall time.
func (b *bench) serveSetup(ctx context.Context, i int, traced, grow bool) (*serveEnv, time.Duration, error) {
	ctx, sp := span(b.traced(ctx, traced), "bench.setup")
	defer sp.End()
	ds, err := b.datasets(ctx, tenantSpecs)
	if err != nil {
		return nil, 0, err
	}
	outs, train, err := b.pass(ctx, tenantSpecs, ds, traced)
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	tenants, err := b.tenantBundles(ctx, outs, dir)
	if err != nil {
		return nil, 0, err
	}
	var o *obs.Obs
	if traced {
		o = b.o
	}
	env := &serveEnv{tenants: tenants, state: filepath.Join(dir, "growth")}
	// As in datasculptd: the registry's capture hook feeds the daemon,
	// which needs the registry, so the hook late-binds.
	var daemon atomic.Pointer[growth.Daemon]
	var capture func(string, []string)
	if grow {
		capture = func(tenant string, texts []string) {
			if d := daemon.Load(); d != nil {
				d.Capture(tenant, texts)
			}
		}
	}
	if env.st, err = standUp(tenants, o, capture); err != nil {
		return nil, 0, err
	}
	if grow {
		t := env.tenants[tenantIndex(env.tenants, growTenant)]
		env.daemon, err = growth.New(growth.Config{
			Tenant:   t.name,
			Registry: env.st.reg,
			Base:     t.run.d,
			Parent:   t.b,
			Pipeline: t.run.cfg,
			StateDir: env.state,
			// The quality gate never blocks, so candidates reach the
			// registry; see shadowAgreement.
			MaxRegression: 1,
			Obs:           o,
			WrapModel:     func(_, _ int, m llm.ChatModel) llm.ChatModel { return b.llm.wrap(m) },
		})
		if err != nil {
			env.st.close()
			return nil, 0, err
		}
		daemon.Store(env.daemon)
	}
	return env, train, nil
}

func tenantIndex(tenants []tenant, name string) int {
	for i, t := range tenants {
		if t.name == name {
			return i
		}
	}
	return 0
}

// cycleRun is one growth cycle that ran (RunCycle returned a record).
type cycleRun struct {
	rec    *growth.CycleRecord
	dur    time.Duration
	tokens int
}

// serveGrow runs reads at growReadRate for the whole run while the sms
// tenant's growth daemon runs cycles back to back, fed by the registry
// capture hook. Its pipeline pass is one growth cycle: run_s and
// llm_tokens are per cycle that ran. end_metric is the tenants' metric
// as set up: a candidate's metric depends on which texts the reservoir
// happened to capture, so it varies between runs of one seed and is
// reported per layer (growth.candidate_metric).
func (b *bench) serveGrow(ctx context.Context) error {
	env, err := b.serveSetups(ctx, true)
	if err != nil {
		return err
	}
	runtime.GC()
	rt := readRuntime()
	tctx := b.traced(ctx, true)
	stop := make(chan struct{})
	var cycles []cycleRun
	var loopErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cycles, loopErr = b.growLoop(tctx, env.daemon, stop)
	}()
	reqs, outs, err := b.readPhase(tctx, env.st, env.tenants, growReadRate, windows(growReadRate, b.seconds), 2)
	close(stop)
	wg.Wait()
	if err == nil {
		err = b.growResults(env, cycles, loopErr, reqs, outs)
	}
	if err == nil {
		b.runtimeDelta(rt)
		if b.trace {
			err = b.layerReport(tctx, runsOf(env.tenants), env.st, env.tenants, reqs)
		}
	}
	if cerr := env.st.close(); err == nil {
		err = cerr
	}
	return err
}

// growLoop runs growth cycles back to back until stop closes, letting
// a cycle in flight finish. A skipped cycle (corpus still too small)
// waits briefly for more captured traffic and is not counted.
func (b *bench) growLoop(ctx context.Context, d *growth.Daemon, stop chan struct{}) ([]cycleRun, error) {
	var runs []cycleRun
	for {
		select {
		case <-stop:
			return runs, nil
		default:
		}
		before := b.llm.tokens()
		start := time.Now()
		cctx, sp := span(ctx, "bench.growth.cycle")
		rec, err := d.RunCycle(cctx)
		sp.End()
		if err != nil {
			return runs, err
		}
		if rec == nil {
			select {
			case <-stop:
				return runs, nil
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		runs = append(runs, cycleRun{rec, time.Since(start), b.llm.tokens() - before})
	}
}

// growResults turns the cycles into serve-grow's pipeline metrics and
// checks them: the loop ran without error, at least one cycle reached
// the registry, and every read — hot swaps included — was answered
// with a prediction of a bundle generation the tenant served.
func (b *bench) growResults(env *serveEnv, cycles []cycleRun, loopErr error, reqs []request, outs []outcome) error {
	b.op(loopErr == nil, "growth loop: %v", loopErr)
	var durs, toks []float64
	swapped := 0
	gens := []*bundle.Bundle{env.tenants[tenantIndex(env.tenants, growTenant)].b}
	for _, c := range cycles {
		durs = append(durs, c.dur.Seconds())
		toks = append(toks, float64(c.tokens))
		if c.rec.Outcome == growth.OutcomePromoted || c.rec.Outcome == growth.OutcomeRolledBack {
			swapped++
			cand, err := bundle.Load(filepath.Join(env.state, fmt.Sprintf("candidate-%d.json", c.rec.Cycle)))
			if err != nil {
				return err
			}
			gens = append(gens, cand)
		}
	}
	b.op(swapped > 0, "no growth cycle reached the registry (%d cycles ran)", len(cycles))
	if len(cycles) > 0 {
		b.e2e["run_s"] = median(durs)
		b.e2e["cycle_s"] = median(durs)
		b.e2e["llm_tokens"] = median(toks)
	}
	b.verify(env.tenants, reqs, outs, map[string][]*bundle.Bundle{growTenant: gens})
	b.note("growth: %d cycles ran, %d reached a hot swap", len(cycles), swapped)
	if b.trace {
		return b.growthLayers(env, cycles, swapped)
	}
	return nil
}
