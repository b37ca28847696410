package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/growth"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// layerMetrics are the per-layer metrics a traced run reports, in
// report order, with their units. Layer names are the repository's
// modules. Counts and times of the pipeline layers cover the traced
// pipeline work (one pass; on serve-grow every growth cycle); a layer
// the workload does not run reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"core.iteration_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.interim_ms", "ms"},
	{"core.aggregate_ms", "ms"},
	{"core.interim_cache_hit_ratio", "ratio"},
	{"sampler.seu_score_ms", "ms"},
	{"sampler.seu_cache_hit_ratio", "ratio"},
	{"prompt.kate_queries", "count"},
	{"prompt.parse_fail_ratio", "ratio"},
	{"llm.calls", "count"},
	{"llm.chat_ms", "ms"},
	{"llm.prompt_tokens", "tokens"},
	{"llm.completion_tokens", "tokens"},
	{"llm.cost_usd", "usd"},
	{"lf.offered", "count"},
	{"lf.kept", "count"},
	{"lf.kept_ratio", "ratio"},
	{"lf.filter_ms", "ms"},
	{"lf.columns_built", "count"},
	{"lf.columns_reused", "count"},
	{"lf.index_ms", "ms"},
	{"lf.append_ms", "ms"},
	{"labelmodel.fits", "count"},
	{"labelmodel.warm_starts", "count"},
	{"labelmodel.em_iters", "count"},
	{"labelmodel.fit_ms", "ms"},
	{"labelmodel.proba_ms", "ms"},
	{"endmodel.train_ms", "ms"},
	{"endmodel.predict_ms", "ms"},
	{"endmodel.predict_us_per_text", "us"},
	{"textproc.fit_ms", "ms"},
	{"textproc.transform_ms", "ms"},
	{"textproc.transform_us_per_text", "us"},
	{"serve.label_ms", "ms"},
	{"serve.compute_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batch_texts", "count"},
	{"serve.shed", "count"},
	{"serve.dropped", "count"},
	{"registry.gateway_ms", "ms"},
	{"registry.promote_ms", "ms"},
	{"registry.rollback_ms", "ms"},
	{"registry.swaps", "count"},
	{"growth.cycles", "count"},
	{"growth.cycle_s", "s"},
	{"growth.swap_ratio", "ratio"},
	{"growth.new_lfs", "count"},
	{"growth.candidate_metric", "ratio"},
	{"growth.captured", "count"},
	{"ckpt.journal_bytes", "bytes"},
	{"ckpt.load_ms", "ms"},
	{"bundle.bytes", "bytes"},
	{"bundle.load_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.alloc_objects", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"load.sent", "count"},
	{"load.p99_ms", "ms"},
	{"load.late_ms", "ms"},
	{"load.max_rps", "req/s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// layerReport fills the per-layer metrics of a traced run: what the
// obs bundle collected, the benchmark's LLM meter, cold replays of the
// layers on the traced pass's final inputs, and direct calls into the
// serving layers on the read phase's requests.
func (b *bench) layerReport(ctx context.Context, runs []runOut, st *stack, tenants []tenant, reqs []request) error {
	b.fromObs()
	b.layers["llm.calls"] = float64(b.llm.calls)
	b.layers["llm.chat_ms"] = ms(b.llm.chat)
	b.layers["llm.prompt_tokens"] = float64(b.llm.prompt)
	b.layers["llm.completion_tokens"] = float64(b.llm.completion)
	b.layers["llm.cost_usd"] = b.llm.costUSD
	for _, t := range tenants {
		b.layers["bundle.load_ms"] += ms(t.loadTime)
		if fi, err := os.Stat(t.path); err == nil {
			b.layers["bundle.bytes"] += float64(fi.Size())
		}
	}
	if err := b.replay(ctx, runs); err != nil {
		return err
	}
	b.servedBatches(ctx, tenants)
	return b.serveReplay(ctx, st, tenants, reqs)
}

// fromObs reads the spans and counters the program emitted.
func (b *bench) fromObs() {
	spans := b.tracer.Spans()
	self := selfTimes(spans)
	var iterations, interims int
	var iterMS, offered float64
	for _, s := range spans {
		switch s.Name {
		case "iteration":
			iterations++
			iterMS += s.DurationMS
			if c, ok := s.Int("candidates"); ok {
				offered += float64(c)
			}
		case "select":
			b.layers["core.select_ms"] += self[s.Span]
		case "interim":
			interims++
			b.layers["core.interim_ms"] += s.DurationMS
		case "aggregate":
			b.layers["core.aggregate_ms"] += s.DurationMS
		case "filter":
			b.layers["lf.filter_ms"] += s.DurationMS
		}
	}
	if iterations > 0 {
		b.layers["core.iteration_ms"] = iterMS / float64(iterations)
	}
	r := b.metrics
	if interims > 0 {
		b.layers["core.interim_cache_hit_ratio"] = r.CounterValue("eval_interim_cache_hits_total") / float64(interims)
	}
	seu, _ := histSum(r, "sampler_seu_score_seconds")
	b.layers["sampler.seu_score_ms"] = seu * 1000
	hits, misses := r.CounterValue("sampler_seu_score_cache_hits_total"), r.CounterValue("sampler_seu_score_cache_misses_total")
	b.layers["sampler.seu_cache_hit_ratio"] = ratio(hits, hits+misses)
	b.layers["prompt.kate_queries"] = r.CounterValue("kate_ann_queries_total") + r.CounterValue("kate_exact_queries_total")
	b.layers["prompt.parse_fail_ratio"] = ratio(r.CounterValue("pipeline_parse_failures_total"), r.CounterValue("pipeline_iterations_total"))
	kept := r.CounterValue("pipeline_lfs_kept_total")
	b.layers["lf.offered"] = offered
	b.layers["lf.kept"] = kept
	b.layers["lf.kept_ratio"] = ratio(kept, offered)
	b.layers["lf.columns_built"] = r.CounterValue("eval_vote_columns_built_total")
	b.layers["lf.columns_reused"] = r.CounterValue("eval_vote_columns_reused_total")
	b.layers["labelmodel.fits"] = r.CounterValue("eval_labelmodel_fits_total")
	b.layers["labelmodel.warm_starts"] = r.CounterValue("eval_em_warm_starts_total")
	b.layers["labelmodel.em_iters"], _ = histSum(r, "eval_em_iterations")
	b.layers["serve.batch_texts"] = ratio(r.CounterValue("serve_texts_total"), r.CounterValue("serve_batches_total"))
	b.layers["serve.shed"] = r.CounterValue("serve_shed_total")
	b.layers["serve.dropped"] = r.CounterValue("serve_dropped_total")
	b.layers["registry.swaps"] = r.CounterValue("serve_bundle_swaps_total") + r.CounterValue("serve_bundle_rollbacks_total")
	b.layers["growth.captured"] = r.CounterValue("growth_captured_texts_total")
	b.layers["trace.spans"] = float64(len(spans))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histSum returns the sum and count of a histogram, summed over the
// series of a histogram vector.
func histSum(r *obs.Registry, name string) (float64, uint64) {
	switch v := r.Snapshot()[name].(type) {
	case obs.HistogramSnapshot:
		return v.Sum, v.Count
	case map[string]any:
		var sum float64
		var n uint64
		for _, s := range v {
			if h, ok := s.(obs.HistogramSnapshot); ok {
				sum += h.Sum
				n += h.Count
			}
		}
		return sum, n
	}
	return 0, 0
}

// timed runs fn under a benchmark span and adds its wall time in ms to
// the layer metric.
func (b *bench) timed(ctx context.Context, metric string, fn func()) {
	_, sp := span(ctx, "bench.replay."+metric)
	start := time.Now()
	fn()
	b.layers[metric] += ms(time.Since(start))
	sp.End()
}

// replay calls each layer of the evaluation engine from cold on the
// traced pass's final inputs — the train split and the final LF set —
// with the run's worker count: featurizer fit and transform, LF index
// and vote matrix, a MeTaL fit without warm start and its posteriors,
// and an end model trained on them and predicting the test split.
func (b *bench) replay(ctx context.Context, runs []runOut) error {
	for _, r := range runs {
		d, cfg := r.d, r.cfg
		k := d.NumClasses()
		feat := textproc.NewFeaturizer(cfg.FeatureDim)
		feat.Workers = cfg.Parallelism
		corpus := dataset.FeatureCorpus(d.Train)
		var err error
		b.timed(ctx, "textproc.fit_ms", func() { err = feat.Fit(corpus) })
		if err != nil {
			return fmt.Errorf("replaying featurizer fit on %s: %w", d.Name, err)
		}
		var X []*textproc.SparseVector
		b.timed(ctx, "textproc.transform_ms", func() { X = feat.TransformAll(corpus) })
		var ix *lf.Index
		b.timed(ctx, "lf.index_ms", func() { ix = lf.NewIndex(d.Train) })
		vm := lf.NewVoteMatrix(len(d.Train))
		b.timed(ctx, "lf.append_ms", func() { vm.AppendLFs(ix, r.res.LFs, cfg.Parallelism) })
		if len(r.res.LFs) == 0 {
			continue
		}
		m := labelmodel.NewMeTaL()
		m.Workers = cfg.Parallelism
		b.timed(ctx, "labelmodel.fit_ms", func() { err = m.Fit(vm, k) })
		if err != nil {
			return fmt.Errorf("replaying MeTaL fit on %s: %w", d.Name, err)
		}
		var proba [][]float64
		b.timed(ctx, "labelmodel.proba_ms", func() { proba = m.PredictProba(vm) })
		Xs, Y, w := hardTargets(X, proba, k)
		if len(Xs) == 0 {
			continue
		}
		var em *endmodel.LogisticRegression
		b.timed(ctx, "endmodel.train_ms", func() { em, err = endmodel.Train(Xs, Y, w, k, feat.Dim, cfg.EndModel) })
		if err != nil {
			return fmt.Errorf("replaying end-model training on %s: %w", d.Name, err)
		}
		em.SetParallelism(cfg.Parallelism)
		testX := feat.TransformAll(dataset.FeatureCorpus(d.Test))
		b.timed(ctx, "endmodel.predict_ms", func() { em.PredictProbaAll(testX) })
	}
	return nil
}

// hardTargets is the end model's training set: each covered example
// with its label-model argmax as a one-hot target, weighted by that
// posterior.
func hardTargets(X []*textproc.SparseVector, proba [][]float64, k int) (xs []*textproc.SparseVector, ys [][]float64, ws []float64) {
	for i, p := range proba {
		if p == nil {
			continue
		}
		best := 0
		for c := 1; c < k; c++ {
			if p[c] > p[best] {
				best = c
			}
		}
		y := make([]float64, k)
		y[best] = 1
		xs, ys, ws = append(xs, X[i]), append(ys, y), append(ws, p[best])
	}
	return xs, ys, ws
}

// servedBatches times the serving hot path's two compute calls on
// served-size batches (batchSize texts) of each tenant's bundle.
func (b *bench) servedBatches(ctx context.Context, tenants []tenant) {
	const batches = 100
	rng := rand.New(rand.NewSource(b.seed))
	var feat, pred time.Duration
	texts := 0
	for _, t := range tenants {
		for i := 0; i < batches; i++ {
			batch := make([]string, batchSize)
			for j := range batch {
				batch[j] = t.texts[rng.Intn(len(t.texts))]
			}
			corpus := featureCorpus(batch)
			start := time.Now()
			X := t.b.Featurizer.TransformAll(corpus)
			mid := time.Now()
			t.b.EndModel.PredictProbaAll(X)
			feat += mid.Sub(start)
			pred += time.Since(mid)
			texts += batchSize
		}
	}
	_, sp := span(ctx, "bench.replay.served_batches")
	sp.End()
	b.layers["textproc.transform_us_per_text"] = float64(feat.Microseconds()) / float64(texts)
	b.layers["endmodel.predict_us_per_text"] = float64(pred.Microseconds()) / float64(texts)
}

// serveReplay calls the serving layers one request at a time on the
// read phase's non-explain requests, with no other traffic: the
// registry's Label (queue wait plus compute), the same texts through
// featurize + predict alone (compute), and the same bodies over HTTP
// (adding the gateway). It then times a forced Promote of a fresh copy
// of the first tenant's bundle and the Rollback that undoes it.
func (b *bench) serveReplay(ctx context.Context, st *stack, tenants []tenant, reqs []request) error {
	byName := map[string]tenant{}
	for _, t := range tenants {
		byName[t.name] = t
	}
	const samples = 200
	var label, compute, rtt time.Duration
	n := 0
	gen := newGenerator(st.base)
	defer gen.close()
	for _, r := range reqs {
		if r.Explain || n == samples {
			continue
		}
		n++
		start := time.Now()
		if _, err := st.reg.Label(ctx, r.Tenant, r.Texts, false); err != nil {
			return fmt.Errorf("direct label on %s: %w", r.Tenant, err)
		}
		label += time.Since(start)
		t := byName[r.Tenant]
		start = time.Now()
		t.b.EndModel.PredictProbaAll(t.b.Featurizer.TransformAll(featureCorpus(r.Texts)))
		compute += time.Since(start)
		o := gen.send(ctx, gen.clients[0], r, time.Now())
		if !o.ok() {
			return fmt.Errorf("sequential request to %s: status %d, %v", r.Tenant, o.Status, o.Err)
		}
		rtt += o.RTT
	}
	if n == 0 {
		return fmt.Errorf("no request to replay")
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	b.layers["serve.label_ms"] = per(label)
	b.layers["serve.compute_ms"] = per(compute)
	b.layers["serve.queue_wait_ms"] = per(label - compute)
	b.layers["registry.gateway_ms"] = per(rtt - label)

	t := tenants[0]
	fresh, err := bundle.Load(t.path)
	if err != nil {
		return err
	}
	var perr error
	b.timed(ctx, "registry.promote_ms", func() { _, perr = st.reg.Promote(t.name, fresh, true) })
	if perr != nil {
		return fmt.Errorf("promoting %s: %w", t.name, perr)
	}
	b.timed(ctx, "registry.rollback_ms", func() { _, perr = st.reg.Rollback(t.name) })
	if perr != nil {
		return fmt.Errorf("rolling back %s: %w", t.name, perr)
	}
	return nil
}

// growthLayers reads the growth loop's journal and state dir: cycles
// that ran and reached a hot swap, LFs added, the candidates' offline
// metric, durable bytes per cycle, and the cost of reloading the
// journal on resume.
func (b *bench) growthLayers(env *serveEnv, cycles []cycleRun, swapped int) error {
	var durs []float64
	newLFs, built := 0, 0
	metric := 0.0
	for _, c := range cycles {
		durs = append(durs, c.dur.Seconds())
		newLFs += c.rec.NewLFs
		if c.rec.CandidateHash != "" {
			built++
			metric += c.rec.CandidateMetric
		}
	}
	b.layers["growth.candidate_metric"] = ratio(metric, float64(built))
	b.layers["growth.cycles"] = float64(len(cycles))
	b.layers["growth.cycle_s"] = median(durs)
	b.layers["growth.swap_ratio"] = ratio(float64(swapped), float64(len(cycles)))
	b.layers["growth.new_lfs"] = float64(newLFs)
	var size int64
	err := filepath.Walk(env.state, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	b.layers["ckpt.journal_bytes"] = ratio(float64(size), float64(len(cycles)))
	start := time.Now()
	recs, err := ckpt.Load(filepath.Join(env.state, "growth.jsonl"), func(r *growth.CycleRecord) bool { return r.Outcome != "" })
	b.layers["ckpt.load_ms"] = ms(time.Since(start))
	if err != nil {
		return err
	}
	b.op(len(recs) >= len(cycles), "growth journal holds %d records for %d cycles", len(recs), len(cycles))
	return nil
}

// runtimeDelta records the Go runtime's allocation and GC work since
// start: bytes and objects allocated, GC cycles, and GC's share of the
// process's CPU time.
func (b *bench) runtimeDelta(start []metrics.Sample) {
	end := readRuntime()
	d := func(i int) float64 { return value(end[i]) - value(start[i]) }
	b.layers["runtime.alloc_mb"] = d(0) / (1 << 20)
	b.layers["runtime.alloc_objects"] = d(1)
	b.layers["runtime.gc_cycles"] = d(2)
	b.layers["runtime.gc_cpu_frac"] = ratio(d(3), d(4))
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// writeSpans writes every span of the traced run, with its self time,
// as JSON lines under .bench_build/trace, and adds the span names with
// the most self time to the report.
func (b *bench) writeSpans() error {
	spans := b.tracer.Spans()
	self := selfTimes(spans)
	dir := filepath.Join(b.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	byName := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += self[s.Span]
		if err := enc.Encode(struct {
			obs.SpanData
			SelfMS float64 `json:"self_ms"`
		}{s, self[s.Span]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	var top []string
	for _, n := range names[:min(12, len(names))] {
		top = append(top, fmt.Sprintf("%s=%.1fms", n, byName[n]))
	}
	b.note("spans: %d written to %s", len(spans), path)
	b.note("self time by span: %s", strings.Join(top, " "))
	return nil
}
