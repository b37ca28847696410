package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
)

// spec is one pipeline run of a workload: which generated dataset, at
// what scale, with which variant and query sampler.
type spec struct {
	dataset string
	scale   float64
	variant core.Variant
	sampler string
}

// config is the run configuration of s: the paper's defaults for the
// variant, the workload seed, and the default Parallelism.
func (b *bench) config(s spec) (core.Config, error) {
	cfg := core.Config{Variant: s.variant, Sampler: s.sampler, Seed: b.seed}
	return cfg, cfg.Normalize()
}

// datasets generates every spec's dataset from the workload seed.
func (b *bench) datasets(ctx context.Context, specs []spec) ([]*dataset.Dataset, error) {
	_, sp := span(ctx, "bench.dataset.generate")
	defer sp.End()
	ds := make([]*dataset.Dataset, len(specs))
	for i, s := range specs {
		d, err := dataset.Load(s.dataset, b.seed, s.scale)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", s.dataset, err)
		}
		ds[i] = d
	}
	return ds, nil
}

// runOut is one finished pipeline run.
type runOut struct {
	d   *dataset.Dataset
	cfg core.Config
	res *core.Result
}

// fingerprint is what two runs of the same seed must agree on exactly.
type fingerprint struct {
	numLFs             int
	metricBits         uint64
	prompt, completion int
}

// fingerprints returns each run's fingerprint.
func fingerprints(outs []runOut) []fingerprint {
	fps := make([]fingerprint, len(outs))
	for i, r := range outs {
		fps[i] = fingerprint{r.res.NumLFs, math.Float64bits(r.res.EndMetric), r.res.PromptTokens, r.res.CompletionTokens}
	}
	return fps
}

// tokens returns the pass's prompt + completion tokens.
func tokens(outs []runOut) int {
	n := 0
	for _, o := range outs {
		n += o.res.TotalTokens()
	}
	return n
}

// meanMetric returns the pass's end-model metric averaged over its
// datasets.
func meanMetric(outs []runOut) float64 {
	s := 0.0
	for _, o := range outs {
		s += o.res.EndMetric
	}
	return s / float64(len(outs))
}

// pass runs the pipeline once over every dataset, in order. A traced
// pass runs under the obs bundle with the benchmark's LLM meter
// installed. Each run is one operation; the first run that errors
// ends the pass.
func (b *bench) pass(ctx context.Context, specs []spec, ds []*dataset.Dataset, traced bool) ([]runOut, time.Duration, error) {
	ctx, sp := span(b.traced(ctx, traced), "bench.pipeline.pass")
	defer sp.End()
	start := time.Now()
	outs := make([]runOut, len(specs))
	for i, s := range specs {
		cfg, err := b.config(s)
		if err != nil {
			return nil, 0, err
		}
		if traced {
			cfg.WrapModel = func(m llm.ChatModel) llm.ChatModel { return b.llm.wrap(m) }
		}
		res, err := core.RunContext(ctx, ds[i], cfg)
		b.op(err == nil, "pipeline run %s: %v", s.dataset, err)
		if err != nil {
			return nil, 0, fmt.Errorf("pipeline run %s: %w", s.dataset, err)
		}
		outs[i] = runOut{ds[i], cfg, res}
	}
	return outs, time.Since(start), nil
}

// sameOutputs checks a repeated pass against the first one with the
// same seed: the LF count, the end metric's bits and the token counts
// must be identical. A mismatch fails that run.
func (b *bench) sameOutputs(specs []spec, first, again []fingerprint) {
	for i := range first {
		if first[i] != again[i] {
			b.fail("%s: same seed gave different outputs: %+v then %+v", specs[i].dataset, first[i], again[i])
		}
	}
}

// tenantBundles turns a pass's runs into servable bundle files under
// dir and loads them back the way datasculptd does, timing each load.
func (b *bench) tenantBundles(ctx context.Context, outs []runOut, dir string) ([]tenant, error) {
	_, sp := span(ctx, "bench.bundle.build")
	defer sp.End()
	tenants := make([]tenant, len(outs))
	for i, o := range outs {
		nb, err := bundle.New(o.d, o.cfg, o.res)
		if err != nil {
			return nil, fmt.Errorf("bundling %s: %w", o.d.Name, err)
		}
		path := filepath.Join(dir, o.d.Name+".json")
		if err := bundle.Save(path, nb); err != nil {
			return nil, err
		}
		start := time.Now()
		loaded, err := bundle.Load(path)
		if err != nil {
			return nil, err
		}
		tenants[i] = tenant{
			name: o.d.Name, path: path, b: loaded, loadTime: time.Since(start),
			run: o, texts: dataset.Texts(o.d.Test),
		}
	}
	return tenants, nil
}

// llmCounter is the benchmark's own ChatModel wrapper: the llm layer's
// calls, time and tokens as the pipeline saw them.
type llmCounter struct {
	mu                 sync.Mutex
	calls              int
	chat               time.Duration
	prompt, completion int
	costUSD            float64
}

func (c *llmCounter) wrap(m llm.ChatModel) llm.ChatModel { return &countedModel{m, c} }

func (c *llmCounter) tokens() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prompt + c.completion
}

type countedModel struct {
	llm.ChatModel
	c *llmCounter
}

func (m *countedModel) Chat(ctx context.Context, msgs []llm.Message, temperature float64, n int) ([]llm.Response, error) {
	start := time.Now()
	rs, err := m.ChatModel.Chat(ctx, msgs, temperature, n)
	d := time.Since(start)
	var p, c int
	for _, r := range rs {
		p += r.Usage.PromptTokens
		c += r.Usage.CompletionTokens
	}
	pp, cp := m.Pricing()
	m.c.mu.Lock()
	m.c.calls++
	m.c.chat += d
	m.c.prompt += p
	m.c.completion += c
	m.c.costUSD += (float64(p)*pp + float64(c)*cp) / 1e6
	m.c.mu.Unlock()
	return rs, err
}
