package core

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
	"datasculpt/internal/prompt"
	"datasculpt/internal/sampler"
	"datasculpt/internal/textproc"
)

// pipelineMetrics holds the registry handles the query loop updates.
// With a nil registry every handle is nil and every update is a free
// no-op.
type pipelineMetrics struct {
	iterations        *obs.Counter
	parseFailures     *obs.Counter
	iterationFailures *obs.Counter
	lfsKept           *obs.Counter
	lfsPerIter        *obs.Histogram
}

func newPipelineMetrics(reg *obs.Registry) pipelineMetrics {
	return pipelineMetrics{
		iterations:    reg.Counter("pipeline_iterations_total", "query iterations executed"),
		parseFailures: reg.Counter("pipeline_parse_failures_total", "LLM responses the parser rejected entirely"),
		iterationFailures: reg.Counter("pipeline_iteration_failures_total",
			"iterations abandoned because the LLM call failed after retries"),
		lfsKept:    reg.Counter("pipeline_lfs_kept_total", "candidate LFs that survived the filter chain"),
		lfsPerIter: reg.Histogram("pipeline_lfs_kept_per_iteration", "LFs kept per query iteration", obs.SmallCountBuckets),
	}
}

// loop is the state of the select → prompt → parse → filter query loop
// (paper §3), built once by newLoop for both of its drivers: RunContext
// (a threaded run rng, one model, a failure budget) and the Proposer
// (a derived rng and model per iteration, journaled steps). iterate is
// the one implementation of an iteration; the drivers differ only in
// the rng and model they hand it and in what they do with its result.
type loop struct {
	d     *dataset.Dataset
	cfg   Config
	chain *lf.FilterChain
	sel   prompt.ExampleSelector
	smp   sampler.Sampler
	state *sampler.State
	ev    *evaluator
	style prompt.Style
	// meter accounts every chat call of the loop; the driver decides its
	// scope (one per run, or one per journaled step).
	meter *llm.Meter

	// reg is the registry pm was resolved from: the ctx of each
	// iteration decides where its metrics go.
	reg *obs.Registry
	pm  pipelineMetrics

	parseFailures, failedIterations int
}

// newLoop fits the featurizer and builds the indexes, filter chain,
// example selector, sampler state and evaluator of a query loop over d.
// cfg must be normalized and d validated. reg (nil allowed) receives
// the selector's, sampler's and evaluator's metrics.
func newLoop(d *dataset.Dataset, cfg Config, reg *obs.Registry) (*loop, error) {
	smp, ok := sampler.ByName(cfg.Sampler)
	if !ok {
		return nil, fmt.Errorf("core: unknown sampler %q", cfg.Sampler)
	}
	feat := textproc.NewFeaturizer(cfg.FeatureDim)
	feat.Workers = cfg.Parallelism
	if err := feat.Fit(dataset.FeatureCorpus(d.Train)); err != nil {
		return nil, fmt.Errorf("core: fitting featurizer: %w", err)
	}
	trainIx := lf.NewIndex(d.Train)
	validIx := lf.NewIndex(d.Valid)

	var sel prompt.ExampleSelector
	var err error
	if cfg.usesKATE() {
		sel, err = prompt.NewKATEWithOptions(d, feat, prompt.KATEOptions{
			ANNThreshold:        cfg.ANNThreshold,
			CandidateMultiplier: cfg.ANNMultiplier,
			Seed:                cfg.Seed + 31,
			Workers:             cfg.Parallelism,
			Metrics:             reg,
		})
	} else {
		sel, err = prompt.NewClassBalanced(d, cfg.Shots, cfg.Seed+7)
	}
	if err != nil {
		return nil, err
	}

	l := &loop{
		d: d, cfg: cfg, smp: smp, sel: sel,
		chain: lf.NewFilterChainIndexed(d, cfg.Filters, trainIx, validIx),
		state: &sampler.State{
			Dataset:    d,
			Used:       make([]bool, len(d.Train)),
			TrainIndex: trainIx,
			ValidIndex: validIx,
			Workers:    cfg.Parallelism,
			Metrics:    reg,
		},
		ev: &evaluator{
			d: d, feat: feat, trainIx: trainIx, validIx: validIx, cfg: cfg,
			workers: cfg.Parallelism, em: newEvalMetrics(reg), metrics: reg,
		},
		style: prompt.Base,
		reg:   reg,
		pm:    newPipelineMetrics(reg),
	}
	if cfg.usesCoT() {
		l.style = prompt.CoT
	}
	if cfg.Sampler == "coreset" {
		l.state.TrainVecs = l.ev.trainVectors()
	}
	return l, nil
}

// close releases the evaluator's vote matrix.
func (l *loop) close() { l.ev.close() }

// iterate runs query iteration it: sample a query with rng, render its
// prompt, ask model, parse the answer and offer the proposed keywords
// to the filter chain — then, for the model-driven samplers, refresh
// the interim posteriors they score with. The obs bundle and parent
// span on ctx receive an `iteration` span with select / prompt / parse
// / filter (and interim) children, the pipeline_* metrics and the
// loop's logs.
//
// The step records what happened, without usage (the driver reads its
// meter). The error is non-nil when the iteration was abandoned: with
// step.Failed set the LLM call failed after retries and the loop can go
// on (the driver's failure policy decides); otherwise ctx was canceled.
func (l *loop) iterate(ctx context.Context, it int, rng *rand.Rand, model llm.ChatModel) (ProposalStep, error) {
	st := ProposalStep{Iter: it, QueryID: -1}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	o := obs.FromContext(ctx)
	if o.Metrics != l.reg {
		l.reg, l.pm = o.Metrics, newPipelineMetrics(o.Metrics)
	}
	itSpan := o.StartSpan(ctx, "iteration")
	itSpan.SetInt("iteration", int64(it))

	selSpan := itSpan.Child("select")
	id := l.smp.Next(l.state, rng)
	if id < 0 {
		selSpan.End()
		itSpan.SetStr("stop", "pool exhausted")
		itSpan.End()
		st.Exhausted = true
		return st, nil
	}
	l.state.Used[id] = true
	st.QueryID = id
	msgs := l.render(l.d.Train[id])
	selSpan.End()
	itSpan.SetInt("query_id", int64(id))

	promptSpan := itSpan.Child("prompt")
	responses, err := l.chat(ctx, model, msgs)
	if err != nil {
		promptSpan.SetErr(err)
		promptSpan.End()
		itSpan.SetErr(err)
		itSpan.End()
		if ctx.Err() != nil {
			// a canceled run is an abort, never a degraded iteration
			return st, err
		}
		st.Failed = true
		l.failedIterations++
		l.pm.iterationFailures.Inc()
		o.Logger.LogAttrs(ctx, slog.LevelWarn, "iteration failed",
			slog.Int("iteration", it), slog.Int("query_id", id),
			slog.Int("failed_iterations", l.failedIterations),
			slog.String("error", err.Error()))
		return st, err
	}
	var promptTok, completionTok int
	for _, r := range responses {
		promptTok += r.Usage.PromptTokens
		completionTok += r.Usage.CompletionTokens
	}
	promptSpan.SetInt("prompt_tokens", int64(promptTok))
	promptSpan.SetInt("completion_tokens", int64(completionTok))
	promptSpan.End()
	itSpan.SetInt("prompt_tokens", int64(promptTok))
	itSpan.SetInt("completion_tokens", int64(completionTok))
	l.pm.iterations.Inc()

	parseSpan := itSpan.Child("parse")
	parsed, err := l.parse(responses)
	if err != nil {
		parseSpan.SetErr(err)
		parseSpan.End()
		itSpan.SetInt("candidates", 0)
		itSpan.SetInt("kept", 0)
		itSpan.End()
		st.ParseFailed = true
		l.parseFailures++
		l.pm.parseFailures.Inc()
		l.pm.lfsPerIter.Observe(0)
		if o.Logger.Enabled(ctx, slog.LevelDebug) {
			o.Logger.LogAttrs(ctx, slog.LevelDebug, "parse failure",
				slog.Int("iteration", it), slog.Int("query_id", id),
				slog.String("error", err.Error()))
		}
		return st, nil
	}
	parseSpan.End()

	filterSpan := itSpan.Child("filter")
	st.Keywords, st.Label = parsed.Keywords, parsed.Label
	st.Kept = l.offer(parsed.Keywords, parsed.Label)
	filterSpan.End()
	itSpan.SetInt("candidates", int64(len(parsed.Keywords)))
	itSpan.SetInt("kept", int64(st.Kept))
	l.pm.lfsKept.AddInt(st.Kept)
	l.pm.lfsPerIter.Observe(float64(st.Kept))

	// Refresh the interim model behind model-driven samplers. A failed
	// refresh degrades the sampler to stale (or no) scores rather than
	// aborting the run, but never silently: the span records the error,
	// the log says which iteration degraded, and
	// eval_interim_failures_total counts it.
	if l.cfg.modelDrivenSampler() && (it+1)%l.cfg.UncertainRefreshEvery == 0 {
		interimSpan := itSpan.Child("interim")
		if endProba, lmProba, err := l.ev.interimTrainProba(l.chain.Accepted(), rng); err == nil {
			l.state.TrainProba = endProba
			l.state.LabelProba = lmProba
		} else {
			interimSpan.SetErr(err)
			l.ev.em.interimFailures.Inc()
			o.Logger.LogAttrs(ctx, slog.LevelWarn, "interim refresh failed",
				slog.Int("iteration", it), slog.Int("query_id", id),
				slog.String("error", err.Error()))
		}
		interimSpan.End()
	}
	itSpan.End()
	if o.Logger.Enabled(ctx, slog.LevelDebug) {
		o.Logger.LogAttrs(ctx, slog.LevelDebug, "iteration",
			slog.Int("iteration", it), slog.Int("query_id", id),
			slog.Int("candidates", len(parsed.Keywords)), slog.Int("kept", st.Kept),
			slog.Int("prompt_tokens", promptTok), slog.Int("completion_tokens", completionTok))
	}
	return st, nil
}

// render builds the prompt for query: the style's template around the
// selector's in-context demonstrations.
func (l *loop) render(query *dataset.Example) []llm.Message {
	return prompt.Render(l.style, l.d, l.sel.Select(query, l.cfg.Shots), query)
}

// chat sends msgs for the variant's sample count and meters the answer.
func (l *loop) chat(ctx context.Context, model llm.ChatModel, msgs []llm.Message) ([]llm.Response, error) {
	responses, err := model.Chat(ctx, msgs, l.cfg.Temperature, l.cfg.samplesPerQuery())
	if err != nil {
		return nil, err
	}
	l.meter.Record(responses)
	return responses, nil
}

// parse reads the proposal out of an answer: a single completion
// directly, several by self-consistency vote.
func (l *loop) parse(responses []llm.Response) (*prompt.Parsed, error) {
	if l.cfg.samplesPerQuery() == 1 {
		return prompt.ParseResponse(responses[0].Content)
	}
	contents := make([]string, len(responses))
	for i, r := range responses {
		contents[i] = r.Content
	}
	return prompt.SelfConsistency(contents)
}

// offer hands a proposal's keywords to the filter chain in order and
// returns how many it accepted.
func (l *loop) offer(keywords []string, label int) (kept int) {
	for _, kw := range keywords {
		if f, _ := l.chain.Offer(kw, label); f != nil {
			kept++
		}
	}
	return kept
}
