package growth

import (
	"context"
	"path/filepath"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

// TestGrowthStepSpans checks that a growth cycle's proposer steps run
// through the query-loop kernel's telemetry: every live step's
// growth.step span carries one iteration span with the stage spans
// underneath, the iteration token attrs sum to the candidate's usage,
// and the pipeline_* counters land in the daemon's registry. Some LLM
// calls fail (seeded timeouts, no retry), so degraded steps are covered.
func TestGrowthStepSpans(t *testing.T) {
	_, d, path := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewMemoryTracer()
	metrics := obs.NewRegistry()
	stateDir := t.TempDir()
	dmn, err := New(Config{
		Tenant: "t", Registry: newTestRegistry(t, registry.Options{}, path),
		Base: d, Parent: parent, Pipeline: growthPipeline(), StateDir: stateDir,
		Budget: 8, MinCorpus: 8,
		Obs: obs.New(tracer, metrics, nil),
		WrapModel: func(cycle, iter int, m llm.ChatModel) llm.ChatModel {
			return llm.NewFaultInjector(m, llm.FaultRates{Timeout: 0.3}, 31+int64(iter))
		},
		now: func() int64 { return 1_754_200_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	dmn.Capture("t", corpusTexts(d, 24))
	rec, err := dmn.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.NewLFs == 0 {
		t.Fatalf("cycle record %+v, want one with new LFs", rec)
	}
	cand, err := bundle.Load(filepath.Join(stateDir, "candidate-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	usage := cand.Provenance

	cycles := tracer.Named("growth.cycle")
	if len(cycles) != 1 {
		t.Fatalf("growth.cycle spans = %d, want 1", len(cycles))
	}
	steps := map[string]bool{}
	for _, s := range tracer.Named("growth.step") {
		if s.Parent != cycles[0].Span {
			t.Fatalf("growth.step %s parented to %q, want the cycle span", s.Span, s.Parent)
		}
		steps[s.Span] = true
	}
	if len(steps) != rec.Steps {
		t.Fatalf("growth.step spans = %d, want %d", len(steps), rec.Steps)
	}

	children := map[string]map[string]int{} // iteration span -> stage -> count
	for _, s := range tracer.Spans() {
		switch s.Name {
		case "select", "prompt", "parse", "filter":
			if children[s.Parent] == nil {
				children[s.Parent] = map[string]int{}
			}
			children[s.Parent][s.Name]++
		}
	}
	var returned, failed int
	var promptTok, completionTok int64
	perStep := map[string]int{}
	for _, it := range tracer.Named("iteration") {
		if !steps[it.Parent] {
			t.Fatalf("iteration span %s parented to %q, not a growth.step", it.Span, it.Parent)
		}
		perStep[it.Parent]++
		stages := children[it.Span]
		if stages["select"] != 1 {
			t.Errorf("iteration %s has %d select spans, want 1", it.Span, stages["select"])
		}
		if _, ok := it.Int("query_id"); !ok {
			continue // the pool-exhausted sentinel stops after select
		}
		if stages["prompt"] != 1 {
			t.Errorf("iteration %s has %d prompt spans, want 1", it.Span, stages["prompt"])
		}
		if it.Error != "" {
			failed++
			continue
		}
		returned++
		if stages["parse"] != 1 {
			t.Errorf("iteration %s has %d parse spans, want 1", it.Span, stages["parse"])
		}
		p, _ := it.Int("prompt_tokens")
		c, _ := it.Int("completion_tokens")
		promptTok += p
		completionTok += c
	}
	for span, n := range perStep {
		if n != 1 {
			t.Errorf("growth.step %s has %d iteration spans, want 1", span, n)
		}
	}
	if len(perStep) != rec.Steps {
		t.Errorf("steps with an iteration span = %d, want %d", len(perStep), rec.Steps)
	}
	if failed == 0 || returned == 0 {
		t.Fatalf("fixture ran %d failed and %d answered steps, want both", failed, returned)
	}
	if promptTok != int64(usage.PromptTokens) || completionTok != int64(usage.CompletionTokens) {
		t.Errorf("iteration token attrs sum to %d/%d, candidate usage %d/%d",
			promptTok, completionTok, usage.PromptTokens, usage.CompletionTokens)
	}
	if got := metrics.CounterValue("pipeline_iterations_total"); got != float64(returned) || returned != usage.Calls {
		t.Errorf("pipeline_iterations_total = %v, answered steps %d, candidate calls %d", got, returned, usage.Calls)
	}
	if got := metrics.CounterValue("pipeline_iteration_failures_total"); got != float64(failed) {
		t.Errorf("pipeline_iteration_failures_total = %v, want %d", got, failed)
	}
}
