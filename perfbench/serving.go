package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// refRate is the reference arrival rate (req/s) of the read phase that
// p50_ms and p99_ms come from, on every workload but serve-grow.
const refRate = 250

// A read phase is cut into windows of windowRequests consecutive
// requests — enough to leave minBeyond samples beyond each window's
// p99 — and p99_ms is the median of the windows' p99s, so that one
// stall of the shared host does not decide a run's tail. A phase has
// at least minWindows windows.
const (
	windowRequests = 1000
	minWindows     = 3
)

// windows returns how many windows fit in seconds at rate req/s.
func windows(rate, seconds float64) int {
	return max(minWindows, int(rate*seconds)/windowRequests)
}

// tenant is one served bundle and the texts its requests carry.
type tenant struct {
	name     string
	path     string
	b        *bundle.Bundle // as loaded from path; registered with the registry
	loadTime time.Duration
	run      runOut
	texts    []string // request pool: the dataset's held-out test split
}

// stack is a running serving stack: registry, gateway, and an HTTP
// server on an OS-assigned loopback port.
type stack struct {
	reg  *registry.Registry
	srv  *http.Server
	base string
	done chan error
}

// standUp registers every tenant's bundle with a fresh registry and
// serves the gateway on 127.0.0.1:0. o may be nil (telemetry off).
// capture, when set, is the registry's Capture hook.
func standUp(tenants []tenant, o *obs.Obs, capture func(string, []string)) (*stack, error) {
	reg := registry.New(o, registry.Options{
		Serve:           serve.Options{MaxBatch: 64, MaxWait: 2 * time.Millisecond},
		ShadowAgreement: shadowAgreement,
		Capture:         capture,
	})
	for _, t := range tenants {
		if err := reg.RegisterBundle(t.name, t.b); err != nil {
			reg.Close()
			return nil, fmt.Errorf("registering %s: %w", t.name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &stack{
		reg:  reg,
		srv:  &http.Server{Handler: registry.NewGateway(reg, o, registry.GatewayOptions{}).Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the HTTP server down, waits for it, and drains the
// registry.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.reg.Close()
	return err
}

// pools returns each tenant's request pool.
func pools(tenants []tenant) []corpus {
	out := make([]corpus, len(tenants))
	for i, t := range tenants {
		out[i] = corpus{Tenant: t.name, Texts: t.texts}
	}
	return out
}

// readPhase sends nWindows windows of requests at rate req/s through
// the gateway and records p50_ms over the successful requests and
// p99_ms as the median of the windows' p99s. The schedule comes from
// the workload seed and the phase's salt.
func (b *bench) readPhase(ctx context.Context, st *stack, tenants []tenant, rate float64, nWindows int, salt int64) ([]request, []outcome, error) {
	reqs, err := schedule(rand.New(rand.NewSource(b.seed*7919+salt)), nWindows*windowRequests, rate, pools(tenants))
	if err != nil {
		return nil, nil, err
	}
	gen := newGenerator(st.base)
	defer gen.close()
	_, sp := span(ctx, "bench.load.read_phase")
	outs := gen.run(ctx, reqs)
	sp.End()
	s := summarize(outs)
	if len(s.sorted) == 0 {
		return nil, nil, fmt.Errorf("no request of the read phase succeeded")
	}
	var p99s []float64
	for w := 0; w < nWindows; w++ {
		ws := summarize(outs[w*windowRequests : (w+1)*windowRequests])
		if tailPercentile(len(ws.sorted)) < 990 {
			b.fail("read window %d: %d successful requests leave fewer than %d beyond p99", w, len(ws.sorted), minBeyond)
			continue
		}
		p99s = append(p99s, percentile(ws.sorted, 990))
	}
	if len(p99s) == 0 {
		return nil, nil, fmt.Errorf("no read window has enough successful requests for p99")
	}
	b.e2e["p50_ms"] = percentile(s.sorted, 500)
	b.e2e["p99_ms"] = median(p99s)
	b.layers["load.p99_ms"] = median(p99s)
	b.layers["load.sent"] = float64(s.sent)
	b.layers["load.late_ms"] = percentile(s.lateMS, 990)
	b.note("read phase: %d requests at %g req/s over %d connections, %d failed; window p99s %.4v ms; p99 send lateness %.3f ms",
		s.sent, rate, len(gen.clients), s.failed, p99s, percentile(s.lateMS, 990))
	return reqs, outs, nil
}

// ladder raises the arrival rate from refRate by a fixed geometric step
// until a rung misses the latency limit, and records the highest rate
// that met it as load.max_rps. Each rung lasts rungSeconds.
func (b *bench) ladder(ctx context.Context, st *stack, tenants []tenant) error {
	const rungSeconds = 1.5
	gen := newGenerator(st.base)
	defer gen.close()
	var rungs []rung
	for k, rate := 0, float64(refRate); k < 10; k, rate = k+1, rate*1.25 {
		reqs, err := schedule(rand.New(rand.NewSource(b.seed*7919+int64(100+k))), int(rate*rungSeconds), rate, pools(tenants))
		if err != nil {
			return err
		}
		s := summarize(gen.run(ctx, reqs))
		rungs = append(rungs, rung{Rate: rate, Sent: s.sent, OK: s.withinLimit})
		if !rungs[len(rungs)-1].passes() {
			break
		}
	}
	b.layers["load.max_rps"] = maxRPS(rungs)
	b.note("ladder: %+v", rungs)
	return nil
}

// labelResponse is the part of the gateway's answer the checks read.
type labelResponse struct {
	Prediction  *struct{ Proba []float64 }  `json:"prediction"`
	Predictions []struct{ Proba []float64 } `json:"predictions"`
}

// verify counts every request as an operation: it fails when the
// gateway did not answer 200, or when a served proba differs in any bit
// from the direct Featurizer.TransformAll + EndModel.PredictProbaAll of
// a bundle the tenant served during the phase (gens lists them; a
// tenant absent from gens serves only its registered bundle).
func (b *bench) verify(tenants []tenant, reqs []request, outs []outcome, gens map[string][]*bundle.Bundle) {
	asked := map[string][]string{}
	for _, r := range reqs {
		asked[r.Tenant] = append(asked[r.Tenant], r.Texts...)
	}
	direct := map[string][]map[string][]float64{}
	for _, t := range tenants {
		bs := gens[t.name]
		if len(bs) == 0 {
			bs = []*bundle.Bundle{t.b}
		}
		for _, nb := range bs {
			direct[t.name] = append(direct[t.name], directProba(nb, asked[t.name]))
		}
	}
	for i, o := range outs {
		r := reqs[i]
		if !o.ok() {
			b.op(false, "request %d to %s: status %d, %v", i, r.Tenant, o.Status, o.Err)
			continue
		}
		var resp labelResponse
		if err := json.Unmarshal(o.Body, &resp); err != nil {
			b.op(false, "request %d to %s: decoding response: %v", i, r.Tenant, err)
			continue
		}
		got := make([][]float64, 0, len(r.Texts))
		if resp.Prediction != nil {
			got = append(got, resp.Prediction.Proba)
		}
		for _, p := range resp.Predictions {
			got = append(got, p.Proba)
		}
		b.op(len(got) == len(r.Texts) && matchesAny(direct[r.Tenant], r.Texts, got),
			"request %d to %s: served proba differs from the bundle's direct prediction", i, r.Tenant)
	}
}

// matchesAny reports whether every served row equals, bit for bit, the
// direct prediction of one bundle generation for its text.
func matchesAny(gens []map[string][]float64, texts []string, got [][]float64) bool {
	for i, text := range texts {
		found := false
		for _, g := range gens {
			if sameBits(g[text], got[i]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// directProba predicts every distinct text of texts with the bundle's
// featurizer and end model, as the coalescer builds served examples.
func directProba(nb *bundle.Bundle, texts []string) map[string][]float64 {
	uniq := make([]string, 0, len(texts))
	seen := map[string]bool{}
	for _, t := range texts {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	P := nb.EndModel.PredictProbaAll(nb.Featurizer.TransformAll(featureCorpus(uniq)))
	out := make(map[string][]float64, len(uniq))
	for i, t := range uniq {
		out[t] = P[i]
	}
	return out
}

// featureCorpus tokenizes texts the way the coalescer does for a served
// request.
func featureCorpus(texts []string) [][]string {
	corpus := make([][]string, len(texts))
	for i, t := range texts {
		e := &dataset.Example{ID: -1, Text: t, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
		corpus[i] = e.FeatureTokens()
	}
	return corpus
}
