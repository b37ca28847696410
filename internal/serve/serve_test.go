package serve_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

var (
	trainOnce sync.Once
	trainedB  *bundle.Bundle
	trainedD  *dataset.Dataset
	trainErr  error
)

// trained runs the pipeline once per test binary and hands every test
// the same bundle (tests must not mutate it beyond worker knobs).
func trained(t *testing.T) (*bundle.Bundle, *dataset.Dataset) {
	t.Helper()
	trainOnce.Do(func() {
		d, err := dataset.Load("youtube", 11, 0.4)
		if err != nil {
			trainErr = err
			return
		}
		cfg := core.DefaultConfig(core.VariantBase)
		cfg.Iterations = 15
		cfg.Seed = 11
		cfg.FeatureDim = 2048
		cfg.EndModel.Epochs = 3
		res, err := core.Run(d, cfg)
		if err != nil {
			trainErr = err
			return
		}
		trainedB, trainErr = bundle.New(d, cfg, res)
		trainedD = d
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainedB, trainedD
}

func newServer(t *testing.T, opts serve.Options) (*serve.Server, *obs.Registry, *dataset.Dataset) {
	t.Helper()
	b, d := trained(t)
	reg := obs.NewRegistry()
	s, err := serve.New(b, obs.New(nil, reg, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, reg, d
}

// offlineExpected computes, per validation text, the offline-path
// prediction the server must reproduce bit for bit.
func offlineExpected(b *bundle.Bundle, d *dataset.Dataset) (texts []string, probas [][]float64, labels []int) {
	for _, e := range d.Valid {
		texts = append(texts, e.Text)
	}
	X := b.Featurizer.TransformAll(dataset.FeatureCorpus(d.Valid))
	return texts, b.EndModel.PredictProbaAll(X), b.EndModel.Predict(X)
}

func assertPrediction(t *testing.T, got serve.Prediction, wantProba []float64, wantLabel int, text string) {
	t.Helper()
	if got.Label != wantLabel {
		t.Fatalf("text %q: served label %d, offline %d", text, got.Label, wantLabel)
	}
	if len(got.Proba) != len(wantProba) {
		t.Fatalf("text %q: %d classes served, %d offline", text, len(got.Proba), len(wantProba))
	}
	for c := range wantProba {
		if math.Float64bits(got.Proba[c]) != math.Float64bits(wantProba[c]) {
			t.Fatalf("text %q class %d: served proba %v, offline %v", text, c, got.Proba[c], wantProba[c])
		}
	}
}

// TestServedMatchesOffline is the serving bit-identity contract: every
// validation text served through the coalescer — alone or in one big
// batch — gets exactly the offline Evaluate-path prediction.
func TestServedMatchesOffline(t *testing.T) {
	s, _, d := newServer(t, serve.Options{Workers: runtime.GOMAXPROCS(0)})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)

	// One big batch request.
	preds, err := s.Label(context.Background(), texts, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range texts {
		assertPrediction(t, preds[i], probas[i], labels[i], texts[i])
	}

	// Single-text requests (each may land in its own micro-batch).
	for i := 0; i < len(texts) && i < 25; i++ {
		got, err := s.Label(context.Background(), texts[i:i+1], false)
		if err != nil {
			t.Fatal(err)
		}
		assertPrediction(t, got[0], probas[i], labels[i], texts[i])
	}
}

// TestServeExplain checks explain mode: LF votes match direct
// application and the label-model posterior matches the predictor.
func TestServeExplain(t *testing.T) {
	s, _, d := newServer(t, serve.Options{})
	b, _ := trained(t)
	pred := b.LabelModel.NewPredictor()

	explained := 0
	for i, e := range d.Valid {
		if i >= 40 {
			break
		}
		got, err := s.Label(context.Background(), []string{e.Text}, true)
		if err != nil {
			t.Fatal(err)
		}
		var js, votes []int
		for j, f := range b.LFs {
			if v := f.Apply(&dataset.Example{ID: -1, Text: e.Text, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}); v != -1 {
				js = append(js, j)
				votes = append(votes, v)
			}
		}
		if len(got[0].LFs) != len(js) {
			t.Fatalf("text %d: %d LF votes served, want %d", i, len(got[0].LFs), len(js))
		}
		for tt, j := range js {
			if got[0].LFs[tt].Name != b.LFs[j].Name() || got[0].LFs[tt].Vote != votes[tt] {
				t.Fatalf("text %d vote %d: got %+v, want %s=%d", i, tt, got[0].LFs[tt], b.LFs[j].Name(), votes[tt])
			}
		}
		want := pred.Posterior(js, votes)
		if (want == nil) != (got[0].LabelModelProba == nil) {
			t.Fatalf("text %d: posterior presence mismatch", i)
		}
		if want != nil {
			explained++
			for c := range want {
				if math.Float64bits(want[c]) != math.Float64bits(got[0].LabelModelProba[c]) {
					t.Fatalf("text %d class %d: posterior %v != %v", i, c, got[0].LabelModelProba[c], want[c])
				}
			}
		}
	}
	if explained == 0 {
		t.Fatal("no covered example exercised the label-model posterior")
	}
}

// TestServeConcurrentLoad is the coalescer race test: many clients
// mixing single and batch requests, every response checked against the
// sequentially-computed expectation — no dropped, duplicated, or
// cross-wired responses. Run it under -race (make race does).
func TestServeConcurrentLoad(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{MaxBatch: 16, Workers: 4})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)

	const clients = 8
	const requests = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var served atomic64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				// Deterministic mix: every third request is a batch of 5.
				start := (c*31 + r*7) % len(texts)
				n := 1
				if r%3 == 0 {
					n = 5
				}
				req := make([]string, 0, n)
				for k := 0; k < n; k++ {
					req = append(req, texts[(start+k)%len(texts)])
				}
				preds, err := s.Label(context.Background(), req, r%5 == 0)
				if err != nil {
					errs <- err
					return
				}
				if len(preds) != n {
					t.Errorf("client %d req %d: %d predictions for %d texts", c, r, len(preds), n)
					return
				}
				for k := 0; k < n; k++ {
					i := (start + k) % len(texts)
					assertPredictionErr(t, preds[k], probas[i], labels[i], c, r, k)
				}
				served.add(int64(n))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := reg.CounterValue("serve_texts_total"); got != float64(served.load()) {
		t.Errorf("serve_texts_total = %v, served %d", got, served.load())
	}
	if reg.CounterValue("serve_batches_total") == 0 {
		t.Error("no batches dispatched")
	}
	if reg.CounterValue("serve_errors_total") != 0 {
		t.Errorf("serve_errors_total = %v", reg.CounterValue("serve_errors_total"))
	}
}

// assertPredictionErr is assertPrediction with t.Errorf (goroutine-safe
// reporting; t.Fatalf must not be called off the test goroutine).
func assertPredictionErr(t *testing.T, got serve.Prediction, wantProba []float64, wantLabel int, c, r, k int) {
	if got.Label != wantLabel {
		t.Errorf("client %d req %d slot %d: label %d != %d", c, r, k, got.Label, wantLabel)
		return
	}
	for ci := range wantProba {
		if math.Float64bits(got.Proba[ci]) != math.Float64bits(wantProba[ci]) {
			t.Errorf("client %d req %d slot %d class %d: proba %v != %v", c, r, k, ci, got.Proba[ci], wantProba[ci])
			return
		}
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// holdLoop parks the batch loop inside its first batch: held closes once
// the loop is parked, and the loop resumes when release is closed.
func holdLoop(s *serve.Server) (held, release chan struct{}) {
	held, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.SetBeforeBatch(func() {
		once.Do(func() {
			close(held)
			<-release
		})
	})
	return held, release
}

// TestServeBatching pins dispatch-on-drain coalescing without timing:
// with the batch loop parked, n concurrent singles queue up, and once the
// loop resumes they dispatch together as one batch of n.
func TestServeBatching(t *testing.T) {
	const n = 24
	s, reg, d := newServer(t, serve.Options{MaxBatch: 32})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)
	held, release := holdLoop(s)

	var wg sync.WaitGroup
	label := func(i int) {
		defer wg.Done()
		got, err := s.Label(context.Background(), texts[i:i+1], false)
		if err != nil {
			t.Error(err)
			return
		}
		assertPredictionErr(t, got[0], probas[i], labels[i], 0, i, 0)
	}
	wg.Add(1)
	go label(0) // parks the loop in its first batch
	<-held
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go label(i)
	}
	waitCounter(t, func() float64 { return float64(s.QueuedItems()) }, n, "queued requests")
	close(release)
	wg.Wait()

	if got := reg.CounterValue("serve_batches_total"); got != 2 {
		t.Errorf("%v batches for 1 + %d queued singles, want 2 (the held one, then one of %d)", got, n, n)
	}
}

// TestServeLoneRequestNotDelayed: a lone request dispatches as soon as
// it is queued — the deprecated MaxWait no longer holds batches open.
func TestServeLoneRequestNotDelayed(t *testing.T) {
	s, _, d := newServer(t, serve.Options{MaxWait: time.Minute})
	start := time.Now()
	if _, err := s.Label(context.Background(), []string{d.Valid[0].Text}, false); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("lone request took %v with MaxWait 1m; the coalescer waited for company", el)
	}
}

// TestServeOversizedRequest: a request of 3*MaxBatch+1 texts is split
// into MaxBatch-sized queue items across four dispatches and still gets
// every answer, in order, bit-identical to the offline path.
func TestServeOversizedRequest(t *testing.T) {
	const maxBatch = 8
	s, reg, d := newServer(t, serve.Options{MaxBatch: maxBatch})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)
	n := 3*maxBatch + 1
	if len(texts) < n {
		t.Fatalf("validation split has %d texts, need %d", len(texts), n)
	}
	preds, err := s.Label(context.Background(), texts[:n], false)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != n {
		t.Fatalf("%d predictions for %d texts", len(preds), n)
	}
	for i := range preds {
		assertPrediction(t, preds[i], probas[i], labels[i], texts[i])
	}
	if got := reg.CounterValue("serve_batches_total"); got != 4 {
		t.Errorf("serve_batches_total = %v, want 4 batches of at most %d texts", got, maxBatch)
	}
	wait := reg.HistogramVec("serve_queue_wait_seconds", "", nil, "tenant").With1("default").Snapshot()
	if wait.Count != 4 {
		t.Errorf("serve_queue_wait_seconds count = %d, want one observation per queue item (4)", wait.Count)
	}
}

// TestServeBatchStageSpans: every dispatched batch carries featurize and
// predict child spans, and an explain child span only when one of its
// requests asks for explanations.
func TestServeBatchStageSpans(t *testing.T) {
	b, d := trained(t)
	mem := obs.NewMemoryTracer()
	s, err := serve.New(b, obs.New(mem, obs.NewRegistry(), nil), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, explain := range []bool{false, true} {
		if _, err := s.Label(context.Background(), []string{d.Valid[0].Text}, explain); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	batches := mem.Named("serve.batch")
	if len(batches) != 2 {
		t.Fatalf("%d serve.batch spans, want 2", len(batches))
	}
	children := map[string][]string{}
	for _, sp := range mem.Spans() {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp.Name)
		}
	}
	for i, want := range []string{"serve.featurize serve.predict", "serve.featurize serve.predict serve.explain"} {
		if got := strings.Join(children[batches[i].Span], " "); got != want {
			t.Errorf("batch %d children = %q, want %q", i, got, want)
		}
	}
}

// TestServeCloseDrainsQueue: requests queued behind a parked loop
// dispatch in arrival order, never past MaxBatch texts — the item that
// would overflow a batch seeds the next one — and Close answers every
// one of them before it returns.
func TestServeCloseDrainsQueue(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{MaxBatch: 4})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)
	held, release := holdLoop(s)

	var wg sync.WaitGroup
	label := func(lo, hi int) {
		defer wg.Done()
		preds, err := s.Label(context.Background(), texts[lo:hi], false)
		if err != nil {
			t.Error(err)
			return
		}
		for k, p := range preds {
			assertPredictionErr(t, p, probas[lo+k], labels[lo+k], 0, lo, k)
		}
	}
	wg.Add(1)
	go label(0, 1)
	<-held
	// Queued one at a time, so the loop sees them in this order and
	// must batch them as [1 3] [2] [4] [1].
	lo := 1
	for i, n := range []int{1, 3, 2, 4, 1} {
		wg.Add(1)
		go label(lo, lo+n)
		lo += n
		waitCounter(t, func() float64 { return float64(s.QueuedItems()) }, float64(i+1), "queued requests")
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	close(release)
	wg.Wait()
	<-closed
	if got := reg.CounterValue("serve_batches_total"); got != 5 {
		t.Errorf("serve_batches_total = %v, want 5 (the held batch, then [1 3] [2] [4] [1])", got)
	}
}

func TestServeClose(t *testing.T) {
	b, _ := trained(t)
	s, err := serve.New(b, nil, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(context.Background(), []string{"hello"}, false); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Label(context.Background(), []string{"hello"}, false); err != serve.ErrClosed {
		t.Errorf("Label after Close: %v, want ErrClosed", err)
	}
}

func TestServeEmptyAndCancelled(t *testing.T) {
	s, _, _ := newServer(t, serve.Options{})
	if _, err := s.Label(context.Background(), nil, false); err == nil {
		t.Error("empty request accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Label(ctx, []string{"hello"}, false); err == nil {
		t.Error("cancelled request returned no error")
	}
}
