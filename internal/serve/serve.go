// Package serve turns a model bundle into an online labeling service.
//
// The core is a dispatch-on-drain coalescer: every request becomes one
// queue item (split at the batch cap), and a single batch loop takes what
// is queued and dispatches it at once, with no timer, through the same
// parallel TransformAll/PredictProbaAll hot path the offline evaluator
// uses. Because featurization and prediction are per-example independent
// with fixed-order reductions, batch composition cannot influence any
// result: a text served alone, inside a mixed batch, or by the offline
// Evaluate path produces bit-identical probabilities and labels (enforced
// by the differential and race tests in this package).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/dataset"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/metrics"
	"datasculpt/internal/obs"
)

// ErrClosed is returned by Label once Close has begun.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned by Label when admitting the request would
// push the coalescer queue past Options.QueueDepth. The caller should
// shed the request (HTTP 429) rather than retry immediately.
var ErrOverloaded = errors.New("serve: coalescer queue full")

// Options tunes the coalescer.
type Options struct {
	// MaxBatch caps how many texts one batch carries (default 64).
	MaxBatch int
	// Deprecated: MaxWait is ignored. Batches dispatch as soon as the
	// queue drains, so no request waits for company.
	MaxWait time.Duration
	// Workers bounds the goroutines featurization and prediction fan out
	// over per batch (<= 1 sequential; output is identical either way).
	Workers int
	// QueueDepth bounds how many texts may wait in the coalescer queue
	// (default 16*MaxBatch). Label sheds with ErrOverloaded instead of
	// queueing beyond it. A single request larger than the whole queue
	// is admitted only when the queue is idle, so oversized offline-style
	// batches still make progress without unbounding memory.
	QueueDepth int
	// Tenant labels every serve_* metric this server emits (default
	// "default"). One Server serves one bundle for one tenant, so the
	// per-tenant metric handles are resolved once at construction and
	// the hot path touches only scalar counters.
	Tenant string
	// Capture, when set, observes every admitted request's texts — the
	// feed for the online growth loop's reservoir. It runs on the
	// caller's goroutine before the texts enter the queue, so it must be
	// cheap and must not retain the slice past the call.
	Capture func(texts []string)
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16 * o.MaxBatch
	}
	if o.Tenant == "" {
		o.Tenant = "default"
	}
	return o
}

// Request outcome codes, the `code` label of serve_requests_total.
const (
	codeOK       = "ok"
	codeShed     = "shed"
	codeClosed   = "closed"
	codeCanceled = "canceled"
)

// LFVote is one active label function in an explained prediction.
type LFVote struct {
	// Name identifies the LF; Vote is the class it voted.
	Name string `json:"name"`
	Vote int    `json:"vote"`
}

// Prediction is the served result for one text.
type Prediction struct {
	// Label is the end-model argmax class index; Class its name.
	Label int    `json:"label"`
	Class string `json:"class"`
	// Proba is the end-model class distribution.
	Proba []float64 `json:"proba"`
	// LFs lists the label functions that fired (explain mode only).
	LFs []LFVote `json:"lfs,omitempty"`
	// LabelModelProba is the label-model posterior over classes, present
	// in explain mode when the bundle carries a label model and at least
	// one LF fired.
	LabelModelProba []float64 `json:"label_model_proba,omitempty"`
}

// request is one Label call in flight: its examples, its result slots,
// and the countdown of queue items that fires done when the last one is
// settled. ctx is the caller's context: once it is cancelled the batch
// loop drops the request's remaining queue items instead of featurizing
// them, so a client that disconnected does not consume batch capacity.
type request struct {
	ctx       context.Context
	examples  []*dataset.Example
	preds     []Prediction
	explain   bool
	dropped   bool      // set by the batch loop before done closes
	queued    time.Time // when the request entered the queue
	remaining atomic.Int32
	done      chan struct{}
}

// batchItem is one queue item: the texts [lo, hi) of one request, at
// most MaxBatch of them.
type batchItem struct {
	req    *request
	lo, hi int
}

// Server coalesces label requests into batches over a loaded bundle.
type Server struct {
	b         *bundle.Bundle
	predictor *labelmodel.Predictor // nil when the bundle has no label model
	opts      Options
	o         *obs.Obs

	queue     chan batchItem
	depth     atomic.Int64 // texts admitted but not yet dispatched
	mu        sync.Mutex
	closed    bool
	producers sync.WaitGroup
	loop      sync.WaitGroup

	// beforeBatch, when non-nil, runs at the head of every process()
	// call. Test hook: lets tests hold the batch loop still while they
	// fill the queue deterministically.
	beforeBatch func()

	// Per-outcome request counters and the rest of the tenant's series,
	// curried once in New so the hot path sees plain scalar handles.
	mReqOK       *obs.Counter
	mReqShed     *obs.Counter
	mReqClosed   *obs.Counter
	mReqCanceled *obs.Counter
	mErrClosed   *obs.Counter
	mErrCanceled *obs.Counter
	mTexts       *obs.Counter
	mBatches     *obs.Counter
	mShed        *obs.Counter
	mDropped     *obs.Counter
	mInflight    *obs.Gauge
	mQueue       *obs.Gauge
	mBatchSz     *obs.Histogram
	mLatency     *obs.Histogram
	mQueueWait   *obs.Histogram
}

// New wires a server around a validated bundle. The obs bundle may be
// nil (telemetry disabled). The server owns the bundle's worker
// configuration from here on.
func New(b *bundle.Bundle, o *obs.Obs, opts Options) (*Server, error) {
	if b == nil {
		return nil, errors.New("serve: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if o == nil {
		o = obs.Default()
	}
	opts = opts.withDefaults()
	b.Featurizer.Workers = opts.Workers
	b.EndModel.SetParallelism(opts.Workers)

	s := &Server{
		b:     b,
		opts:  opts,
		o:     o,
		queue: make(chan batchItem, opts.QueueDepth), // >= admitted items: each holds >= 1 text
	}
	if b.LabelModel != nil {
		s.predictor = b.LabelModel.NewPredictor()
	}
	reg := o.Metrics
	tenant := opts.Tenant
	requests := reg.CounterVec("serve_requests_total", "Label requests received, by tenant and outcome.", "tenant", "code")
	s.mReqOK = requests.With2(tenant, codeOK)
	s.mReqShed = requests.With2(tenant, codeShed)
	s.mReqClosed = requests.With2(tenant, codeClosed)
	s.mReqCanceled = requests.With2(tenant, codeCanceled)
	errs := reg.CounterVec("serve_errors_total", "Requests that failed, by tenant and cause.", "tenant", "code")
	s.mErrClosed = errs.With2(tenant, codeClosed)
	s.mErrCanceled = errs.With2(tenant, codeCanceled)
	s.mTexts = reg.CounterVec("serve_texts_total", "Texts labeled.", "tenant").With1(tenant)
	s.mBatches = reg.CounterVec("serve_batches_total", "Micro-batches dispatched.", "tenant").With1(tenant)
	s.mShed = reg.CounterVec("serve_shed_total", "Requests rejected by admission control (queue full).", "tenant").With1(tenant)
	s.mDropped = reg.CounterVec("serve_dropped_total", "Queued texts dropped because their request's context ended before the batch fired.", "tenant").With1(tenant)
	s.mInflight = reg.GaugeVec("serve_inflight", "Label requests currently in flight.", "tenant").With1(tenant)
	s.mQueue = reg.GaugeVec("serve_queue_depth", "Texts admitted to the coalescer queue and not yet dispatched.", "tenant").With1(tenant)
	s.mBatchSz = reg.HistogramVec("serve_batch_size", "Texts per dispatched micro-batch.", obs.BatchSizeBuckets, "tenant").With1(tenant)
	s.mLatency = reg.HistogramVec("serve_request_seconds", "Label request latency.", obs.DurationBuckets, "tenant").With1(tenant)
	s.mQueueWait = reg.HistogramVec("serve_queue_wait_seconds", "Time a queue item waited from enqueue to batch dispatch.", obs.ExpBuckets(1e-5, 2, 18), "tenant").With1(tenant)

	s.loop.Add(1)
	go s.batchLoop()
	return s, nil
}

// Bundle returns the served bundle (read-only; used by the HTTP layer
// for health/provenance responses).
func (s *Server) Bundle() *bundle.Bundle { return s.b }

// Label labels texts and returns one prediction per text, in order. It
// blocks until the batch loop has processed every text (or ctx is
// cancelled). When admitting the texts would push the queue past
// Options.QueueDepth it returns ErrOverloaded immediately instead of
// blocking — admission control, not backpressure. Safe for concurrent
// use.
func (s *Server) Label(ctx context.Context, texts []string, explain bool) ([]Prediction, error) {
	if len(texts) == 0 {
		return nil, errors.New("serve: empty request")
	}
	start := time.Now()
	span := s.o.StartSpan(ctx, "serve.label")
	span.SetInt("texts", int64(len(texts)))
	defer span.End()
	if err := s.admit(len(texts)); err != nil {
		s.mReqShed.Inc()
		s.mShed.Inc()
		span.SetErr(err)
		return nil, err
	}
	s.mTexts.AddInt(len(texts))
	if s.opts.Capture != nil {
		s.opts.Capture(texts)
	}
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)

	req := &request{
		ctx:      ctx,
		examples: make([]*dataset.Example, len(texts)),
		preds:    make([]Prediction, len(texts)),
		explain:  explain,
		done:     make(chan struct{}),
	}
	chunk := s.opts.MaxBatch
	req.remaining.Store(int32((len(texts) + chunk - 1) / chunk)) // queue items
	for i, text := range texts {
		// E1Pos/E2Pos must be -1: zero would mark token 0 as an entity
		// mention and slice the feature window, diverging from how the
		// offline path treats plain-text examples.
		req.examples[i] = &dataset.Example{ID: -1, Text: text, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.depth.Add(-int64(len(texts)))
		s.mQueue.Add(-float64(len(texts)))
		s.mReqClosed.Inc()
		s.mErrClosed.Inc()
		span.SetErr(ErrClosed)
		return nil, ErrClosed
	}
	s.producers.Add(1)
	s.mu.Unlock()
	req.queued = time.Now()
	for lo := 0; lo < len(texts); lo += chunk {
		s.queue <- batchItem{req: req, lo: lo, hi: min(lo+chunk, len(texts))}
	}
	s.producers.Done()

	select {
	case <-req.done:
		if !req.dropped { // else the loop saw ctx end first
			s.mReqOK.Inc()
			s.mLatency.Observe(time.Since(start).Seconds())
			return req.preds, nil
		}
	case <-ctx.Done():
	}
	s.mReqCanceled.Inc()
	s.mErrCanceled.Inc()
	span.SetErr(ctx.Err())
	return nil, fmt.Errorf("serve: %w", ctx.Err())
}

// admit reserves n queue slots, or fails with ErrOverloaded when the
// reservation would exceed QueueDepth. A request wider than the whole
// queue is admitted only against an idle queue (its channel sends then
// block until the batch loop drains them — memory stays bounded by the
// request itself).
func (s *Server) admit(n int) error {
	for {
		cur := s.depth.Load()
		if cur > 0 && cur+int64(n) > int64(s.opts.QueueDepth) {
			return ErrOverloaded
		}
		if s.depth.CompareAndSwap(cur, cur+int64(n)) {
			s.mQueue.Add(float64(n)) // Add, not Set: racing Sets go stale
			return nil
		}
	}
}

// Close stops accepting requests, waits for enqueued texts to be
// processed, and shuts the batch loop down. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.loop.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.producers.Wait() // every accepted request is fully enqueued
	close(s.queue)
	s.loop.Wait()
}

// batchLoop is the single consumer: it fills a batch behind a first item
// — the previous fill's carry, or else the next queued item, waited for —
// and processes it, until Close has closed the queue and every item in it
// is processed.
func (s *Server) batchLoop() {
	defer s.loop.Done()
	for first, ok := <-s.queue; ok; {
		var batch []batchItem
		batch, first = s.fill(first)
		s.process(batch)
		if first.req == nil {
			first, ok = <-s.queue
		}
	}
}

// fill seeds a batch with first and takes whatever is already queued,
// without blocking, up to MaxBatch texts; an item that would overflow the
// cap comes back as carry to seed the next batch.
func (s *Server) fill(first batchItem) (batch []batchItem, carry batchItem) {
	batch = append(make([]batchItem, 0, s.opts.MaxBatch), first)
	texts := first.hi - first.lo
drain:
	for texts < s.opts.MaxBatch {
		select {
		case it, ok := <-s.queue:
			if !ok {
				break drain
			}
			if texts+it.hi-it.lo > s.opts.MaxBatch {
				carry = it
				break drain
			}
			batch = append(batch, it)
			texts += it.hi - it.lo
		default:
			break drain
		}
	}
	s.depth.Add(-int64(texts))
	s.mQueue.Add(-float64(texts))
	return batch, carry
}

// process runs one batch through the offline hot path — featurize all,
// predict all — and distributes results to their requests. The label is
// the probability row's strict-greater first max, the rule
// LogisticRegression.Predict uses (softmax is monotone, so the argmax is
// identical).
func (s *Server) process(batch []batchItem) {
	if s.beforeBatch != nil {
		s.beforeBatch()
	}
	span := s.o.Tracer.StartSpan("serve.batch")
	defer span.End()

	// Deadline-aware drop: a request whose context ended (client gone,
	// deadline blown) gets its items discarded instead of featurized —
	// only its bookkeeping is settled. Skipping items cannot perturb
	// other results: the hot path is per-example independent.
	live := batch[:0]
	corpus := make([][]string, 0, s.opts.MaxBatch)
	dropped := 0
	for _, it := range batch {
		if it.req.ctx.Err() != nil {
			dropped += it.hi - it.lo
			it.req.dropped = true
			it.req.settle()
			continue
		}
		s.mQueueWait.Observe(time.Since(it.req.queued).Seconds())
		live = append(live, it)
		for _, e := range it.req.examples[it.lo:it.hi] {
			corpus = append(corpus, e.FeatureTokens())
		}
	}
	s.mBatches.Inc()
	s.mBatchSz.Observe(float64(len(corpus) + dropped))
	span.SetInt("size", int64(len(corpus)+dropped))
	if dropped > 0 {
		s.mDropped.AddInt(dropped)
		span.SetInt("dropped", int64(dropped))
	}
	if len(live) == 0 {
		return
	}

	stage := span.Child("serve.featurize")
	X := s.b.Featurizer.TransformAll(corpus)
	stage.End()
	stage = span.Child("serve.predict")
	P := s.b.EndModel.PredictProbaAll(X)
	stage.End()

	var explain obs.Span // opened by the batch's first explain item
	for _, it := range live {
		for pos := it.lo; pos < it.hi; pos, P = pos+1, P[1:] {
			best := metrics.ArgMax(P[0])
			it.req.preds[pos] = Prediction{Label: best, Class: s.b.Dataset.ClassNames[best], Proba: P[0]}
		}
		if it.req.explain {
			if explain == nil {
				explain = span.Child("serve.explain")
			}
			for pos := it.lo; pos < it.hi; pos++ {
				s.explain(&it.req.preds[pos], it.req.examples[pos])
			}
		}
		it.req.settle()
	}
	if explain != nil {
		explain.End()
	}
}

// settle marks one queue item of r answered or dropped.
func (r *request) settle() {
	if r.remaining.Add(-1) == 0 {
		close(r.done)
	}
}

// explain adds the fired LFs and, when the bundle carries a label model,
// its posterior to pred.
func (s *Server) explain(pred *Prediction, e *dataset.Example) {
	js, votes := lf.ApplyAll(s.b.LFs, e)
	pred.LFs = make([]LFVote, len(js))
	for t, j := range js {
		pred.LFs[t] = LFVote{Name: s.b.LFs[j].Name(), Vote: votes[t]}
	}
	if s.predictor != nil && len(js) > 0 {
		pred.LabelModelProba = s.predictor.Posterior(js, votes)
	}
}
