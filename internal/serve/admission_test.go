package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

func gaugeValue(reg *obs.Registry, name string) float64 {
	switch v := reg.Snapshot()[name].(type) {
	case float64:
		return v
	case map[string]any: // gauge vector: sum the tenant series
		var sum float64
		for _, sv := range v {
			f, _ := sv.(float64)
			sum += f
		}
		return sum
	}
	return 0
}

func waitCounter(t *testing.T, read func() float64, want float64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if read() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: got %v, want %v", what, read(), want)
}

// TestServeLoadShed is the admission-control contract, run under -race
// by `make race`: with the batch loop held still, the queue admits
// exactly QueueDepth texts, every request beyond that is shed with
// ErrOverloaded and counted in serve_shed_total, the queue-depth gauge
// never exceeds the bound, and all admitted requests are answered once
// the loop resumes.
func TestServeLoadShed(t *testing.T) {
	const depth = 4
	s, reg, d := newServer(t, serve.Options{MaxBatch: 1, QueueDepth: depth})

	held, release := holdLoop(s)

	var wg sync.WaitGroup
	errs := make(chan error, depth+1)
	label := func() {
		defer wg.Done()
		_, err := s.Label(context.Background(), []string{d.Valid[0].Text}, false)
		errs <- err
	}

	// First request seeds a batch and parks the loop inside the hook.
	wg.Add(1)
	go label()
	<-held

	// Fill the queue to exactly its bound.
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go label()
	}
	waitCounter(t, func() float64 { return gaugeValue(reg, "serve_queue_depth") },
		depth, "serve_queue_depth while loop held")

	// Admission control: one more single and one batch both shed
	// immediately instead of queueing or blocking.
	if _, err := s.Label(context.Background(), []string{"overflow"}, false); err != serve.ErrOverloaded {
		t.Fatalf("single over bound: err = %v, want ErrOverloaded", err)
	}
	if _, err := s.Label(context.Background(), []string{"a", "b", "c"}, false); err != serve.ErrOverloaded {
		t.Fatalf("batch over bound: err = %v, want ErrOverloaded", err)
	}
	if got := gaugeValue(reg, "serve_queue_depth"); got > depth {
		t.Fatalf("queue depth %v exceeded bound %d", got, depth)
	}
	if got := reg.CounterValue("serve_shed_total"); got != 2 {
		t.Fatalf("serve_shed_total = %v, want 2", got)
	}

	// Resume: every admitted request must be answered.
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if got := gaugeValue(reg, "serve_queue_depth"); got != 0 {
		t.Errorf("queue depth %v after drain", got)
	}
	if got := reg.CounterValue("serve_dropped_total"); got != 0 {
		t.Errorf("serve_dropped_total = %v, want 0", got)
	}

	// A request wider than the whole queue is admitted against an idle
	// queue — oversized offline-style batches still make progress.
	texts := make([]string, depth+2)
	for i := range texts {
		texts[i] = d.Valid[i%len(d.Valid)].Text
	}
	if _, err := s.Label(context.Background(), texts, false); err != nil {
		t.Fatalf("oversized request against idle queue: %v", err)
	}
}

// TestServeCancelledDropped: a client that disconnects before its
// micro-batch fires does not consume batch capacity — its queued texts
// are dropped (serve_dropped_total), while a live request sharing the
// batch is answered with the exact offline prediction.
func TestServeCancelledDropped(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{MaxBatch: 2})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Label(ctx, []string{texts[0]}, false); err == nil {
		t.Fatal("cancelled request returned no error")
	}

	// The live request joins (or follows) the stale item's batch and
	// must be answered bit-identically to the offline path.
	preds, err := s.Label(context.Background(), []string{texts[1]}, false)
	if err != nil {
		t.Fatal(err)
	}
	assertPrediction(t, preds[0], probas[1], labels[1], texts[1])

	waitCounter(t, func() float64 { return reg.CounterValue("serve_dropped_total") },
		1, "serve_dropped_total")
	if got := reg.CounterValue("serve_shed_total"); got != 0 {
		t.Errorf("serve_shed_total = %v, want 0", got)
	}
}
