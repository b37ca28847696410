package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Traffic mix of every serving phase.
const (
	batchFrac   = 0.25 // share of requests that carry a batch
	batchSize   = 8    // texts per batch request
	explainFrac = 0.10 // share of requests that ask for explain
	// latencyLimit is the per-request limit a ladder rung is judged by.
	latencyLimit = 25 * time.Millisecond
)

// request is one scheduled label request. The body is encoded when the
// schedule is built, so the timed phase spends no client CPU on JSON.
type request struct {
	Due     time.Duration // offset from the phase start
	Tenant  string
	Texts   []string
	Explain bool
	Body    []byte
}

// outcome is what the generator saw for one request.
type outcome struct {
	Status  int
	Err     error
	Body    []byte
	Latency time.Duration // from due time to the last response byte
	Late    time.Duration // from due time to the send
	RTT     time.Duration // from the send to the last response byte
}

// ok reports whether the request was answered with 200.
func (o outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

// corpus is one tenant's pool of request texts.
type corpus struct {
	Tenant string
	Texts  []string
}

// schedule draws n requests with Poisson arrivals at rate req/s. Each
// request goes to a uniformly drawn tenant and carries one text, or a
// batch of batchSize texts, drawn from that tenant's pool. The same rng
// state always yields the same schedule.
func schedule(rng *rand.Rand, n int, rate float64, pools []corpus) ([]request, error) {
	out := make([]request, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		p := pools[rng.Intn(len(pools))]
		k := 1
		if rng.Float64() < batchFrac {
			k = batchSize
		}
		texts := make([]string, k)
		for j := range texts {
			texts[j] = p.Texts[rng.Intn(len(p.Texts))]
		}
		explain := rng.Float64() < explainFrac
		var body any
		if k == 1 {
			body = struct {
				Text    string `json:"text"`
				Explain bool   `json:"explain,omitempty"`
			}{texts[0], explain}
		} else {
			body = struct {
				Texts   []string `json:"texts"`
				Explain bool     `json:"explain,omitempty"`
			}{texts, explain}
		}
		enc, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("encoding request: %w", err)
		}
		out[i] = request{
			Due:     time.Duration(t * float64(time.Second)),
			Tenant:  p.Tenant,
			Texts:   texts,
			Explain: explain,
			Body:    enc,
		}
	}
	return out, nil
}

// generator sends scheduled requests open-loop from one process over
// at most nproc connections, one sender goroutine per connection.
type generator struct {
	base    string // http://127.0.0.1:<port>
	clients []*http.Client
}

func newGenerator(base string) *generator {
	g := &generator{base: base}
	for i := 0; i < runtime.NumCPU(); i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the generator's idle connections.
func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends reqs on their schedule and returns one outcome per request.
// Senders take requests in due order; a sender that falls behind sends
// at once, and the request's latency still counts from its due time.
// When ctx ends, unsent requests are marked failed and run returns.
func (g *generator) run(ctx context.Context, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := start.Add(r.Due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
				}
				if err := ctx.Err(); err != nil {
					out[i] = outcome{Err: err}
					continue
				}
				out[i] = g.send(ctx, c, r, due)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// send posts one request and reads the whole response.
func (g *generator) send(ctx context.Context, c *http.Client, r request, due time.Time) outcome {
	sent := time.Now()
	o := outcome{Late: sent.Sub(due)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		g.base+"/v1/tenants/"+r.Tenant+"/label", bytes.NewReader(r.Body))
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err == nil {
		o.Status = resp.StatusCode
		o.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	o.Err = err
	o.Latency = done.Sub(due)
	o.RTT = done.Sub(sent)
	return o
}

// latencyStats summarizes one phase: successful requests' latencies
// from due time, in ms, sorted.
type latencyStats struct {
	sorted      []float64
	sent        int
	failed      int
	withinLimit int
	lateMS      []float64
}

func summarize(outs []outcome) latencyStats {
	var s latencyStats
	for _, o := range outs {
		s.sent++
		if !o.ok() {
			s.failed++
			continue
		}
		ms := float64(o.Latency) / float64(time.Millisecond)
		s.sorted = append(s.sorted, ms)
		s.lateMS = append(s.lateMS, float64(o.Late)/float64(time.Millisecond))
		if o.Latency <= latencyLimit {
			s.withinLimit++
		}
	}
	sort.Float64s(s.sorted)
	sort.Float64s(s.lateMS)
	return s
}
