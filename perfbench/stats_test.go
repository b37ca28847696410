package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"datasculpt/internal/obs"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900},
		{999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{500, 500}, {900, 900}, {990, 990}, {999, 999}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", float64(c.p)/10, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 990); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestMaxRPSStopsAtFirstMiss(t *testing.T) {
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"first rung misses", []rung{{250, 100, 98}, {312.5, 100, 100}}, 0},
		{"99% is enough", []rung{{250, 100, 100}, {312.5, 100, 99}, {390.625, 100, 98}}, 312.5},
		{"a pass after a miss is ignored", []rung{{250, 100, 100}, {312.5, 100, 50}, {390.625, 100, 100}}, 250},
		{"every rung passes", []rung{{250, 10, 10}, {312.5, 10, 10}}, 312.5},
		{"a rung that sent nothing misses", []rung{{250, 0, 0}}, 0},
		{"no rungs", nil, 0},
	} {
		if got := maxRPS(c.rungs); got != c.want {
			t.Errorf("%s: maxRPS = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanData{
		{Span: "root", Start: at(0), End: at(100)},
		// Overlapping children are covered once: 10..50.
		{Span: "a", Parent: "root", Start: at(10), End: at(30)},
		{Span: "b", Parent: "root", Start: at(20), End: at(50)},
		// A child running past its parent is clipped: 90..100.
		{Span: "c", Parent: "root", Start: at(90), End: at(120)},
		// A grandchild counts against its own parent only.
		{Span: "a1", Parent: "a", Start: at(12), End: at(18)},
		{Span: "leaf", Start: at(0), End: at(7)},
	}
	want := map[string]float64{"root": 50, "a": 14, "b": 30, "c": 30, "a1": 6, "leaf": 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	pools := []corpus{
		{Tenant: "a", Texts: []string{"one", "two", "three"}},
		{Tenant: "b", Texts: []string{"four", "five"}},
	}
	draw := func(seed int64) []request {
		reqs, err := schedule(rand.New(rand.NewSource(seed)), 4000, 250, pools)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	a, b := draw(1), draw(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, draw(2)) {
		t.Fatal("different seeds gave the same schedule")
	}
	batches := 0
	for i, r := range a {
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if len(r.Texts) == batchSize {
			batches++
		} else if len(r.Texts) != 1 {
			t.Fatalf("request %d carries %d texts", i, len(r.Texts))
		}
		if !bytes.Contains(r.Body, []byte(`"text`)) {
			t.Fatalf("request %d body %s carries no text", i, r.Body)
		}
	}
	// 4000 Poisson arrivals at 250/s span about 16s.
	if span := a[len(a)-1].Due.Seconds(); span < 15 || span > 17 {
		t.Errorf("4000 arrivals at 250/s span %.2fs", span)
	}
	if frac := float64(batches) / float64(len(a)); frac < 0.22 || frac > 0.28 {
		t.Errorf("batch share %.3f, want about %.2f", frac, batchFrac)
	}
}
