package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
)

// TestQueryLoopPinned pins the observable output of the query loop —
// accepted LF names in order, parse and iteration failures, token
// totals and the end metric's bits — for every RunContext policy, plus
// the journal records of the proposer's derived-seed loop. The digests
// were recorded before the pipeline and the proposer shared one
// select → prompt → parse → filter kernel; any drift in rng draws,
// prompt rendering, parse dispatch or filter order shows up here.
func TestQueryLoopPinned(t *testing.T) {
	runs := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"base", nil,
			"4a8903ebd812ae0e64137a01506f4332f15505a1bbb9f9bcd41882c9dc1c412c"},
		{"cot", func(c *Config) { c.Variant = VariantCoT },
			"79a9fb4381587164420f6e09edf0cf4b2e94c8223d6ff13e9a4797bede6ce59e"},
		{"kate", func(c *Config) { c.Variant = VariantKATE },
			"1ca6c0851f2a76918f5ebe76a41086e6df97e2c34a2cb97cddce2335d0a05bfa"},
		{"sc", func(c *Config) { c.Variant = VariantSC },
			"5eb780ad7e18679f1b9d221b558231d05756c8a7bfb82bb7501ef5d21be995a6"},
		{"revise", func(c *Config) { c.ReviseRejected = true },
			"af00d0429926b17bd44b855c1e67306e011aea3ca53bc514f45ab1163e2f1483"},
		{"uncertain", func(c *Config) { c.Sampler = "uncertain" },
			"537718aa6e3b276668089c80f29331c2c510f483cf1976a390ab18f1c1e962ef"},
		{"faults", func(c *Config) {
			c.MaxFailedIterations = UnlimitedFailures
			c.WrapModel = func(m llm.ChatModel) llm.ChatModel {
				return llm.NewFaultInjector(m, llm.FaultRates{Timeout: 0.15, Truncate: 0.1, Garbage: 0.1}, 29)
			}
		}, "6b76ba4d88c7f92cf1c4d06e9578869a81e3c376bff38ce0bde77e08a802224b"},
	}
	d, err := dataset.Load("youtube", 11, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(VariantBase)
			cfg.Iterations = 20
			cfg.Seed = 11
			cfg.FeatureDim = 2048
			cfg.EndModel.Epochs = 3
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, f := range res.LFs {
				fmt.Fprintf(h, "%s\n", f.Name())
			}
			fmt.Fprintf(h, "parse=%d failed=%d prompt=%d completion=%d calls=%d metric=%x\n",
				res.ParseFailures, res.FailedIterations, res.PromptTokens, res.CompletionTokens,
				res.Calls, math.Float64bits(res.EndMetric))
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest = %s, want %s (lfs=%d parse=%d failed=%d tokens=%d)",
					got, tc.want, res.NumLFs, res.ParseFailures, res.FailedIterations, res.TotalTokens())
			}
		})
	}

	steps := []struct {
		sampler, want string
	}{
		{"random", "114008f75a98e9bbe1e440a961794ca2fca25d4f6e9407e6ca9a9b1803e961a8"},
		{"seu", "f4f77bc5a9603b0fa2a7c23d16244e2caa1658220b618c12376bdafbe39d0ae7"},
	}
	pd := proposerDataset(t)
	for _, tc := range steps {
		t.Run("proposer-"+tc.sampler, func(t *testing.T) {
			cfg := proposerConfig()
			cfg.Sampler = tc.sampler
			p, err := NewProposer(pd, cfg, ProposerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			h := sha256.New()
			for it := 0; it < 30; it++ {
				st, err := p.Step(context.Background(), it)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(append(data, '\n'))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("step digest = %s, want %s (new LFs %d)", got, tc.want, p.NewCount())
			}
		})
	}
}
