// Package endmodel implements the downstream model of the PWS pipeline: a
// multinomial logistic regression trained on probabilistic (soft) labels
// produced by the label model, over sparse hashed TF-IDF features. This
// matches the paper's configuration (logistic regression over frozen text
// features, WRENCH-style), with TF-IDF standing in for BERT embeddings
// (see DESIGN.md §2).
package endmodel

import (
	"fmt"
	"math"
	"math/rand"

	"datasculpt/internal/par"
	"datasculpt/internal/textproc"
)

// TrainConfig holds the optimizer hyperparameters.
type TrainConfig struct {
	// Epochs over the training set (default 8).
	Epochs int
	// LearningRate of per-example SGD (default 0.5; features are
	// L2-normalized TF-IDF, so a large step is stable). It decays by
	// LRDecay per epoch.
	LearningRate float64
	// LRDecay multiplies the learning rate after each epoch (default 0.9).
	LRDecay float64
	// L2 regularization strength (default 1e-5).
	L2 float64
	// Seed drives shuffling.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.LRDecay <= 0 || c.LRDecay > 1 {
		c.LRDecay = 0.9
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-5
	}
	return c
}

// LogisticRegression is a trained multinomial logistic-regression model.
type LogisticRegression struct {
	// Dim is the feature dimensionality, K the class count.
	Dim, K int
	// W holds the Dim×K weights feature-major: W[f*K+c] is feature f's
	// weight for class c, so the K weights a non-zero feature touches are
	// one contiguous row. B is the per-class bias.
	W []float64
	B []float64

	// workers bounds the goroutines batch prediction fans out over
	// (<= 1 sequential). Per-example outputs are independent, so every
	// worker count produces identical results. Not serialized — a
	// deserialized model predicts sequentially until SetParallelism.
	workers int
}

// SetParallelism sets the worker bound for Predict/PredictProbaAll.
func (m *LogisticRegression) SetParallelism(workers int) { m.workers = workers }

// maxWeights caps Dim*K. Train refuses a larger shape, and a decoded
// model is checked against it before its dense weights are allocated:
// the stored form is sparse, so a few bytes of a bundle sent over the
// network could otherwise declare a matrix that does not fit in memory.
// It admits a million features at four classes, far above
// DefaultFeatureDim.
const maxWeights = 1 << 22

// maxParam bounds the magnitude of every weight and bias a valid model
// may hold. Served features are L2-normalized, so each logit sums at most
// Dim+1 terms of this size; with Dim*K capped at maxWeights that sum
// stays finite, and so do the probabilities. Trained models sit many
// orders of magnitude below it.
const maxParam = 1e300

// Validate checks the structural invariants of a model (trained,
// deserialized, or hand-assembled): a consistent Dim×K shape of at most
// maxWeights entries and finite parameters no larger than maxParam. Bundle loading calls it before
// serving the model.
func (m *LogisticRegression) Validate() error {
	if m.Dim <= 0 || m.K < 2 {
		return fmt.Errorf("endmodel: invalid shape %dx%d", m.K, m.Dim)
	}
	if m.Dim > maxWeights/m.K {
		return fmt.Errorf("endmodel: shape %dx%d exceeds %d weights", m.K, m.Dim, maxWeights)
	}
	if len(m.B) != m.K {
		return fmt.Errorf("endmodel: %d biases for %d classes", len(m.B), m.K)
	}
	if len(m.W) != m.Dim*m.K {
		return fmt.Errorf("endmodel: %d weights for %d features x %d classes", len(m.W), m.Dim, m.K)
	}
	for i, w := range m.W {
		if !(math.Abs(w) <= maxParam) {
			return fmt.Errorf("endmodel: class %d has a non-finite or out-of-range weight", i%m.K)
		}
	}
	for c, b := range m.B {
		if !(math.Abs(b) <= maxParam) {
			return fmt.Errorf("endmodel: class %d has a non-finite or out-of-range bias", c)
		}
	}
	return nil
}

// Train fits the model on sparse features X with soft targets Y (each row
// a probability vector over k classes) using per-example SGD with
// per-epoch learning-rate decay and lazy L2 shrinkage of the touched
// weights. An optional weights slice scales each example's loss (nil
// means uniform). Rows of X must have strictly increasing indices, as
// SparseVector.Validate requires.
func Train(X []*textproc.SparseVector, Y [][]float64, weights []float64, k, dim int, cfg TrainConfig) (*LogisticRegression, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("endmodel: empty training set")
	}
	if len(X) != len(Y) {
		return nil, fmt.Errorf("endmodel: %d features for %d targets", len(X), len(Y))
	}
	if weights != nil && len(weights) != len(X) {
		return nil, fmt.Errorf("endmodel: %d weights for %d examples", len(weights), len(X))
	}
	if k < 2 {
		return nil, fmt.Errorf("endmodel: need >=2 classes, got %d", k)
	}
	if dim <= 0 || dim > maxWeights/k {
		return nil, fmt.Errorf("endmodel: dimension %d outside 1..%d for %d classes", dim, maxWeights/k, k)
	}
	for i, y := range Y {
		if len(y) != k {
			return nil, fmt.Errorf("endmodel: target %d has %d classes, want %d", i, len(y), k)
		}
	}
	cfg = cfg.withDefaults()

	m := &LogisticRegression{
		Dim: dim,
		K:   k,
		W:   make([]float64, dim*k),
		B:   make([]float64, k),
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(X))
	probs := make([]float64, k)
	grad := make([]float64, k)
	lr := cfg.LearningRate

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// reshuffle each epoch
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		// exactly 1 when L2 is off, and x*1 == x bit for bit
		shrink := 1 - lr*cfg.L2
		for _, idx := range order {
			x := X[idx]
			m.logits(x, probs)
			softmaxInPlace(probs)
			w := lr
			if weights != nil {
				w *= weights[idx]
			}
			y := Y[idx]
			for c := range grad {
				grad[c] = (probs[c] - y[c]) * w
				if grad[c] != 0 {
					m.B[c] -= grad[c]
				}
			}
			// Each touched weight takes its gradient step, then the lazy
			// L2 shrink. A zero gradient skips the step, as subtracting a
			// signed zero could flip a zero weight's sign bit.
			for t, fi := range x.Idx {
				v := float64(x.Val[t])
				row := m.W[int(fi)*k : int(fi)*k+k]
				row = row[:len(grad)]
				for c, g := range grad {
					if g != 0 {
						row[c] -= g * v
					}
					row[c] *= shrink
				}
			}
		}
		lr *= cfg.LRDecay
	}
	return m, nil
}

// logits writes raw class scores for x into out (length K): each class
// starts from its bias and adds the non-zeros in index order.
func (m *LogisticRegression) logits(x *textproc.SparseVector, out []float64) {
	k := m.K
	out = out[:k]
	copy(out, m.B)
	for t, fi := range x.Idx {
		v := float64(x.Val[t])
		row := m.W[int(fi)*k : int(fi)*k+k]
		row = row[:len(out)]
		for c, w := range row {
			out[c] += w * v
		}
	}
}

func softmaxInPlace(xs []float64) {
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range xs {
		xs[i] = math.Exp(x - max)
		sum += xs[i]
	}
	for i := range xs {
		xs[i] /= sum
	}
}

// PredictProba returns the class distribution for one feature vector.
func (m *LogisticRegression) PredictProba(x *textproc.SparseVector) []float64 {
	out := make([]float64, m.K)
	m.logits(x, out)
	softmaxInPlace(out)
	return out
}

// Predict returns argmax classes for a batch, sharded across the
// configured workers (identical output at any worker count).
func (m *LogisticRegression) Predict(X []*textproc.SparseVector) []int {
	out := make([]int, len(X))
	par.Chunks(m.workers, len(X), func(lo, hi int) {
		probs := make([]float64, m.K)
		for i := lo; i < hi; i++ {
			m.logits(X[i], probs)
			best := 0
			for c := 1; c < m.K; c++ {
				if probs[c] > probs[best] {
					best = c
				}
			}
			out[i] = best
		}
	})
	return out
}

// PredictProbaAll returns class distributions for a batch, sharded
// across the configured workers. All rows share one flat backing array —
// a single allocation instead of one per example, which matters when the
// pipeline re-predicts the full train split every interim refresh.
func (m *LogisticRegression) PredictProbaAll(X []*textproc.SparseVector) [][]float64 {
	out := make([][]float64, len(X))
	backing := make([]float64, len(X)*m.K)
	par.Chunks(m.workers, len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := backing[i*m.K : (i+1)*m.K : (i+1)*m.K]
			m.logits(X[i], row)
			softmaxInPlace(row)
			out[i] = row
		}
	})
	return out
}
