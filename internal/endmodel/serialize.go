package endmodel

import (
	"encoding/json"
	"fmt"
)

// modelJSON is the stored form of a trained model. Weights are kept
// sparse (index/value pairs per class): hashed TF-IDF leaves most of the
// weight matrix at exactly zero, so sparse storage keeps saved models
// small without any precision loss.
type modelJSON struct {
	Dim     int         `json:"dim"`
	K       int         `json:"k"`
	Bias    []float64   `json:"bias"`
	Indices [][]int     `json:"indices"`
	Values  [][]float64 `json:"values"`
}

// MarshalJSON implements json.Marshaler.
func (m *LogisticRegression) MarshalJSON() ([]byte, error) {
	out := modelJSON{
		Dim:     m.Dim,
		K:       m.K,
		Bias:    m.B,
		Indices: make([][]int, m.K),
		Values:  make([][]float64, m.K),
	}
	for f := 0; f < m.Dim; f++ {
		for c, w := range m.W[f*m.K : f*m.K+m.K] {
			if w == 0 {
				continue
			}
			out.Indices[c] = append(out.Indices[c], f)
			out.Values[c] = append(out.Values[c], w)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating the structure.
func (m *LogisticRegression) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("endmodel: decoding model: %w", err)
	}
	if in.Dim <= 0 || in.K < 2 {
		return fmt.Errorf("endmodel: invalid shape %dx%d", in.K, in.Dim)
	}
	if in.Dim > maxWeights/in.K {
		return fmt.Errorf("endmodel: shape %dx%d exceeds %d weights", in.K, in.Dim, maxWeights)
	}
	if len(in.Bias) != in.K || len(in.Indices) != in.K || len(in.Values) != in.K {
		return fmt.Errorf("endmodel: class-count mismatch in stored model")
	}
	w := make([]float64, in.Dim*in.K)
	for c := 0; c < in.K; c++ {
		if len(in.Indices[c]) != len(in.Values[c]) {
			return fmt.Errorf("endmodel: class %d has %d indices for %d values",
				c, len(in.Indices[c]), len(in.Values[c]))
		}
		for t, f := range in.Indices[c] {
			if f < 0 || f >= in.Dim {
				return fmt.Errorf("endmodel: class %d feature index %d out of range", c, f)
			}
			w[f*in.K+c] = in.Values[c][t]
		}
	}
	m.Dim, m.K, m.W, m.B = in.Dim, in.K, w, in.Bias
	return m.Validate()
}
