package endmodel

import (
	"encoding/json"
	"math"
	"testing"

	"datasculpt/internal/textproc"
)

// FuzzModelUnmarshal feeds arbitrary bytes to the stored-model decoder,
// which bundles uploaded over the network reach. Every input must either
// be rejected or decode to a model that passes Validate and predicts
// finite probabilities summing to one, on an empty row and on an
// L2-normalized row touching the first and last features.
func FuzzModelUnmarshal(f *testing.F) {
	X, Y := gaussianBlobs(1, 200, 3, 16, 0.1)
	m, err := Train(X, oneHot(Y, 3), nil, 3, 16, TrainConfig{Seed: 1, Epochs: 2})
	if err != nil {
		f.Fatal(err)
	}
	trained, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(trained),
		`{"dim": 4, "k": 2, "bias": [0,0], "indices": [[0,3],[1]], "values": [[1,-1],[2]]}`,
		`{"dim": 2, "k": 2, "bias": [1e300,-1e300], "indices": [[0,1],[0,1]], "values": [[1e300,1e300],[-1e300,-1e300]]}`,
		`{"dim": 4, "k": 2, "bias": [0,0], "indices": [[1,1],[]], "values": [[1,2],[]]}`,
		`{"dim": 1000000000000, "k": 2, "bias": [0,0], "indices": [[],[]], "values": [[],[]]}`,
		`{"dim": 4, "k": 2, "bias": [0,1e308], "indices": [[],[]], "values": [[],[]]}`,
		`{"dim": 4, "k": 2}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m LogisticRegression
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded model fails Validate: %v", err)
		}
		s := float32(1 / math.Sqrt2)
		rows := []*textproc.SparseVector{
			{},
			{Idx: []int32{0, int32(m.Dim - 1)}, Val: []float32{s, -s}},
		}
		if m.Dim == 1 {
			rows[1] = &textproc.SparseVector{Idx: []int32{0}, Val: []float32{1}}
		}
		for _, p := range m.PredictProbaAll(rows) {
			var sum float64
			for _, v := range p {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Fatalf("probability %v out of [0,1] in %v", v, p)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("probabilities %v sum to %v", p, sum)
			}
		}
	})
}
